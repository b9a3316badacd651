#include "topology/tree.hpp"

#include <sstream>

#include "util/contracts.hpp"

namespace proxcache {

std::size_t TreeTopology::node_count(std::uint32_t branching,
                                     std::uint32_t depth) {
  PROXCACHE_REQUIRE(branching >= 1, "tree branching must be >= 1");
  // Sum of b^l for l in [0, depth], saturating past the NodeId space.
  const std::size_t limit = static_cast<std::size_t>(kInvalidNode);
  std::size_t total = 0;
  std::size_t level_size = 1;
  for (std::uint32_t l = 0; l <= depth; ++l) {
    if (total > limit - level_size) return limit + 1;
    total += level_size;
    if (l < depth) {
      if (level_size > limit / branching) return limit + 1;
      level_size *= branching;
    }
  }
  return total;
}

TreeTopology::TreeTopology(std::uint32_t branching, std::uint32_t depth)
    : branching_(branching),
      depth_(depth),
      size_(node_count(branching, depth)) {
  PROXCACHE_REQUIRE(size_ <= static_cast<std::size_t>(kInvalidNode),
                    "tree node count overflows NodeId");
  level_first_.reserve(depth_ + 2);
  std::size_t first = 0;
  std::size_t level_size = 1;
  for (std::uint32_t l = 0; l <= depth_; ++l) {
    level_first_.push_back(static_cast<NodeId>(first));
    first += level_size;
    level_size *= branching_;
  }
  level_first_.push_back(static_cast<NodeId>(first));  // one-past-the-end
}

std::uint32_t TreeTopology::level(NodeId u) const {
  PROXCACHE_REQUIRE(u < size_, "node id out of range");
  std::uint32_t l = 0;
  while (u >= level_first_[l + 1]) ++l;
  return l;
}

NodeId TreeTopology::parent(NodeId u) const {
  PROXCACHE_REQUIRE(u < size_, "node id out of range");
  if (u == 0) return 0;
  return (u - 1) / branching_;
}

Hop TreeTopology::distance(NodeId u, NodeId v) const {
  std::uint32_t lu = level(u);
  std::uint32_t lv = level(v);
  Hop hops = 0;
  while (lu > lv) {
    u = parent(u);
    --lu;
    ++hops;
  }
  while (lv > lu) {
    v = parent(v);
    --lv;
    ++hops;
  }
  while (u != v) {
    u = parent(u);
    v = parent(v);
    hops += 2;
  }
  return hops;
}

std::vector<NodeId> TreeTopology::neighbors(NodeId u) const {
  PROXCACHE_REQUIRE(u < size_, "node id out of range");
  std::vector<NodeId> out;
  if (u != 0) out.push_back(parent(u));
  const std::size_t first_child =
      static_cast<std::size_t>(u) * branching_ + 1;
  for (std::uint32_t c = 0; c < branching_; ++c) {
    const std::size_t child = first_child + c;
    if (child >= size_) break;
    out.push_back(static_cast<NodeId>(child));
  }
  return out;
}

std::string TreeTopology::describe() const {
  std::ostringstream os;
  os << "tree(branching=" << branching_ << ", depth=" << depth_ << ")";
  return os.str();
}

std::string TreeTopology::node_label(NodeId u) const {
  std::ostringstream os;
  os << level(u) << ':' << u;
  return os.str();
}

}  // namespace proxcache
