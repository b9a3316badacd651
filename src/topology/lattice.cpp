#include "topology/lattice.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "topology/shells.hpp"
#include "util/contracts.hpp"

namespace proxcache {

std::string to_string(Wrap wrap) {
  return wrap == Wrap::Torus ? "torus" : "grid";
}

Lattice::Lattice(std::int32_t side, Wrap wrap) : side_(side), wrap_(wrap) {
  PROXCACHE_REQUIRE(side >= 1, "lattice side must be >= 1");
}

bool Lattice::is_perfect_square(std::size_t n) {
  if (n == 0) return false;
  const auto root = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(n))));
  for (std::size_t candidate :
       {root > 0 ? root - 1 : root, root, root + 1}) {
    if (candidate * candidate == n) return true;
  }
  return false;
}

Lattice Lattice::from_node_count(std::size_t n, Wrap wrap) {
  PROXCACHE_REQUIRE(is_perfect_square(n),
                    "node count must be a perfect square, got " +
                        std::to_string(n));
  const auto root = static_cast<std::int32_t>(
      std::llround(std::sqrt(static_cast<double>(n))));
  const std::int32_t side =
      static_cast<std::size_t>(root) * static_cast<std::size_t>(root) == n
          ? root
          : (static_cast<std::size_t>(root + 1) *
                     static_cast<std::size_t>(root + 1) ==
                         n
                 ? root + 1
                 : root - 1);
  return Lattice(side, wrap);
}

NodeId Lattice::node(Point p) const {
  PROXCACHE_REQUIRE(p.x >= 0 && p.x < side_ && p.y >= 0 && p.y < side_,
                    "coordinate out of bounds");
  return static_cast<NodeId>(p.y) * static_cast<NodeId>(side_) +
         static_cast<NodeId>(p.x);
}

NodeId Lattice::node_wrapped(Point p) const {
  PROXCACHE_REQUIRE(wrap_ == Wrap::Torus,
                    "node_wrapped() requires torus mode");
  const auto reduce = [this](std::int32_t a) {
    a %= side_;
    if (a < 0) a += side_;
    return a;
  };
  return node(Point{reduce(p.x), reduce(p.y)});
}

Hop Lattice::diameter() const {
  if (wrap_ == Wrap::Grid) return static_cast<Hop>(2 * (side_ - 1));
  return static_cast<Hop>(2 * (side_ / 2));
}

std::int32_t Lattice::torus_axis_multiplicity(std::int32_t a) const {
  // Number of x in [0, side) with ring distance exactly `a` from a fixed
  // origin: 1 at a = 0; 2 for 0 < a < side/2; 1 at a = side/2 when side is
  // even; 0 beyond.
  if (a == 0) return 1;
  if (2 * a < side_) return 2;
  if (2 * a == side_) return 1;  // even side only: a == side/2
  return 0;
}

std::size_t Lattice::shell_size(NodeId u, Hop d) const {
  const auto dist = static_cast<std::int32_t>(d);
  if (wrap_ == Wrap::Torus) {
    // Sum over the split of d into per-axis ring distances.
    const std::int32_t max_axis = side_ / 2;
    std::size_t total = 0;
    for (std::int32_t dx = 0; dx <= std::min(dist, max_axis); ++dx) {
      const std::int32_t dy = dist - dx;
      if (dy > max_axis) continue;
      total += static_cast<std::size_t>(torus_axis_multiplicity(dx)) *
               static_cast<std::size_t>(torus_axis_multiplicity(dy));
    }
    return total;
  }
  // Grid: count the in-bounds offsets directly.
  const Point p = coord(u);
  std::size_t total = 0;
  for (std::int32_t dx = -dist; dx <= dist; ++dx) {
    const std::int32_t x = p.x + dx;
    if (x < 0 || x >= side_) continue;
    const std::int32_t rem = dist - std::abs(dx);
    if (rem == 0) {
      ++total;
      continue;
    }
    if (p.y + rem < side_) ++total;
    if (p.y - rem >= 0) ++total;
  }
  return total;
}

std::size_t Lattice::ball_size(NodeId u, Hop r) const {
  const Hop cap = std::min<Hop>(r, diameter());
  std::size_t total = 0;
  for (Hop d = 0; d <= cap; ++d) total += shell_size(u, d);
  return total;
}

std::vector<NodeId> Lattice::neighbors(NodeId u) const {
  const Point p = coord(u);
  std::vector<NodeId> out;
  out.reserve(4);
  const Point candidates[4] = {Point{p.x + 1, p.y}, Point{p.x - 1, p.y},
                               Point{p.x, p.y + 1}, Point{p.x, p.y - 1}};
  for (const Point& c : candidates) {
    if (wrap_ == Wrap::Torus) {
      const NodeId v = node_wrapped(c);
      if (v != u && std::find(out.begin(), out.end(), v) == out.end()) {
        out.push_back(v);
      }
    } else if (c.x >= 0 && c.x < side_ && c.y >= 0 && c.y < side_) {
      out.push_back(node(c));
    }
  }
  return out;
}

void Lattice::visit_shell(NodeId u, Hop d, NodeVisitor fn) const {
  // Single source of truth for the enumeration order: the inlined template
  // in shells.hpp (which generic Topology callers reach through this
  // virtual, and lattice-typed hot paths call directly).
  for_each_at_distance(*this, u, d, [&](NodeId v) { fn(v); });
}

NodeId Lattice::central_node() const {
  return node(Point{side_ / 2, side_ / 2});
}

std::string Lattice::describe() const {
  std::ostringstream os;
  os << to_string(wrap_) << "(side=" << side_ << ")";
  return os.str();
}

std::string Lattice::node_label(NodeId u) const {
  const Point p = coord(u);
  std::ostringstream os;
  os << '(' << p.x << ", " << p.y << ')';
  return os.str();
}

double Lattice::mean_distance_to_random_node(NodeId u) const {
  double total = 0.0;
  for (Hop d = 1; d <= diameter(); ++d) {
    total += static_cast<double>(d) * static_cast<double>(shell_size(u, d));
  }
  return total / static_cast<double>(size());
}

}  // namespace proxcache
