#include "graph/distance_oracle.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

constexpr std::uint16_t kUnreached = std::numeric_limits<std::uint16_t>::max();

/// Largest hop count the uint16 storage can represent.
constexpr Hop kMaxStorableHops = kUnreached - 1;

[[noreturn]] void throw_depth_overflow(NodeId source) {
  throw std::invalid_argument(
      "graph shortest paths from vertex " + std::to_string(source) +
      " exceed " + std::to_string(kMaxStorableHops) +
      " hops, more than the uint16 distance storage can hold");
}

[[noreturn]] void throw_disconnected(NodeId source, std::size_t reached,
                                     std::size_t n) {
  throw std::invalid_argument(
      "graph topology requires a connected graph (vertex " +
      std::to_string(source) + " reaches only " + std::to_string(reached) +
      " of " + std::to_string(n) + " vertices)");
}

/// Full BFS from `source` into `dist` (must be n entries, kUnreached-
/// filled by the caller). Depth accumulates in a wide Hop so deep graphs
/// throw std::invalid_argument instead of tripping an internal assertion.
/// Returns {vertices reached, eccentricity of source}.
std::pair<std::size_t, Hop> bfs_full(const CompactGraph& graph, NodeId source,
                                     std::uint16_t* dist,
                                     std::vector<NodeId>& frontier) {
  frontier.clear();
  frontier.push_back(source);
  dist[source] = 0;
  Hop depth = 0;
  std::size_t begin = 0;
  while (begin < frontier.size()) {
    const std::size_t level_end = frontier.size();
    if (depth >= kMaxStorableHops) throw_depth_overflow(source);
    ++depth;
    for (std::size_t i = begin; i < level_end; ++i) {
      for (const std::uint32_t v : graph.neighbors(frontier[i])) {
        if (dist[v] == kUnreached) {
          dist[v] = static_cast<std::uint16_t>(depth);
          frontier.push_back(v);
        }
      }
    }
    begin = level_end;
  }
  return {frontier.size(), depth > 0 ? depth - 1 : 0};
}

/// Level `d` of a cached BFS row: its stored nodes, in the row's order.
template <typename Row>
auto level_of(Row& row, std::size_t d) {
  const std::uint32_t begin = d == 0 ? 0 : row.level_end[d - 1];
  return std::span(row.nodes).subspan(begin, row.level_end[d] - begin);
}

}  // namespace

DistanceOracle::DistanceOracle(const CompactGraph& graph, Options options)
    : graph_(&graph), n_(graph.num_vertices()), options_(options) {
  PROXCACHE_REQUIRE(n_ >= 1, "distance oracle needs >= 1 vertex");
  dense_ = n_ <= options_.dense_threshold;
  if (dense_) {
    build_dense(graph);
  } else {
    build_sparse(graph);
  }
}

void DistanceOracle::build_dense(const CompactGraph& graph) {
  const auto n = static_cast<std::uint32_t>(n_);
  dense_dist_.assign(n_ * n_, kUnreached);
  std::vector<NodeId> frontier;
  frontier.reserve(n_);
  for (std::uint32_t source = 0; source < n; ++source) {
    std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(source) * n_;
    const auto [reached, ecc] = bfs_full(graph, source, row, frontier);
    if (reached != n_) throw_disconnected(source, reached, n_);
    diameter_ = std::max<Hop>(diameter_, ecc);
  }
  diameter_exact_ = true;
}

void DistanceOracle::build_sparse(const CompactGraph& graph) {
  mark_depth_.assign(n_, kUnreached);
  const std::size_t k = std::max<std::size_t>(1, std::min(options_.num_landmarks, n_));
  landmark_dist_.assign(k * n_, kUnreached);
  landmarks_.reserve(k);
  std::vector<NodeId> frontier;
  frontier.reserve(n_);
  std::vector<Hop> eccentricity(k, 0);

  // Farthest-point landmark selection: L0 = vertex 0, then each next
  // landmark is the vertex maximizing the distance to its nearest chosen
  // landmark (first argmax in id order — deterministic). L1 is therefore
  // the classic double-sweep endpoint.
  std::vector<std::uint16_t> min_dist(n_, kUnreached);
  for (std::size_t i = 0; i < k; ++i) {
    NodeId source = 0;
    if (i > 0) {
      std::uint16_t best = 0;
      for (NodeId v = 0; v < n_; ++v) {
        if (min_dist[v] > best && min_dist[v] != kUnreached) {
          best = min_dist[v];
          source = v;
        }
      }
      if (best == 0) {  // fewer distinct vertices than landmarks
        landmark_dist_.resize(i * n_);
        eccentricity.resize(i);
        break;
      }
    }
    landmarks_.push_back(source);
    std::uint16_t* row = landmark_dist_.data() + i * n_;
    const auto [reached, ecc] = bfs_full(graph, source, row, frontier);
    if (reached != n_) throw_disconnected(source, reached, n_);
    eccentricity[i] = ecc;
    for (NodeId v = 0; v < n_; ++v) {
      min_dist[v] = std::min(min_dist[v], row[v]);
    }
  }

  // Diameter bounds from the landmark sweeps: every eccentricity is a
  // lower bound, and 2·ecc(L) is an upper bound for any L. iFUB-style
  // refinement from the most central landmark closes the gap exactly on
  // well-behaved graphs within a bounded number of extra BFS passes.
  Hop lower = 0;
  std::size_t central = 0;
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    lower = std::max(lower, eccentricity[i]);
    if (eccentricity[i] < eccentricity[central]) central = i;
  }
  const std::uint16_t* center_row = landmark_dist_.data() + central * n_;
  const Hop center_ecc = eccentricity[central];

  // Bucket the center row by depth once; iFUB walks levels top-down.
  std::vector<std::vector<NodeId>> levels(center_ecc + 1);
  for (NodeId v = 0; v < n_; ++v) levels[center_row[v]].push_back(v);

  std::size_t budget = options_.diameter_bfs_budget;
  std::vector<std::uint16_t> scratch(n_, kUnreached);
  Hop level = center_ecc;
  bool exact = false;
  while (true) {
    if (2 * level <= lower) {  // nothing below can beat the lower bound
      exact = true;
      break;
    }
    if (level == 0) {
      exact = true;
      break;
    }
    bool out_of_budget = false;
    for (const NodeId v : levels[level]) {
      if (budget == 0) {
        out_of_budget = true;
        break;
      }
      --budget;
      std::fill(scratch.begin(), scratch.end(), kUnreached);
      const auto [reached, ecc] = bfs_full(graph, v, scratch.data(), frontier);
      (void)reached;
      lower = std::max(lower, ecc);
    }
    if (out_of_budget) break;
    --level;
  }
  if (exact) {
    diameter_ = lower;
    diameter_exact_ = true;
  } else {
    // Unprocessed vertices all sit within `level` of the center, so any
    // pair among them spans at most 2·level hops.
    diameter_ = std::max(lower, 2 * level);
    diameter_exact_ = diameter_ == lower;
  }

  // Transpose to node-major (n × k): a pair query reads each endpoint's
  // k entries from one cache line instead of striding k rows of length n.
  const std::size_t kept = landmarks_.size();
  std::vector<std::uint16_t> by_node(kept * n_);
  for (std::size_t i = 0; i < kept; ++i) {
    const std::uint16_t* row = landmark_dist_.data() + i * n_;
    for (NodeId v = 0; v < n_; ++v) by_node[v * kept + i] = row[v];
  }
  landmark_dist_ = std::move(by_node);
}

Hop DistanceOracle::landmark_upper_bound(NodeId u, NodeId v) const {
  PROXCACHE_REQUIRE(!dense_, "landmark bounds exist only in sparse mode");
  return landmark_bound(
      landmark_dist_.data() + std::size_t{u} * landmarks_.size(), v);
}

Hop DistanceOracle::landmark_bound(const std::uint16_t* origin,
                                   NodeId v) const {
  const std::size_t k = landmarks_.size();
  const std::uint16_t* rv = landmark_dist_.data() + std::size_t{v} * k;
  Hop best = kUnboundedRadius;
  for (std::size_t i = 0; i < k; ++i) {
    const Hop via = static_cast<Hop>(origin[i]) + static_cast<Hop>(rv[i]);
    best = std::min(best, via);
  }
  return best;
}

DistanceOracle::Row& DistanceOracle::row_for(NodeId u) const {
  auto it = rows_.find(u);
  if (it != rows_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return *it->second.row;
  }
  // A fresh row for `u` must not inherit marks from an evicted incarnation.
  if (mark_owner_ == u) mark_owner_ = kInvalidNode;
  auto row = std::make_unique<Row>();
  row->nodes.push_back(u);
  row->level_end.push_back(1);
  if (n_ == 1) row->complete = true;
  update_budget_depth(*row);
  lru_.push_front(u);
  CacheSlot slot;
  slot.row = std::move(row);
  slot.lru_pos = lru_.begin();
  Row& result = *slot.row;
  rows_.emplace(u, std::move(slot));
  cached_entries_ += 1;
  ++stats_.rows_built;
  evict_to_budget();
  return result;
}

void DistanceOracle::evict_to_budget() const {
  // Never evict the most recent row — it is the one in use by the caller.
  while (cached_entries_ > options_.cache_entry_budget && lru_.size() > 1) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    auto it = rows_.find(victim);
    cached_entries_ -= it->second.row->nodes.size();
    rows_.erase(it);
    if (mark_owner_ == victim) mark_owner_ = kInvalidNode;
    ++stats_.rows_evicted;
  }
}

void DistanceOracle::bind_marks(const Row& row, NodeId source) const {
  if (mark_owner_ == source) return;
  for (const NodeId v : mark_nodes_) mark_depth_[v] = kUnreached;
  mark_nodes_.clear();
  mark_nodes_.reserve(row.nodes.size());
  for (std::size_t d = 0; d < row.level_end.size(); ++d) {
    for (const NodeId v : level_of(row, d)) {
      mark_depth_[v] = static_cast<std::uint16_t>(d);
      mark_nodes_.push_back(v);
    }
  }
  mark_owner_ = source;
}

void DistanceOracle::extend_row(Row& row, NodeId source) const {
  if (row.complete) return;
  bind_marks(row, source);
  const Hop depth = static_cast<Hop>(row.level_end.size());
  if (depth > kMaxStorableHops) throw_depth_overflow(source);
  // The new level grows from the last stored one straight onto the end of
  // `nodes`, in discovery order; indices, since push_back may reallocate.
  const std::uint32_t begin = depth == 1 ? 0 : row.level_end[depth - 2];
  const std::uint32_t end = row.level_end.back();
  for (std::uint32_t i = begin; i < end; ++i) {
    for (const std::uint32_t v : graph_->neighbors(row.nodes[i])) {
      if (mark_depth_[v] == kUnreached) {
        mark_depth_[v] = static_cast<std::uint16_t>(depth);
        mark_nodes_.push_back(v);
        row.nodes.push_back(v);
      }
    }
  }
  if (row.nodes.size() == end) {
    row.complete = true;  // the graph is exhausted
  } else {
    row.level_end.push_back(static_cast<std::uint32_t>(row.nodes.size()));
    cached_entries_ += row.nodes.size() - end;
  }
  update_budget_depth(row);
}

void DistanceOracle::update_budget_depth(Row& row) const {
  // B*(u) ends at the first level whose *predicted* successor cannot fit:
  // the next level's size is bounded by the current level's degree sum
  // (capped at n — degree sums overcount already-visited neighbors), so
  // the ball is truncated *before* any level that could push it past the
  // budget. |B*(u)| <= min(budget, n) always — heavy-tailed graphs never
  // materialize a 10x-overshoot hub level on the distance path — and the
  // horizon stays a pure function of the graph and the budget. A row
  // grows only while its horizon is unknown, so every shallower level
  // passed this check when it was stored: only the newest one is checked.
  const std::size_t last = row.level_end.size() - 1;
  std::size_t degree_sum = 0;
  for (const NodeId v : level_of(row, last)) degree_sum += graph_->degree(v);
  const std::size_t predicted =
      std::min<std::size_t>(row.level_end[last] + degree_sum, n_);
  if (row.complete || predicted > options_.distance_ball_budget) {
    row.budget_depth = static_cast<std::uint16_t>(last);
    row.budget_depth_known = true;
    // The stored row is final (deeper levels stream): drop the growth
    // slack of its node list.
    row.nodes.shrink_to_fit();
  }
}

void DistanceOracle::ensure_depth(Row& row, NodeId source, Hop d) const {
  // The stored row never grows past the budget horizon: once the budget
  // depth is known, deeper shell/ball queries stream from the frontier
  // (stream_beyond) instead of materializing levels into the cache.
  while (!row.complete && !row.budget_depth_known &&
         row.level_end.size() <= d) {
    extend_row(row, source);
  }
}

void DistanceOracle::stream_beyond(
    const Row& row, NodeId source, Hop target,
    FunctionRef<bool(Hop, std::span<NodeId>)> fn) const {
  if (row.complete) return;
  bind_marks(row, source);
  // Streamed levels go one after another into the reused scratch, each
  // grown from the one before it by index (push_back may reallocate).
  // BFS level sets do not depend on intra-level order.
  std::vector<NodeId>& levels = stream_levels_;
  levels.clear();
  auto depth = static_cast<Hop>(row.level_end.size());
  const auto expand = [&](NodeId u) {
    for (const std::uint32_t v : graph_->neighbors(u)) {
      if (mark_depth_[v] == kUnreached) {
        mark_depth_[v] = static_cast<std::uint16_t>(depth);
        mark_nodes_.push_back(v);
        levels.push_back(v);
      }
    }
  };
  if (depth > kMaxStorableHops) throw_depth_overflow(source);
  for (const NodeId u : level_of(row, depth - 1)) expand(u);
  std::size_t begin = 0;
  while (levels.size() > begin) {
    const std::size_t end = levels.size();
    if (!fn(depth, std::span(levels).subspan(begin, end - begin)) ||
        depth >= target) {
      break;
    }
    if (++depth > kMaxStorableHops) throw_depth_overflow(source);
    for (std::size_t i = begin; i < end; ++i) expand(levels[i]);
    begin = end;
  }
  // The marks now carry streamed levels the stored row does not own;
  // force a clean rebind before the next marked query.
  mark_owner_ = kInvalidNode;
}

void DistanceOracle::ensure_budget_depth(Row& row, NodeId source) const {
  while (!row.budget_depth_known) extend_row(row, source);
}

Hop DistanceOracle::budget_ball_depth(NodeId u) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) return diameter_;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  Row& row = row_for(u);
  ensure_budget_depth(row, u);
  return row.budget_depth;
}

std::optional<Hop> DistanceOracle::budget_ball_lookup(Row& row,
                                                      NodeId source,
                                                      NodeId v) const {
  // Lazy budget-ball growth: stop as soon as `v` turns up. A node found
  // before the budget is met is inside B*(u) by definition, so the answer
  // is identical to the eager build — just without paying for the full
  // budget ball when `v` is close.
  while (true) {
    const std::uint16_t d = mark_depth_[v];
    if (d != kUnreached &&
        (!row.budget_depth_known || d <= row.budget_depth)) {
      return static_cast<Hop>(d);
    }
    if (row.budget_depth_known) return std::nullopt;
    extend_row(row, source);
  }
}

Hop DistanceOracle::distance(NodeId u, NodeId v) const {
  PROXCACHE_REQUIRE(u < n_ && v < n_, "node id out of range");
  if (dense_) return dense_distance(u, v);
  Hop d = 0;
  distances(u, std::span(&v, 1), std::span(&d, 1));
  return d;
}

void DistanceOracle::distances(NodeId u, std::span<const NodeId> ids,
                               std::span<Hop> out) const {
  PROXCACHE_REQUIRE(u < n_ && out.size() == ids.size(),
                    "origin out of range, or `out` not as long as `ids`");
  if (dense_) {
    const std::uint16_t* row = dense_dist_.data() + std::size_t{u} * n_;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      PROXCACHE_REQUIRE(ids[i] < n_, "node id out of range");
      out[i] = row[ids[i]];
    }
    return;
  }
  bool bounded = false;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    Row* row = nullptr;  // found at the first id other than `u`
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const NodeId v = ids[i];
      PROXCACHE_REQUIRE(v < n_, "node id out of range");
      if (v == u) {
        out[i] = 0;
        continue;
      }
      if (row == nullptr) {
        row = &row_for(u);
        bind_marks(*row, u);
      }
      if (const auto exact = budget_ball_lookup(*row, u, v)) {
        ++stats_.exact_answers;
        out[i] = *exact;
      } else {
        ++stats_.landmark_answers;
        out[i] = kUnboundedRadius;
        bounded = true;
      }
    }
  }
  if (!bounded) return;
  // The landmark tables are immutable: the bounds need no lock.
  const std::uint16_t* origin =
      landmark_dist_.data() + std::size_t{u} * landmarks_.size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (out[i] == kUnboundedRadius) out[i] = landmark_bound(origin, ids[i]);
  }
}

std::optional<Hop> DistanceOracle::certified_distance(NodeId u,
                                                      NodeId v) const {
  PROXCACHE_REQUIRE(u < n_ && v < n_, "node id out of range");
  if (dense_) return dense_distance(u, v);
  if (u == v) return 0;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  Row& row = row_for(u);
  bind_marks(row, u);
  return budget_ball_lookup(row, u, v);
}

void DistanceOracle::visit_shell(NodeId u, Hop d, OracleNodeVisitor fn) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) {
    if (d > diameter_) return;
    const std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(u) * n_;
    const auto target = static_cast<std::uint16_t>(d);
    for (NodeId v = 0; v < n_; ++v) {
      if (row[v] == target) fn(v);
    }
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  Row& row = row_for(u);
  ensure_depth(row, u, d);
  // Shells come out in increasing node-id order, the dense row scan's,
  // sorted in the stream scratch: a stored level as a copy (the row keeps
  // its discovery order), a streamed one where it was streamed.
  std::span<NodeId> shell;
  if (d < row.level_end.size()) {
    const auto level = level_of(row, d);
    stream_levels_.assign(level.begin(), level.end());
    shell = stream_levels_;
  } else {
    stream_beyond(row, u, d, [&](Hop depth, std::span<NodeId> level) {
      if (depth == d) shell = level;
      return true;
    });
  }
  std::sort(shell.begin(), shell.end());
  for (const NodeId v : shell) fn(v);
}

void DistanceOracle::walk_shells(NodeId u, Hop max_d,
                                 const ShellCandidates& candidates,
                                 ShellHitVisitor fn) const {
  PROXCACHE_REQUIRE(u < n_ && (candidates.sorted.empty() ||
                               candidates.sorted.back() < n_),
                    "node id out of range");
  if (dense_) {
    // Scan the sorted candidates per shell: id order, the row scan's. The
    // dense regime takes no lock, so the hits live on this call.
    const std::uint16_t* row = dense_dist_.data() + std::size_t{u} * n_;
    const Hop top = std::min(max_d, diameter_);
    std::vector<NodeId> hits;
    for (Hop d = 0; d <= top; ++d) {
      hits.clear();
      for (const NodeId v : candidates.sorted) {
        if (row[v] == d) hits.push_back(v);
      }
      if (!fn(d, hits)) return;
    }
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  Row& row = row_for(u);
  // Stored levels grow exactly as a `visit_shell` per depth grows them;
  // past the horizon, one stream carries the walk to its end.
  for (Hop d = 0; d <= max_d; ++d) {
    ensure_depth(row, u, d);
    if (d >= row.level_end.size()) {
      stream_beyond(row, u, max_d, [&](Hop depth, std::span<NodeId> level) {
        return fn(depth, level_hits(level, depth, candidates));
      });
      return;
    }
    const auto level = level_of(row, d);
    if (level.size() >= candidates.sorted.size()) bind_marks(row, u);
    if (!fn(d, level_hits(level, d, candidates))) return;
  }
}

std::span<const NodeId> DistanceOracle::level_hits(
    std::span<const NodeId> level, Hop d,
    const ShellCandidates& candidates) const {
  hits_.clear();
  if (level.size() < candidates.sorted.size()) {
    // The level is in discovery order: filter it, then order the hits.
    for (const NodeId v : level) {
      if (candidates.contains(v)) hits_.push_back(v);
    }
    std::sort(hits_.begin(), hits_.end());
  } else {
    // The marks know every depth through d: the sorted candidates at
    // depth d are the level's hits, already in id order.
    for (const NodeId v : candidates.sorted) {
      if (mark_depth_[v] == d) hits_.push_back(v);
    }
  }
  return hits_;
}

std::size_t DistanceOracle::shell_size(NodeId u, Hop d) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) {
    if (d > diameter_) return 0;
    const std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(u) * n_;
    const auto target = static_cast<std::uint16_t>(d);
    std::size_t count = 0;
    for (NodeId v = 0; v < n_; ++v) {
      if (row[v] == target) ++count;
    }
    return count;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  Row& row = row_for(u);
  ensure_depth(row, u, d);
  if (d < row.level_end.size()) return level_of(row, d).size();
  std::size_t count = 0;
  stream_beyond(row, u, d, [&](Hop depth, std::span<NodeId> level) {
    if (depth == d) count = level.size();
    return true;
  });
  return count;
}

std::size_t DistanceOracle::ball_size(NodeId u, Hop r) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) {
    const std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(u) * n_;
    const Hop cap = std::min<Hop>(r, diameter_);
    std::size_t count = 0;
    for (NodeId v = 0; v < n_; ++v) {
      if (row[v] <= cap) ++count;
    }
    return count;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  Row& row = row_for(u);
  ensure_depth(row, u, r);
  const std::size_t top = std::min<std::size_t>(r, row.level_end.size() - 1);
  std::size_t count = row.level_end[top];
  if (r >= row.level_end.size()) {
    stream_beyond(row, u, r, [&](Hop depth, std::span<NodeId> level) {
      (void)depth;
      count += level.size();
      return true;
    });
  }
  return count;
}

std::size_t DistanceOracle::cached_entries() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cached_entries_;
}

DistanceOracle::Stats DistanceOracle::stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return stats_;
}

}  // namespace proxcache
