#include "graph/distance_oracle.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

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

/// Level `d` of a slot's row: its stored nodes, in the row's order.
template <typename Slot>
auto level_of(Slot& slot, std::size_t d) {
  const std::uint32_t begin = d == 0 ? 0 : slot.level_end[d - 1];
  return std::span(slot.nodes).subspan(begin, slot.level_end[d] - begin);
}

}  // namespace

/// One caller's BFS state. A query leases it (`Lease`) and is its only
/// user until the lease ends, so nothing in it needs a lock.
///
/// The row is the budget-truncated BFS ball of `origin`: levels stored
/// concatenated in `nodes` with `level_end[d]` marking the end of depth
/// `d`, each in BFS discovery order; the last level is the frontier that
/// the next level (stored, or streamed past the horizon) grows from.
/// Nothing reorders a stored level: distance lookups never read the order,
/// `visit_shell` sorts a copy, and `walk_shells` sorts only a level's hits.
/// Membership and depth queries read `marks`, O(n) and indexed by node (a
/// per-row hash map would dominate the BFS): the depth of every row node,
/// kUnreached elsewhere. A stream marks its levels too and unmarks them
/// when it ends. A new origin unmarks the old row's nodes and reuses every
/// buffer, so serving it allocates nothing once the buffers have grown.
struct DistanceOracle::Scratch {
  explicit Scratch(std::size_t n) : marks(n, kUnreached) {}

  NodeId origin = kInvalidNode;  ///< whose row this is; none at first
  std::vector<NodeId> nodes;
  std::vector<std::uint32_t> level_end;
  bool complete = false;  ///< ball == whole graph
  /// Last level of the *budget-truncated* BFS — the exactness horizon of
  /// `distance`. Set once per origin, when a level's predicted successor no
  /// longer fits `distance_ball_budget` (or the graph is exhausted); see
  /// `update_budget_depth`.
  std::uint16_t budget_depth = 0;
  bool budget_depth_known = false;
  std::vector<std::uint16_t> marks;
  /// `stream_beyond`'s levels, concatenated, or the copy of a stored level
  /// `visit_shell` sorts.
  std::vector<NodeId> stream;
  std::vector<NodeId> hits;  ///< `walk_shells`' hits of the current level
  Stats stats;  ///< counted since the slot was last returned
  /// `nodes.size()` when the slot was last returned (under slots_mutex_).
  std::size_t resident = 0;
};

/// An idle slot, with what a pick compares, so that picking reads no slot.
struct DistanceOracle::IdleSlot {
  NodeId origin;          ///< whose row the slot holds
  std::thread::id owner;  ///< the thread that returned it
  std::unique_ptr<Scratch> slot;
};

/// A slot held for one query from `origin`, its row pointed at `origin`'s.
/// The pick runs under `slots_mutex_`, held for nothing else: a free slot
/// already holding `origin`'s row, else one this thread returned, else
/// the one returned last, else a new slot — so the pool grows to the
/// number of concurrent callers. A slot another core used last costs its
/// marks and row in cache misses: four `prox-weighted` replications on a
/// 32768-node rgg took about a third more CPU time on 4 workers when
/// picks ignored the thread. The end of the lease, on an exception too, folds the
/// slot's counters and resident entries into the oracle's and returns the
/// slot.
class DistanceOracle::Lease {
 public:
  Lease(const DistanceOracle& oracle, NodeId origin) : oracle_(oracle) {
    const std::thread::id self = std::this_thread::get_id();
    {
      std::lock_guard<std::mutex> lock(oracle.slots_mutex_);
      auto& idle = oracle.free_slots_;
      auto pick = std::find_if(idle.begin(), idle.end(),
                               [origin](const IdleSlot& entry) {
                                 return entry.origin == origin;
                               });
      if (pick == idle.end()) {
        pick = std::find_if(
            idle.begin(), idle.end(),
            [self](const IdleSlot& entry) { return entry.owner == self; });
      }
      if (pick == idle.end() && !idle.empty()) pick = std::prev(idle.end());
      if (pick != idle.end()) {
        slot_ = std::move(pick->slot);
        idle.erase(pick);
      } else {
        // Room for every slot, so returning one never reallocates.
        idle.reserve(++oracle.slot_count_);
      }
    }
    if (slot_ == nullptr) slot_ = std::make_unique<Scratch>(oracle.n_);
    oracle.start_row(*slot_, origin);
  }

  ~Lease() {
    Scratch& slot = *slot_;
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(oracle_.slots_mutex_);
    Stats& total = oracle_.stats_;
    total.rows_built += slot.stats.rows_built;
    total.rows_evicted += slot.stats.rows_evicted;
    total.exact_answers += slot.stats.exact_answers;
    total.landmark_answers += slot.stats.landmark_answers;
    slot.stats = Stats{};
    oracle_.cached_entries_ =
        oracle_.cached_entries_ - slot.resident + slot.nodes.size();
    slot.resident = slot.nodes.size();
    oracle_.free_slots_.push_back({slot.origin, self, std::move(slot_)});
  }

  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  Scratch& operator*() const { return *slot_; }

 private:
  const DistanceOracle& oracle_;
  std::unique_ptr<Scratch> slot_;
};


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

DistanceOracle::~DistanceOracle() = default;

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

void DistanceOracle::start_row(Scratch& slot, NodeId origin) const {
  if (slot.origin == origin) return;
  if (slot.origin != kInvalidNode) {
    for (const NodeId v : slot.nodes) slot.marks[v] = kUnreached;
    ++slot.stats.rows_evicted;
  }
  slot.origin = origin;
  slot.nodes.assign(1, origin);
  slot.level_end.assign(1, 1);
  slot.complete = n_ == 1;
  slot.budget_depth_known = false;
  slot.marks[origin] = 0;
  ++slot.stats.rows_built;
  update_budget_depth(slot);
}

void DistanceOracle::extend_row(Scratch& slot) const {
  if (slot.complete) return;
  const Hop depth = static_cast<Hop>(slot.level_end.size());
  if (depth > kMaxStorableHops) throw_depth_overflow(slot.origin);
  // The new level grows from the last stored one straight onto the end of
  // `nodes`, in discovery order; indices, since push_back may reallocate.
  // A node is stored before it is marked: should push_back throw, a rerun
  // of this level finds exactly the unmarked rest, in the same order.
  const std::uint32_t begin = depth == 1 ? 0 : slot.level_end[depth - 2];
  const std::uint32_t end = slot.level_end.back();
  for (std::uint32_t i = begin; i < end; ++i) {
    for (const std::uint32_t v : graph_->neighbors(slot.nodes[i])) {
      if (slot.marks[v] == kUnreached) {
        slot.nodes.push_back(v);
        slot.marks[v] = static_cast<std::uint16_t>(depth);
      }
    }
  }
  if (slot.nodes.size() == end) {
    slot.complete = true;  // the graph is exhausted
  } else {
    slot.level_end.push_back(static_cast<std::uint32_t>(slot.nodes.size()));
  }
  update_budget_depth(slot);
}

void DistanceOracle::update_budget_depth(Scratch& slot) const {
  // B*(u) ends at the first level whose *predicted* successor cannot fit:
  // the next level's size is bounded by the current level's degree sum
  // (capped at n — degree sums overcount already-visited neighbors), so
  // the ball is truncated *before* any level that could push it past the
  // budget. |B*(u)| <= min(budget, n) always — heavy-tailed graphs never
  // materialize a 10x-overshoot hub level on the distance path — and the
  // horizon stays a pure function of the graph and the budget. A row
  // grows only while its horizon is unknown, so every shallower level
  // passed this check when it was stored: only the newest one is checked.
  const std::size_t last = slot.level_end.size() - 1;
  std::size_t degree_sum = 0;
  for (const NodeId v : level_of(slot, last)) degree_sum += graph_->degree(v);
  const std::size_t predicted =
      std::min<std::size_t>(slot.level_end[last] + degree_sum, n_);
  if (slot.complete || predicted > options_.distance_ball_budget) {
    slot.budget_depth = static_cast<std::uint16_t>(last);
    slot.budget_depth_known = true;
  }
}

void DistanceOracle::ensure_depth(Scratch& slot, Hop d) const {
  // The stored row never grows past the budget horizon: once the budget
  // depth is known, deeper shell/ball queries stream from the frontier
  // (stream_beyond) instead of storing levels.
  while (!slot.complete && !slot.budget_depth_known &&
         slot.level_end.size() <= d) {
    extend_row(slot);
  }
}

void DistanceOracle::stream_beyond(
    Scratch& slot, Hop target,
    FunctionRef<bool(Hop, std::span<NodeId>)> fn) const {
  if (slot.complete) return;
  // Streamed levels go one after another into the reused buffer, each
  // grown from the one before it by index (push_back may reallocate).
  // BFS level sets do not depend on intra-level order. As in extend_row a
  // node is stored before it is marked, so the buffer lists every node the
  // stream marked, and the marks hold the row alone again once the stream
  // ends — however it ends.
  std::vector<NodeId>& levels = slot.stream;
  levels.clear();
  struct Unmark {
    Scratch& slot;
    ~Unmark() {
      for (const NodeId v : slot.stream) slot.marks[v] = kUnreached;
    }
  } unmark{slot};
  auto depth = static_cast<Hop>(slot.level_end.size());
  const auto expand = [&](NodeId u) {
    for (const std::uint32_t v : graph_->neighbors(u)) {
      if (slot.marks[v] == kUnreached) {
        levels.push_back(v);
        slot.marks[v] = static_cast<std::uint16_t>(depth);
      }
    }
  };
  if (depth > kMaxStorableHops) throw_depth_overflow(slot.origin);
  for (const NodeId u : level_of(slot, depth - 1)) expand(u);
  std::size_t begin = 0;
  while (levels.size() > begin) {
    const std::size_t end = levels.size();
    if (!fn(depth, std::span(levels).subspan(begin, end - begin)) ||
        depth >= target) {
      break;
    }
    if (++depth > kMaxStorableHops) throw_depth_overflow(slot.origin);
    for (std::size_t i = begin; i < end; ++i) expand(levels[i]);
    begin = end;
  }
}

void DistanceOracle::ensure_budget_depth(Scratch& slot) const {
  while (!slot.budget_depth_known) extend_row(slot);
}

Hop DistanceOracle::budget_ball_depth(NodeId u) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) return diameter_;
  const Lease lease(*this, u);
  Scratch& slot = *lease;
  ensure_budget_depth(slot);
  return slot.budget_depth;
}

std::optional<Hop> DistanceOracle::budget_ball_lookup(Scratch& slot,
                                                      NodeId v) const {
  // Lazy budget-ball growth: stop as soon as `v` turns up. A node found
  // before the budget is met is inside B*(u) by definition, so the answer
  // is identical to the eager build — just without paying for the full
  // budget ball when `v` is close.
  while (true) {
    const std::uint16_t d = slot.marks[v];
    if (d != kUnreached) return static_cast<Hop>(d);
    if (slot.budget_depth_known) return std::nullopt;
    extend_row(slot);
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
    std::optional<Lease> lease;  // taken at the first id other than `u`
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const NodeId v = ids[i];
      PROXCACHE_REQUIRE(v < n_, "node id out of range");
      if (v == u) {
        out[i] = 0;
        continue;
      }
      if (!lease) lease.emplace(*this, u);
      Scratch& slot = **lease;
      if (const auto exact = budget_ball_lookup(slot, v)) {
        ++slot.stats.exact_answers;
        out[i] = *exact;
      } else {
        ++slot.stats.landmark_answers;
        out[i] = kUnboundedRadius;
        bounded = true;
      }
    }
  }
  if (!bounded) return;
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
  const Lease lease(*this, u);
  return budget_ball_lookup(*lease, v);
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
  const Lease lease(*this, u);
  Scratch& slot = *lease;
  ensure_depth(slot, d);
  // Shells come out in increasing node-id order, the dense row scan's,
  // sorted in the stream buffer: a stored level as a copy (the row keeps
  // its discovery order), a streamed one where it was streamed.
  std::span<NodeId> shell;
  if (d < slot.level_end.size()) {
    const auto level = level_of(slot, d);
    slot.stream.assign(level.begin(), level.end());
    shell = slot.stream;
  } else {
    stream_beyond(slot, d, [&](Hop depth, std::span<NodeId> level) {
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
    // dense regime holds no slot, so the hits live on this call.
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
  const Lease lease(*this, u);
  Scratch& slot = *lease;
  // Stored levels grow exactly as a `visit_shell` per depth grows them;
  // past the horizon, one stream carries the walk to its end.
  for (Hop d = 0; d <= max_d; ++d) {
    ensure_depth(slot, d);
    if (d >= slot.level_end.size()) {
      stream_beyond(slot, max_d, [&](Hop depth, std::span<NodeId> level) {
        return fn(depth, level_hits(slot, level, depth, candidates));
      });
      return;
    }
    if (!fn(d, level_hits(slot, level_of(slot, d), d, candidates))) return;
  }
}

std::span<const NodeId> DistanceOracle::level_hits(
    Scratch& slot, std::span<const NodeId> level, Hop d,
    const ShellCandidates& candidates) const {
  std::vector<NodeId>& hits = slot.hits;
  hits.clear();
  if (level.size() < candidates.sorted.size()) {
    // The level is in discovery order: filter it, then order the hits.
    for (const NodeId v : level) {
      if (candidates.contains(v)) hits.push_back(v);
    }
    std::sort(hits.begin(), hits.end());
  } else {
    // The marks know every depth through d: the sorted candidates at
    // depth d are the level's hits, already in id order.
    for (const NodeId v : candidates.sorted) {
      if (slot.marks[v] == d) hits.push_back(v);
    }
  }
  return hits;
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
  const Lease lease(*this, u);
  Scratch& slot = *lease;
  ensure_depth(slot, d);
  if (d < slot.level_end.size()) return level_of(slot, d).size();
  std::size_t count = 0;
  stream_beyond(slot, d, [&](Hop depth, std::span<NodeId> level) {
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
  const Lease lease(*this, u);
  Scratch& slot = *lease;
  ensure_depth(slot, r);
  const std::size_t top = std::min<std::size_t>(r, slot.level_end.size() - 1);
  std::size_t count = slot.level_end[top];
  if (r >= slot.level_end.size()) {
    stream_beyond(slot, r, [&](Hop depth, std::span<NodeId> level) {
      (void)depth;
      count += level.size();
      return true;
    });
  }
  return count;
}

std::size_t DistanceOracle::cached_entries() const {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return cached_entries_;
}

DistanceOracle::Stats DistanceOracle::stats() const {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return stats_;
}

}  // namespace proxcache
