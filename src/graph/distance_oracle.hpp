#pragma once
/// \file distance_oracle.hpp
/// Scalable hop-distance oracle over a connected CompactGraph — the seam
/// that lets graph-backed topologies reach n = 10⁶–10⁷ nodes.
///
/// Two regimes, selected by `Options::dense_threshold`:
///
///  * **dense / exact** (`n <= dense_threshold`): the historical all-pairs
///    BFS `uint16` matrix. O(n²) memory, O(1) queries, exact everywhere.
///    Every pre-existing golden master runs in this regime bit-identically.
///  * **sparse / scalable** (`n > dense_threshold`): memory proportional to
///    what queries actually visit —
///      - *on-demand truncated BFS rows*: the first query from a source `u`
///        grows a BFS ball around `u`, level by level, only as deep as the
///        query needs. Rows live in an LRU cache bounded by a total
///        node-entry budget, so resident memory tracks the recently-touched
///        balls, not n².
///      - *landmark (pivot) distances*: `num_landmarks` sources chosen by
///        farthest-point sampling each store one full BFS row (k·n uint16).
///        A far-pair query answers with the classic upper bound
///        `min_L d(u,L) + d(L,v)` — never below the true distance.
///
/// Exactness contract in the sparse regime (all history-independent — the
/// answer never depends on what was queried before, on cache eviction, or
/// on thread interleaving):
///
///  * `visit_shell`, `walk_shells`, `shell_size`, `ball_size`: always
///    exact. The *stored* row never grows past the budget horizon; deeper
///    levels are streamed on the fly from the truncated frontier through
///    the shared mark scratch, so a diameter-deep ball walk costs BFS time
///    but no resident row memory beyond the budget ball.
///  * `distance(u, v)`: exact iff `v` lies inside the *budget ball* B*(u) —
///    the BFS ball truncated before the first level whose predicted size
///    (current ball + the frontier's degree sum, capped at n) exceeds
///    `distance_ball_budget` (a pure function of the graph and the budget,
///    and never more than the budget itself — hub levels are predicted,
///    not materialized). Outside B*(u) the landmark upper bound is
///    returned, even when a deeper cached row happens to know the truth.
///  * `diameter()`: exact whenever the iFUB refinement converges within its
///    BFS budget (flagged by `diameter_is_exact()`); otherwise a safe upper
///    bound (`<= 2x` the true diameter). Never an underestimate — loops of
///    the form `for d <= diameter()` stay complete.
///
/// Thread safety: all queries are safe from multiple threads. Sparse-mode
/// queries serialize on one internal mutex (the row cache mutates); the
/// dense regime is lock-free. A `distances` batch and a `walk_shells` walk
/// each take the mutex once. Visitor callbacks run under that mutex and
/// must not re-enter the oracle.

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/compact_graph.hpp"
#include "util/function_ref.hpp"
#include "util/shell_candidates.hpp"
#include "util/types.hpp"

#include <mutex>
#include <optional>

namespace proxcache {

/// Shell/ball visitor (mirrors topology/topology.hpp's NodeVisitor without
/// depending on the topology layer).
using OracleNodeVisitor = FunctionRef<void(NodeId)>;

class DistanceOracle {
 public:
  struct Options {
    /// Node counts up to this build the exact all-pairs matrix; larger
    /// graphs switch to the scalable (truncated BFS + landmark) regime.
    std::size_t dense_threshold = 4096;
    /// Landmarks (full-BFS pivots) kept in the sparse regime.
    std::size_t num_landmarks = 16;
    /// Budget ball size for exact `distance` answers: the BFS from a source
    /// never starts a level whose predicted size (frontier degree sum,
    /// capped at n) would push the ball past this, so |B*(u)| <= budget.
    /// budget >= n keeps every answer exact.
    std::size_t distance_ball_budget = 4096;
    /// Total node entries across all cached rows; least-recently-used rows
    /// are evicted past it. Each entry is one 4-byte node id (a row still
    /// growing holds up to twice that), plus ~250 bytes per row.
    std::size_t cache_entry_budget = std::size_t{1} << 20;
    /// Extra eccentricity computations (full BFS each) the exact-diameter
    /// refinement (iFUB) may spend after the initial double sweep before
    /// settling for the certified upper bound.
    std::size_t diameter_bfs_budget = 192;
  };

  /// Query counters (sparse regime; zero in dense mode). Snapshot via
  /// `stats()`.
  struct Stats {
    std::uint64_t rows_built = 0;        ///< BFS rows created
    std::uint64_t rows_evicted = 0;      ///< rows dropped by the LRU budget
    std::uint64_t exact_answers = 0;     ///< distance() hits inside B*(u)
    std::uint64_t landmark_answers = 0;  ///< distance() landmark estimates
  };

  /// Builds the oracle. Throws std::invalid_argument when the graph is
  /// empty, disconnected, or has shortest paths longer than 65534 hops
  /// (the uint16 storage limit; the message names the offending source).
  DistanceOracle(const CompactGraph& graph, Options options);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool exact() const { return dense_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Hop distance: exact in dense mode or inside the budget ball, landmark
  /// upper bound otherwise.
  [[nodiscard]] Hop distance(NodeId u, NodeId v) const;

  /// `out[i] = distance(u, ids[i])` for every `i` (`out` as long as
  /// `ids`), with the same answers, counters and row-cache state as those
  /// calls made one at a time in order. Sparse mode takes the lock, finds
  /// the origin's row and binds the marks once for the whole batch, and
  /// reads the origin's landmark entries once for its landmark answers.
  void distances(NodeId u, std::span<const NodeId> ids,
                 std::span<Hop> out) const;

  /// Exact distance when this oracle can certify it (dense mode, or
  /// `v ∈ B*(u)`); nullopt when only the landmark estimate is available.
  [[nodiscard]] std::optional<Hop> certified_distance(NodeId u,
                                                      NodeId v) const;

  /// The landmark upper bound alone (sparse mode; tests use it to verify
  /// the bound against exact BFS). Requires `!exact()`.
  [[nodiscard]] Hop landmark_upper_bound(NodeId u, NodeId v) const;

  /// Depth of the budget ball B*(u) — the exactness horizon of `distance`
  /// from `u` (dense mode: the diameter). A pure function of the graph and
  /// the budget; radius queries use it to decide between a local ball walk
  /// (exact, <= budget nodes) and a replica-list scan.
  [[nodiscard]] Hop budget_ball_depth(NodeId u) const;

  [[nodiscard]] Hop diameter() const { return diameter_; }
  [[nodiscard]] bool diameter_is_exact() const { return diameter_exact_; }

  /// Exact shell enumeration in increasing node-id order (both regimes).
  /// Sparse mode sorts a copy of the level; rows keep discovery order.
  void visit_shell(NodeId u, Hop d, OracleNodeVisitor fn) const;

  /// The shells of `u` from depth 0 outward, filtered by `candidates`:
  /// `fn(d, hits)` with the candidates at distance exactly `d` in
  /// increasing id order (`visit_shell`'s), until `fn` returns false or
  /// `d` reaches `max_d`; the walk ends early once no node lies past `d`.
  /// Sparse mode holds the lock and finds the row once for the whole walk,
  /// grows the row as `visit_shell` would and streams each level past its
  /// horizon once, so answers, counters and resident entries match
  /// `visit_shell(u, 0), visit_shell(u, 1), …` filtered by the same
  /// candidates. Per level it reads the shorter side: a level shorter than
  /// `candidates.sorted` is filtered through `candidates.contains` and its
  /// hits sorted; otherwise the sorted list is scanned against the depth
  /// marks. `fn` runs under the oracle's mutex and must not re-enter the
  /// oracle; `hits` lives in the oracle's scratch until `fn` returns.
  void walk_shells(NodeId u, Hop max_d, const ShellCandidates& candidates,
                   ShellHitVisitor fn) const;

  [[nodiscard]] std::size_t shell_size(NodeId u, Hop d) const;
  [[nodiscard]] std::size_t ball_size(NodeId u, Hop r) const;

  [[nodiscard]] Stats stats() const;

  /// Total node entries resident across all cached rows (sparse regime;
  /// 0 in dense mode). Bounded by `rows × distance_ball_budget` — streamed
  /// shell levels never count — which the memory-model tests assert.
  [[nodiscard]] std::size_t cached_entries() const;

 private:
  /// One on-demand BFS ball. Levels are stored concatenated in `nodes`
  /// with `level_end[d]` marking the end of depth `d`, each in BFS
  /// discovery order; the last level is the frontier that the next level
  /// (stored, or streamed past the horizon) grows from. Nothing reorders a
  /// stored level: distance lookups never read the order, `visit_shell`
  /// sorts a copy, and `walk_shells` sorts only a level's hits.
  /// Membership/depth queries go through the shared flat mark array
  /// (`bind_marks`) — a per-row hash map would dominate the BFS.
  struct Row {
    std::vector<NodeId> nodes;
    std::vector<std::uint32_t> level_end;
    bool complete = false;  ///< ball == whole graph
    /// Last level of the *budget-truncated* BFS — the exactness horizon of
    /// `distance`. Set once, when a level's predicted successor no longer
    /// fits `distance_ball_budget` (or the graph is exhausted); see
    /// `update_budget_depth`.
    std::uint16_t budget_depth = 0;
    bool budget_depth_known = false;
  };

  [[nodiscard]] Hop dense_distance(NodeId u, NodeId v) const {
    return dense_dist_[static_cast<std::size_t>(u) * n_ + v];
  }

  /// `landmark_upper_bound` from the origin's k landmark entries.
  [[nodiscard]] Hop landmark_bound(const std::uint16_t* origin,
                                   NodeId v) const;

  // Sparse-regime internals; all require cache_mutex_ held.
  Row& row_for(NodeId u) const;
  /// The exactness step of `distance` and `certified_distance`: `v`'s
  /// depth when it lies in the budget ball of `row` (marks bound to it),
  /// growing the row only until `v` turns up or the horizon is known;
  /// nullopt outside the ball.
  std::optional<Hop> budget_ball_lookup(Row& row, NodeId source,
                                        NodeId v) const;
  void extend_row(Row& row, NodeId source) const;  ///< one more BFS level
  void update_budget_depth(Row& row) const;
  void ensure_depth(Row& row, NodeId source, Hop d) const;
  void ensure_budget_depth(Row& row, NodeId source) const;
  /// BFS levels past the stored horizon, streamed from the row's last
  /// level through the mark scratch into `stream_levels_`, without
  /// growing the stored row: calls `fn(depth, level)` for each level in
  /// (stored, target], in discovery order (`fn` may reorder it), until
  /// `fn` returns false. When `fn` runs, the marks hold every depth up to
  /// `depth` and nothing deeper. Invalidates the mark binding on return.
  void stream_beyond(const Row& row, NodeId source, Hop target,
                     FunctionRef<bool(Hop, std::span<NodeId>)> fn) const;
  /// The candidates on `level`, the nodes at depth `d` (marks bound
  /// through `d` when `level` is not shorter than `candidates.sorted`), in
  /// increasing id order, gathered in `hits_`.
  std::span<const NodeId> level_hits(std::span<const NodeId> level, Hop d,
                                     const ShellCandidates& candidates) const;
  void bind_marks(const Row& row, NodeId source) const;
  void evict_to_budget() const;

  void build_dense(const CompactGraph& graph);
  void build_sparse(const CompactGraph& graph);

  const CompactGraph* graph_ = nullptr;
  std::size_t n_ = 0;
  Options options_;
  bool dense_ = true;
  Hop diameter_ = 0;
  bool diameter_exact_ = true;

  // Dense regime: row-major n × n matrix.
  std::vector<std::uint16_t> dense_dist_;

  // Sparse regime: landmark tables (node-major n × k, so one pair query
  // touches two cache lines) + LRU row cache. Landmark-major during
  // construction; transposed at the end of build_sparse.
  std::vector<NodeId> landmarks_;
  std::vector<std::uint16_t> landmark_dist_;

  mutable std::mutex cache_mutex_;
  mutable std::list<NodeId> lru_;  ///< most recent first
  struct CacheSlot {
    std::unique_ptr<Row> row;
    std::list<NodeId>::iterator lru_pos;
  };
  mutable std::unordered_map<NodeId, CacheSlot> rows_;
  mutable std::size_t cached_entries_ = 0;
  mutable Stats stats_;

  // Shared O(n) depth-mark scratch, bound to one row at a time
  // (`mark_owner_`): O(1) depth lookups and BFS dedupe for the bound row,
  // rebound in O(ball) when a different source is queried. `mark_nodes_`
  // lists the currently marked ids so rebinding clears only the touched
  // entries, never all n.
  mutable std::vector<std::uint16_t> mark_depth_;
  mutable std::vector<NodeId> mark_nodes_;
  mutable NodeId mark_owner_ = kInvalidNode;
  /// `stream_beyond`'s levels, concatenated, or the copy of a stored
  /// level `visit_shell` sorts; reused across calls.
  mutable std::vector<NodeId> stream_levels_;
  /// `walk_shells`' hits of the current level; reused across calls.
  mutable std::vector<NodeId> hits_;
};

}  // namespace proxcache
