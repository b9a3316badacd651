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
///  * **sparse / scalable** (`n > dense_threshold`): memory O(n) per
///    concurrent caller, never n² —
///      - *on-demand truncated BFS rows*: a query from a source `u` grows a
///        BFS ball around `u`, level by level, only as deep as the query
///        needs. Each caller works in a scratch slot of its own that keeps
///        one row, its current origin's; a query from another origin
///        replaces it, reusing its buffers.
///      - *landmark (pivot) distances*: `num_landmarks` sources chosen by
///        farthest-point sampling each store one full BFS row (k·n uint16).
///        A far-pair query answers with the classic upper bound
///        `min_L d(u,L) + d(L,v)` — never below the true distance.
///
/// Exactness contract in the sparse regime (all history-independent — the
/// answer never depends on what was queried before, on which slot serves
/// it, or on thread interleaving):
///
///  * `visit_shell`, `walk_shells`, `shell_size`, `ball_size`: always
///    exact. The *stored* row never grows past the budget horizon; deeper
///    levels are streamed on the fly from the truncated frontier through
///    the slot's depth marks, so a diameter-deep ball walk costs BFS time
///    but no resident row memory beyond the budget ball.
///  * `distance(u, v)`: exact iff `v` lies inside the *budget ball* B*(u) —
///    the BFS ball truncated before the first level whose predicted size
///    (current ball + the frontier's degree sum, capped at n) exceeds
///    `distance_ball_budget` (a pure function of the graph and the budget,
///    and never more than the budget itself — hub levels are predicted,
///    not materialized). Outside B*(u) the landmark upper bound is
///    returned.
///  * `diameter()`: exact whenever the iFUB refinement converges within its
///    BFS budget (flagged by `diameter_is_exact()`); otherwise a safe upper
///    bound (`<= 2x` the true diameter). Never an underestimate — loops of
///    the form `for d <= diameter()` stay complete.
///
/// Thread safety: all queries are safe from multiple threads and run in
/// parallel. After construction nothing shared changes but the pool of
/// scratch slots and the counters. A sparse query leases a slot, under a
/// mutex held only while the slot is picked and when it is returned at
/// the query's end. The pool grows to the number of concurrent callers,
/// each slot O(n) depth marks plus at most one budget ball. The dense
/// regime takes no slot. A visitor callback runs while its query holds a slot; a query
/// made from inside it leases another one.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/compact_graph.hpp"
#include "util/function_ref.hpp"
#include "util/shell_candidates.hpp"
#include "util/types.hpp"

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
    /// Extra eccentricity computations (full BFS each) the exact-diameter
    /// refinement (iFUB) may spend after the initial double sweep before
    /// settling for the certified upper bound.
    std::size_t diameter_bfs_budget = 192;
  };

  /// Query counters (sparse regime; zero in dense mode), summed over the
  /// scratch slots as each query returns its slot. Snapshot via `stats()`.
  struct Stats {
    std::uint64_t rows_built = 0;        ///< BFS rows started
    std::uint64_t rows_evicted = 0;      ///< rows a slot dropped for a new origin
    std::uint64_t exact_answers = 0;     ///< distance() hits inside B*(u)
    std::uint64_t landmark_answers = 0;  ///< distance() landmark estimates
  };

  /// Builds the oracle. Throws std::invalid_argument when the graph is
  /// empty, disconnected, or has shortest paths longer than 65534 hops
  /// (the uint16 storage limit; the message names the offending source).
  DistanceOracle(const CompactGraph& graph, Options options);
  ~DistanceOracle();

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool exact() const { return dense_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Hop distance: exact in dense mode or inside the budget ball, landmark
  /// upper bound otherwise.
  [[nodiscard]] Hop distance(NodeId u, NodeId v) const;

  /// `out[i] = distance(u, ids[i])` for every `i` (`out` as long as
  /// `ids`), with the same answers, counters and resident row as those
  /// calls made one at a time in order. Sparse mode leases one slot for the
  /// whole batch (none when every id is `u`), and reads the origin's
  /// landmark entries once for its landmark answers.
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
  /// Sparse mode leases one slot and finds the row once for the whole walk,
  /// grows the row as `visit_shell` would and streams each level past its
  /// horizon once, so answers, counters and resident entries match
  /// `visit_shell(u, 0), visit_shell(u, 1), …` filtered by the same
  /// candidates. Per level it reads the shorter side: a level shorter than
  /// `candidates.sorted` is filtered through `candidates.contains` and its
  /// hits sorted; otherwise the sorted list is scanned against the depth
  /// marks. `hits` lives in the walk's scratch slot until `fn` returns.
  void walk_shells(NodeId u, Hop max_d, const ShellCandidates& candidates,
                   ShellHitVisitor fn) const;

  [[nodiscard]] std::size_t shell_size(NodeId u, Hop d) const;
  [[nodiscard]] std::size_t ball_size(NodeId u, Hop r) const;

  [[nodiscard]] Stats stats() const;

  /// Node entries resident in the slots' rows (sparse regime; 0 in dense
  /// mode), each slot counted as it was last returned. At most
  /// slots × max(1, `distance_ball_budget`) — streamed shell levels never
  /// count — which the memory-model tests assert.
  [[nodiscard]] std::size_t cached_entries() const;

 private:
  /// One caller's BFS state: the current origin's row, the depth marks of
  /// its nodes, the stream and hit buffers and the counters of the query
  /// holding it. Defined in distance_oracle.cpp.
  struct Scratch;
  /// Holds one slot for one query from one origin; see distance_oracle.cpp.
  class Lease;
  /// An idle slot with the origin and the thread a pick prefers.
  struct IdleSlot;

  [[nodiscard]] Hop dense_distance(NodeId u, NodeId v) const {
    return dense_dist_[static_cast<std::size_t>(u) * n_ + v];
  }

  /// `landmark_upper_bound` from the origin's k landmark entries.
  [[nodiscard]] Hop landmark_bound(const std::uint16_t* origin,
                                   NodeId v) const;

  // Sparse-regime internals, each on a slot the caller holds.
  /// Points the slot's row at `origin`: the origin alone, unless the slot
  /// already holds its row.
  void start_row(Scratch& slot, NodeId origin) const;
  /// The exactness step of `distance` and `certified_distance`: `v`'s
  /// depth when it lies in the budget ball, growing the row only until `v`
  /// turns up or the horizon is known; nullopt outside the ball.
  std::optional<Hop> budget_ball_lookup(Scratch& slot, NodeId v) const;
  void extend_row(Scratch& slot) const;  ///< one more BFS level
  void update_budget_depth(Scratch& slot) const;
  void ensure_depth(Scratch& slot, Hop d) const;
  void ensure_budget_depth(Scratch& slot) const;
  /// BFS levels past the stored horizon, streamed from the row's last
  /// level through the marks into the slot's stream buffer, without
  /// growing the stored row: calls `fn(depth, level)` for each level in
  /// (stored, target], in discovery order (`fn` may reorder it), until
  /// `fn` returns false. When `fn` runs, the marks hold every depth up to
  /// `depth` and nothing deeper; on return they hold the row's alone.
  void stream_beyond(Scratch& slot, Hop target,
                     FunctionRef<bool(Hop, std::span<NodeId>)> fn) const;
  /// The candidates on `level`, the nodes at depth `d` (marked through `d`),
  /// in increasing id order, gathered in the slot's hit buffer.
  std::span<const NodeId> level_hits(Scratch& slot,
                                     std::span<const NodeId> level, Hop d,
                                     const ShellCandidates& candidates) const;

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
  // touches two cache lines). Landmark-major during construction;
  // transposed at the end of build_sparse.
  std::vector<NodeId> landmarks_;
  std::vector<std::uint16_t> landmark_dist_;

  // The slot pool: the idle slots and what the returned ones reported.
  mutable std::mutex slots_mutex_;
  mutable std::vector<IdleSlot> free_slots_;
  mutable std::size_t slot_count_ = 0;  ///< slots ever made, idle or held
  mutable std::size_t cached_entries_ = 0;
  mutable Stats stats_;
};

}  // namespace proxcache
