#pragma once
/// \file replica_index.hpp
/// Spatial queries over a placement: nearest replica of a file (with exact
/// uniform tie breaking) and radius-filtered replica streams. This is the
/// query layer all allocation strategies are built on, and it works over
/// any `Topology` (topology/topology.hpp).
///
/// Three paths answer nearest-replica queries, all exact:
///
///  * **replica-list scan** — O(|S_j|): walk the file's replica list,
///    tracking the minimum distance (reservoir-sampled among ties, the
///    reservoir restarting at every new minimum);
///  * **expanding-shell walk** — O(|B_d*|·log M): walk shells of increasing
///    distance around the requester until the first shell d* containing a
///    replica, testing every node with `Placement::caches` (a binary
///    search), and finish that shell for ties;
///  * **shell replay** (lattices only) — O(|S_j|): the walk's exact draws
///    from one list scan. The walk draws only in shell d*: one
///    `ReservoirOne::offer` per replica there, in `for_each_at_distance`
///    order. A draw-free list scan finds d* and its tie set; the replay then
///    offers a single tie directly, or walks shell d* alone and offers the
///    tie-set members in enumeration order. Same server, distance, tie count
///    and Rng state as the walk. A tie set larger than the scan's stack
///    buffer falls back to the walk.
///
/// `nearest()` picks by density. `|S_j|² <= n`: the list scan (its draws
/// differ from the walk's, and the golden masters lock that choice). Above
/// that, on lattices, the replay up to `|S_j|² <= kReplayDensity·n`, where
/// its ~|S_j| distance evaluations still undercut the walk's ~n/|S_j|
/// binary searches; denser files walk. Topologies without direct shell
/// enumeration always scan. Tests cross-validate the paths, the replay
/// against the walk draw for draw. Radius streams use the replica list or a
/// per-file bucket grid (built for files with large `|S_j|` — lattice
/// topologies only; the grid is a coordinate structure).
///
/// On lattices every scan resolves the origin's coordinate once
/// (`Lattice::distance_from`), so each replica costs one coordinate
/// division.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "catalog/placement.hpp"
#include "random/rng.hpp"
#include "random/sampling.hpp"
#include "spatial/bucket_grid.hpp"
#include "topology/lattice.hpp"
#include "topology/shells.hpp"
#include "topology/topology.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Result of a nearest-replica query.
struct NearestResult {
  NodeId server = kInvalidNode;  ///< chosen replica (invalid if none exists)
  Hop distance = 0;              ///< hop distance to it
  std::uint32_t ties = 0;        ///< number of equidistant candidates
};

namespace detail {

/// The distance kernel of a scan from origin `u`: on a lattice the origin's
/// coordinate is resolved once, elsewhere it is the topology's `distance`.
inline auto distances_from(const Lattice& lattice, NodeId u) {
  return [&lattice, pu = lattice.coord(u)](NodeId v) {
    return lattice.distance_from(pu, v);
  };
}

inline auto distances_from(const Topology& topology, NodeId u) {
  return [&topology, u](NodeId v) { return topology.distance(u, v); };
}

}  // namespace detail

/// Spatial query index bound to one (topology, placement) pair. Holds
/// references; the topology and placement must outlive the index.
class ReplicaIndex {
 public:
  /// Build the index. On lattice topologies, files with at least
  /// `bucket_threshold` replicas get a bucket grid for radius queries
  /// (0 disables bucket grids; non-lattice topologies never build them).
  ReplicaIndex(const Topology& topology, const Placement& placement,
               std::size_t bucket_threshold = 512);

  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] const Placement& placement() const { return *placement_; }

  /// Nearest replica of `j` to `u`, uniform among ties; automatic algorithm
  /// selection. Returns an invalid server if the file has no replica.
  NearestResult nearest(NodeId u, FileId j, Rng& rng) const;

  /// Nearest replica via the replica-list scan (always exact).
  NearestResult nearest_by_scan(NodeId u, FileId j, Rng& rng) const;

  /// Nearest replica via the expanding-shell walk (always exact).
  NearestResult nearest_by_shells(NodeId u, FileId j, Rng& rng) const;

  /// The walk's result and draws from a list scan (lattices; elsewhere,
  /// and when the tie set overflows, the walk itself). Equal to
  /// `nearest_by_shells` in every field and in the Rng state it leaves.
  NearestResult nearest_by_replay(NodeId u, FileId j, Rng& rng) const;

  /// `nearest()` replays the walk for lattice files with
  /// `n < |S_j|² <= kReplayDensity·n` and walks denser ones. Measured per
  /// query on a 4-core Xeon (tori of side 45, 100 and 150, uniform
  /// placement and origins): the walk overtakes the replay at
  /// |S_j|² ≈ 6–8n with M = 2, ≈ 9–10n with M = 5 and past 11n with
  /// M = 10, where each `caches` probe costs more. At |S_j|² ∈ (5n, 6n]
  /// the replay still won every configuration, by 10% or more.
  static constexpr std::size_t kReplayDensity = 6;

  /// Largest tie set the replay holds in its stack buffer (the index is
  /// shared by concurrent propose lanes, so it owns no scratch).
  static constexpr std::size_t kReplayTies = 32;

  /// Invoke `fn(NodeId replica, Hop distance)` for every replica of `j`
  /// within distance `r` of `u` (including `u` itself if it caches `j`).
  /// Each replica visited exactly once, unspecified order.
  template <typename Fn>
  void for_each_replica_within(NodeId u, FileId j, Hop r, Fn&& fn) const {
    if (r >= topology_->diameter()) {
      // Unconstrained: the whole replica list qualifies.
      scan_replicas(u, j, kUnboundedRadius, std::forward<Fn>(fn));
      return;
    }
    if (buckets_[j]) {
      buckets_[j]->for_each_within(u, r, std::forward<Fn>(fn));
      return;
    }
    if (topology_->prefers_local_enumeration() &&
        r <= topology_->local_enumeration_horizon(u)) {
      // Sparse graph oracles, inside the budget ball: walk the ball around
      // the requester — exact distances, touches a bounded number of nodes
      // — instead of scanning the global replica list through
      // (approximate, per-source-BFS) far-pair distance queries. Beyond
      // the horizon the "ball" can be most of the graph (hyperbolic /
      // expander topologies have diameter O(log n)), so the list scan wins
      // again; there `d` may be a landmark upper bound, which only ever
      // *excludes* replicas whose true distance is within r, never admits
      // one beyond.
      for_each_in_ball(*topology_, u, r, [&](NodeId v, Hop d) {
        if (placement_->caches(v, j)) fn(v, d);
      });
      return;
    }
    scan_replicas(u, j, r, std::forward<Fn>(fn));
  }

  /// `|F_j(u)|` — number of replicas of `j` within distance `r` of `u`.
  [[nodiscard]] std::size_t count_replicas_within(NodeId u, FileId j,
                                                  Hop r) const;

  /// True iff file `j` has a bucket grid (exposed for tests/benches).
  [[nodiscard]] bool has_bucket_grid(FileId j) const {
    return buckets_[j] != nullptr;
  }

 private:
  /// One copy of the replica-list scan, instantiated for the concrete
  /// lattice type (devirtualized, origin resolved once — Lattice is final)
  /// and for the generic Topology. `r = kUnboundedRadius` admits every
  /// replica.
  template <typename TopologyT, typename Fn>
  static void scan_replicas_on(const TopologyT& topology,
                               std::span<const NodeId> list, NodeId u, Hop r,
                               Fn&& fn) {
    const auto distance = detail::distances_from(topology, u);
    for (const NodeId v : list) {
      const Hop d = distance(v);
      if (r == kUnboundedRadius || d <= r) fn(v, d);
    }
  }

  /// Dispatch the scan to the devirtualized lattice path when possible.
  template <typename Fn>
  void scan_replicas(NodeId u, FileId j, Hop r, Fn&& fn) const {
    const auto list = placement_->replicas(j);
    if (lattice_ != nullptr) {
      scan_replicas_on(*lattice_, list, u, r, std::forward<Fn>(fn));
    } else {
      scan_replicas_on(*topology_, list, u, r, std::forward<Fn>(fn));
    }
  }

  const Topology* topology_;
  const Lattice* lattice_;  ///< `topology_->as_lattice()`, cached
  const Placement* placement_;
  std::vector<std::unique_ptr<BucketGrid>> buckets_;
};

}  // namespace proxcache
