#pragma once
/// \file replica_index.hpp
/// Spatial queries over a placement: nearest replica of a file (with exact
/// uniform tie breaking) and radius-filtered replica streams. This is the
/// query layer all allocation strategies are built on, and it works over
/// any `Topology` (topology/topology.hpp).
///
/// Four paths answer nearest-replica queries, all exact:
///
///  * **replica-list scan** — O(|S_j|): walk the file's replica list,
///    tracking the minimum distance (reservoir-sampled among ties, the
///    reservoir restarting at every new minimum);
///  * **expanding-shell walk** — O(|B_d*|·log M): walk shells of increasing
///    distance around the requester until the first shell d* containing a
///    replica, testing every node with `Placement::caches` (a binary
///    search), and finish that shell for ties;
///  * **list replay** (lattices only) — O(|S_j|): the walk's exact draws
///    from one list scan. The walk draws only in shell d*: one
///    `ReservoirOne::offer` per replica there, in `for_each_at_distance`
///    order. A draw-free list scan finds d* and its tie set; the replay then
///    offers a single tie directly, or walks shell d* alone and offers the
///    tie-set members in enumeration order. Same server, distance, tie count
///    and Rng state as the walk. A tie set larger than the scan's stack
///    buffer falls back to the walk;
///  * **row replay** (lattices only) — O(d*·log|S_j| + replicas in the
///    rows within d*): the same replay with a cheaper draw-free pass. Ids
///    are row-major and the replica list is sorted, so the replicas of one
///    lattice row are one contiguous run of it; the pass scans the rows at
///    row distance 0, 1, 2, … from the origin and stops once the row
///    distance exceeds the best distance found.
///
/// `nearest()` picks by density. `|S_j|² <= n`: the list scan (its draws
/// differ from the walk's, and the golden masters lock that choice). Above
/// that, on lattices, the list replay up to `|S_j|² <= kReplayDensity·n`,
/// then the row replay while the walk would visit many nodes before its
/// first hit (`|S_j| <= n / kRowReplaySpacing`); denser files walk.
/// Topologies without direct shell enumeration always scan. Tests
/// cross-validate the paths, both replays against the walk draw for draw.
/// Radius streams use the replica list or a bucket grid (spatial/
/// bucket_grid.hpp; built for files with large `|S_j|` — lattice
/// topologies only, the grid is a coordinate structure).
///
/// Every list pass — the list scan, the list replay's draw-free pass, the
/// radius and unbounded streams — runs on one chunked pass,
/// `for_each_distance_chunk`, which hands the caller 64 replicas and their
/// distances at a time, in list order. On lattices the index keeps packed
/// 16-bit (x, y) coordinates (spatial/packed_coord.hpp) in one flat array,
/// reached through per-file offsets, for the files its `Plan` names: every
/// file without a bucket grid when the run streams replica lists
/// (`prox-weighted`, `least-loaded`, `two-choice` below the diameter, and
/// the default plan), only those with `|S_j|² <= kReplayDensity·n` and no
/// grid — the files `nearest()` answers by the list scan or the list
/// replay — when it only asks `nearest()`, and none when it only samples
/// the lists. A file with coordinates gets a chunk's distances from one
/// branch-free, vectorized pass, with no division per replica; any other
/// file through `Lattice::distance_from` (one coordinate division per
/// replica) or the topology. Either way every draw, tie and candidate
/// order is that of a plain scan. The bucket grids store packed
/// coordinates too, all files' grids in one flat CSR. The row replay knows
/// each row y and its row distance k, so a replica's distance is
/// `axis(x0, v − y·side) + k`.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "catalog/placement.hpp"
#include "random/rng.hpp"
#include "random/sampling.hpp"
#include "spatial/bucket_grid.hpp"
#include "spatial/packed_coord.hpp"
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

/// Smallest distance from `u` to a node of `nodes` (`kUnboundedRadius` when
/// empty), through the lattice kernel on lattices. A minimum does not
/// depend on the visiting order, so either kernel gives the same answer.
inline Hop min_distance_from(const Topology& topology, NodeId u,
                             std::span<const NodeId> nodes) {
  const auto min_over = [nodes](const auto& distance) {
    Hop best = kUnboundedRadius;
    for (const NodeId v : nodes) best = std::min(best, distance(v));
    return best;
  };
  if (const Lattice* lattice = topology.as_lattice()) {
    return min_over(distances_from(*lattice, u));
  }
  return min_over(distances_from(topology, u));
}

}  // namespace detail

/// Spatial query index bound to one (topology, placement) pair. Holds
/// references; the topology and placement must outlive the index.
class ReplicaIndex {
 public:
  /// Replica count from which a lattice file gets a bucket grid, unless
  /// the run asks for none.
  static constexpr std::size_t kBucketThreshold = 512;

  /// Which lattice files keep packed coordinates.
  enum class Coordinates : std::uint8_t {
    None,         ///< none (the run only samples replica lists)
    InBand,       ///< `|S_j|² <= kReplayDensity·n` and no bucket grid
    WithoutGrid,  ///< every file without a bucket grid
  };

  /// What the index builds beside the replica lists; lattices only, other
  /// topologies answer every query through their distance oracle. The
  /// default serves every pass. `index_plan` (strategy/registry.hpp)
  /// derives a run's plan from the passes its strategy declares.
  struct Plan {
    /// Replica count from which a file gets a bucket grid for radius
    /// queries (0: none).
    std::size_t bucket_threshold = kBucketThreshold;
    Coordinates coordinates = Coordinates::WithoutGrid;
  };

  /// Build the index with the default plan.
  ReplicaIndex(const Topology& topology, const Placement& placement);

  /// Build the index with what `plan` asks for.
  ReplicaIndex(const Topology& topology, const Placement& placement,
               Plan plan);

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

  /// The same replay, found from the rows nearest the origin's row instead
  /// of the whole list. Equal to `nearest_by_shells` in the same way.
  NearestResult nearest_by_rows(NodeId u, FileId j, Rng& rng) const;

  /// `nearest()` takes the list replay for lattice files with
  /// `n < |S_j|² <= kReplayDensity·n`. Measured per query on a 4-core Xeon
  /// (tori of side 45, 100 and 150, M = 10 and 100, Zipf(0.8) placements,
  /// uniform origins): at |S_j|² ∈ (2n, 3n] the list replay is 1.2–1.6×
  /// faster than the row replay; the two cross at |S_j|² ≈ 4–6n, and past
  /// 6n the rows won 4 of 5 configurations.
  static constexpr std::size_t kReplayDensity = 6;

  /// Past the list replay's band, `nearest()` takes the row replay for
  /// lattice files with `|S_j| <= n / kRowReplaySpacing` (the walk expects
  /// at least that many nodes before its first hit) and walks denser ones.
  /// Measured per query with the row pass division-free (4-core Xeon, tori
  /// of side 45, 100 and 150, K = 2000, Zipf(0.8) placements, uniform
  /// origins): the rows overtake the walk at n/|S_j| ≈ 4–5, 5–6 and 6–8
  /// with M = 100, and at ≈ 8, 12–14 and 14–16 with M = 10, since each
  /// `caches` probe is cheaper at small M and each row longer at large
  /// side. 8 bounds the worst case on both sides: at side 150 with M = 10,
  /// files with n/|S_j| in [8, 14) take rows at up to ~1.5× the walk's
  /// cost, and M = 100 files in [4, 8) walk at up to ~1.6× the rows'; 16
  /// would leave M = 100 files at n/|S_j| ≈ 15 walking at 1.7–3.2× the
  /// rows' cost. At n/|S_j| ≈ 20, as on paper-sweep's M = 100 tori, the
  /// rows take 0.6–0.9 µs against the walk's 1.6–2.0 µs. The hottest files
  /// of a Zipf catalog (n/|S_j| ≈ 2) walk, and stop after 0–1 hops there.
  static constexpr std::size_t kRowReplaySpacing = 8;

  /// Largest tie set the replays hold in their stack buffer (the index is
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
    if (grids_.has_grid(j)) {
      grids_.for_each_within(j, u, r, std::forward<Fn>(fn));
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

  /// Replicas per chunk of `for_each_distance_chunk`.
  static constexpr std::size_t kDistanceChunk = 64;

  /// Invoke `fn(ids, distances)` over the replica list of `j` in list
  /// order, `kDistanceChunk` replicas at a time (the last chunk shorter):
  /// `ids` is the next run of the list and `distances[i]` the hop distance
  /// from `u` to `ids[i]`; both spans end with the call. Where the file has
  /// packed coordinates one vectorized pass computes a chunk's distances.
  /// Elsewhere each comes from the lattice kernel (devirtualized — Lattice
  /// is final) or the topology, queried in list order, so a sparse oracle
  /// sees the queries of a plain scan.
  template <typename Fn>
  void for_each_distance_chunk(NodeId u, FileId j, Fn&& fn) const {
    const auto list = placement_->replicas(j);
    const auto per_replica = [&](const auto& distance) {
      for_each_chunk(
          list,
          [&](std::size_t base, std::span<Hop> out) {
            for (std::size_t i = 0; i < out.size(); ++i) {
              out[i] = distance(list[base + i]);
            }
          },
          fn);
    };
    if (lattice_ == nullptr) {
      per_replica(detail::distances_from(*topology_, u));
      return;
    }
    const auto coords = coords_of(j);
    if (coords.size() != list.size()) {
      per_replica(detail::distances_from(*lattice_, u));
      return;
    }
    const PackedDistance distance(*lattice_, lattice_->coord(u));
    for_each_chunk(
        list,
        [&](std::size_t base, std::span<Hop> out) {
          distance.fill(coords.subspan(base, out.size()), out);
        },
        fn);
  }

  /// True iff file `j` has a bucket grid (exposed for tests/benches).
  [[nodiscard]] bool has_bucket_grid(FileId j) const {
    return grids_.has_grid(j);
  }

  /// True iff file `j` keeps packed coordinates (exposed for tests).
  [[nodiscard]] bool has_coordinates(FileId j) const {
    return lattice_ != nullptr && !coords_of(j).empty();
  }

 private:
  /// A replay's draw-free pass: the least distance seen and its tie set.
  struct ShellTies;

  /// Both replays' draws from their pass: the walk's offers in shell d*,
  /// or the walk itself when the tie set overflowed.
  NearestResult replay_walk(NodeId u, FileId j, const ShellTies& ties,
                            Rng& rng) const;

  /// The loop of `for_each_distance_chunk`: `fill(base, out)` writes the
  /// distances of `list[base, base + out.size())` to `out`.
  template <typename Fill, typename Fn>
  static void for_each_chunk(std::span<const NodeId> list, const Fill& fill,
                             Fn& fn) {
    Hop distances[kDistanceChunk] = {};
    for (std::size_t base = 0; base < list.size(); base += kDistanceChunk) {
      const std::size_t len = std::min(kDistanceChunk, list.size() - base);
      const std::span<Hop> out(distances, len);
      fill(base, out);
      fn(list.subspan(base, len), std::span<const Hop>(out));
    }
  }

  /// Invoke `fn(v, d)` for every replica `v` of `j` in list order, with
  /// `d` its distance from `u`: the chunked pass, one replica at a time.
  template <typename Fn>
  void for_each_distance(NodeId u, FileId j, Fn&& fn) const {
    for_each_distance_chunk(u, j,
                            [&fn](std::span<const NodeId> ids,
                                  std::span<const Hop> distances) {
                              for (std::size_t i = 0; i < ids.size(); ++i) {
                                fn(ids[i], distances[i]);
                              }
                            });
  }

  /// The replica-list stream: every replica within `r` of `u`
  /// (`r = kUnboundedRadius` admits every replica), in list order.
  template <typename Fn>
  void scan_replicas(NodeId u, FileId j, Hop r, Fn&& fn) const {
    for_each_distance(u, j, [&](NodeId v, Hop d) {
      if (r == kUnboundedRadius || d <= r) fn(v, d);
    });
  }

  /// File `j`'s packed coordinates; empty when it has none.
  [[nodiscard]] std::span<const PackedCoord> coords_of(FileId j) const {
    return std::span(coords_).subspan(
        coord_offsets_[j], coord_offsets_[j + 1] - coord_offsets_[j]);
  }

  const Topology* topology_;
  const Lattice* lattice_;  ///< `topology_->as_lattice()`, cached
  const Placement* placement_;
  BucketGrids grids_;
  std::vector<std::uint32_t> coord_offsets_;  ///< K + 1 on lattices
  std::vector<PackedCoord> coords_;  ///< the plan's files, file by file
};

}  // namespace proxcache
