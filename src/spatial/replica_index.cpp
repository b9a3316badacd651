#include "spatial/replica_index.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace proxcache {

ReplicaIndex::ReplicaIndex(const Topology& topology,
                           const Placement& placement)
    : ReplicaIndex(topology, placement, Plan{}) {}

ReplicaIndex::ReplicaIndex(const Topology& topology,
                           const Placement& placement, Plan plan)
    : topology_(&topology),
      lattice_(topology.as_lattice()),
      placement_(&placement) {
  PROXCACHE_REQUIRE(topology.size() == placement.num_nodes(),
                    "topology and placement disagree on node count");
  // Bucket grids and packed coordinates are lattice coordinate structures;
  // other topologies answer every query through their distance oracle.
  if (lattice_ == nullptr) return;
  PROXCACHE_REQUIRE(lattice_->side() <= kMaxPackedSide,
                    "lattice side exceeds the packed coordinate range");
  const std::size_t files = placement.num_files();
  if (plan.bucket_threshold != 0) {
    grids_ = BucketGrids(
        *lattice_, files,
        [&placement](std::size_t j) {
          return placement.replicas(static_cast<FileId>(j));
        },
        plan.bucket_threshold);
  }
  // Coordinates for the files whose lists the run's passes scan: every
  // file without a grid, or only those nearest() scans or replays.
  const std::size_t n = topology.size();
  const auto keeps_coordinates = [&](FileId j, std::size_t count) {
    if (plan.coordinates == Coordinates::None || grids_.has_grid(j)) {
      return false;
    }
    return plan.coordinates == Coordinates::WithoutGrid ||
           count * count <= kReplayDensity * n;
  };
  coord_offsets_.assign(files + 1, 0);
  for (FileId j = 0; j < files; ++j) {
    const std::size_t count = placement.replica_count(j);
    coord_offsets_[j + 1] =
        coord_offsets_[j] +
        static_cast<std::uint32_t>(keeps_coordinates(j, count) ? count : 0);
  }
  coords_.resize(coord_offsets_[files]);
  const Divider by_side(static_cast<std::uint32_t>(lattice_->side()));
  for (FileId j = 0; j < files; ++j) {
    const auto list = placement.replicas(j);
    const auto coords = std::span(coords_).subspan(
        coord_offsets_[j], coord_offsets_[j + 1] - coord_offsets_[j]);
    for (std::size_t i = 0; i < coords.size(); ++i) {
      coords[i] = pack_coord(by_side.coord(list[i]));
    }
  }
}

NearestResult ReplicaIndex::nearest_by_scan(NodeId u, FileId j,
                                            Rng& rng) const {
  if (placement_->replica_count(j) == 0) return NearestResult{};

  // Minimum distance, ties reservoir-sampled; the reservoir restarts at
  // every new minimum.
  Hop best = topology_->diameter() + 1;
  ReservoirOne reservoir(rng);
  for_each_distance(u, j, [&](NodeId v, Hop d) {
    if (d < best) {
      best = d;
      reservoir = ReservoirOne(rng);
      reservoir.offer(v);
    } else if (d == best) {
      reservoir.offer(v);
    }
  });
  NearestResult result;
  result.server = *reservoir.value();
  result.distance = best;
  result.ties = static_cast<std::uint32_t>(reservoir.count());
  return result;
}

NearestResult ReplicaIndex::nearest_by_shells(NodeId u, FileId j,
                                              Rng& rng) const {
  NearestResult result;
  const Hop diameter = topology_->diameter();
  for (Hop d = 0; d <= diameter; ++d) {
    ReservoirOne reservoir(rng);
    for_each_at_distance(*topology_, u, d, [&](NodeId v) {
      if (placement_->caches(v, j)) reservoir.offer(v);
    });
    if (reservoir.count() > 0) {
      result.server = *reservoir.value();
      result.distance = d;
      result.ties = static_cast<std::uint32_t>(reservoir.count());
      return result;
    }
  }
  return result;  // no replica anywhere
}

/// The walk makes no draw before shell d*, so a pass that finds d* and the
/// replicas on it needs no Rng. `count` counts every tie; `members` keeps
/// the first kReplayTies of them.
struct ReplicaIndex::ShellTies {
  Hop best = kUnboundedRadius;
  std::size_t count = 0;
  NodeId members[kReplayTies] = {};

  void offer(NodeId v, Hop d) {
    if (d > best) return;
    if (d < best) {
      best = d;
      count = 0;
    }
    if (count < kReplayTies) members[count] = v;
    ++count;
  }
};

NearestResult ReplicaIndex::replay_walk(NodeId u, FileId j,
                                        const ShellTies& ties,
                                        Rng& rng) const {
  if (ties.count > kReplayTies) return nearest_by_shells(u, j, rng);

  // The walk's draws: one offer per member of shell d*, in enumeration
  // order. A single member needs no order.
  ReservoirOne reservoir(rng);
  if (ties.count == 1) {
    reservoir.offer(ties.members[0]);
  } else {
    const std::span<const NodeId> members(ties.members, ties.count);
    for_each_at_distance(*lattice_, u, ties.best, [&](NodeId v) {
      if (std::find(members.begin(), members.end(), v) != members.end()) {
        reservoir.offer(v);
      }
    });
  }
  PROXCACHE_CHECK(reservoir.count() == ties.count,
                  "shell replay missed a tie of its pass");
  NearestResult result;
  result.server = *reservoir.value();
  result.distance = ties.best;
  result.ties = static_cast<std::uint32_t>(ties.count);
  return result;
}

NearestResult ReplicaIndex::nearest_by_replay(NodeId u, FileId j,
                                              Rng& rng) const {
  if (lattice_ == nullptr) return nearest_by_shells(u, j, rng);
  // An empty list: the walk draws nothing either.
  if (placement_->replica_count(j) == 0) return NearestResult{};

  ShellTies ties;
  for_each_distance(u, j, [&ties](NodeId v, Hop d) { ties.offer(v, d); });
  return replay_walk(u, j, ties, rng);
}

NearestResult ReplicaIndex::nearest_by_rows(NodeId u, FileId j,
                                            Rng& rng) const {
  if (lattice_ == nullptr) return nearest_by_shells(u, j, rng);
  const auto list = placement_->replicas(j);
  if (list.empty()) return NearestResult{};

  // Ids are row-major (y·side + x) and the list is sorted, so row y's
  // replicas are the run [y·side, (y+1)·side) of it. A replica in a row at
  // row distance k is at least k away, so once k passes the best distance
  // no later row can hold a tie. Within a row a replica's distance is its
  // column distance plus k: no coordinate division.
  ShellTies ties;
  const Point origin = lattice_->coord(u);
  const PackedDistance distance(*lattice_, origin);
  const std::int32_t side = lattice_->side();
  const auto scan_row = [&](std::int32_t y, Hop k) {
    const auto row = static_cast<NodeId>(y) * static_cast<NodeId>(side);
    const auto first = std::lower_bound(list.begin(), list.end(), row);
    const auto last = std::lower_bound(
        first, list.end(), row + static_cast<NodeId>(side));
    for (auto it = first; it != last; ++it) {
      const auto x = static_cast<std::int32_t>(*it - row);
      ties.offer(*it, static_cast<Hop>(distance.axis(origin.x, x)) + k);
    }
  };
  // The rows at row distance k are y0 ± k: wrapped on the torus, where the
  // two coincide at k = 0 and k = side/2; clipped to [0, side) on the grid.
  const bool torus = lattice_->wrap() == Wrap::Torus;
  const std::int32_t y0 = origin.y;
  const std::int32_t last_k = torus ? side / 2 : std::max(y0, side - 1 - y0);
  for (std::int32_t k = 0; k <= last_k && static_cast<Hop>(k) <= ties.best;
       ++k) {
    std::int32_t up = y0 + k;
    std::int32_t down = y0 - k;
    if (torus) {
      if (up >= side) up -= side;
      if (down < 0) down += side;
    }
    if (up < side) scan_row(up, static_cast<Hop>(k));
    if (down != up && down >= 0) scan_row(down, static_cast<Hop>(k));
  }
  return replay_walk(u, j, ties, rng);
}

NearestResult ReplicaIndex::nearest(NodeId u, FileId j, Rng& rng) const {
  const std::size_t replicas = placement_->replica_count(j);
  if (replicas == 0) return NearestResult{};
  // List scan costs ~|S_j| distance evaluations; the shell walk visits
  // ~n/|S_j| nodes before the first hit. Crossover at |S_j|² ≈ n — but
  // only where shells enumerate directly; on scan-based topologies every
  // shell is itself O(n), so the list scan always wins there. Past the
  // crossover the lattice replays the walk's draws: from a list scan while
  // that scan is still the cheaper pass (kReplayDensity), then from the
  // rows around the origin while the walk still has many nodes to visit
  // (kRowReplaySpacing).
  const std::size_t n = topology_->size();
  const std::size_t density = replicas * replicas;
  if (density <= n || !topology_->directly_enumerates_shells()) {
    return nearest_by_scan(u, j, rng);
  }
  if (lattice_ != nullptr) {
    if (density <= kReplayDensity * n) return nearest_by_replay(u, j, rng);
    if (replicas * kRowReplaySpacing <= n) return nearest_by_rows(u, j, rng);
  }
  return nearest_by_shells(u, j, rng);
}

std::size_t ReplicaIndex::count_replicas_within(NodeId u, FileId j,
                                                Hop r) const {
  std::size_t count = 0;
  for_each_replica_within(u, j, r, [&](NodeId, Hop) { ++count; });
  return count;
}

}  // namespace proxcache
