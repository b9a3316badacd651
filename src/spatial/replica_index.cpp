#include "spatial/replica_index.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

/// One copy of the nearest-scan logic (minimum distance, ties reservoir-
/// sampled), instantiated for the devirtualized lattice path and the
/// generic Topology path.
template <typename TopologyT>
NearestResult nearest_on(const TopologyT& topology,
                         std::span<const NodeId> list, NodeId u,
                         Hop sentinel, Rng& rng) {
  NearestResult result;
  Hop best = sentinel;
  ReservoirOne reservoir(rng);
  const auto distance = detail::distances_from(topology, u);
  for (const NodeId v : list) {
    const Hop d = distance(v);
    if (d < best) {
      best = d;
      reservoir = ReservoirOne(rng);  // restart ties at the new minimum
      reservoir.offer(v);
    } else if (d == best) {
      reservoir.offer(v);
    }
  }
  result.server = *reservoir.value();
  result.distance = best;
  result.ties = static_cast<std::uint32_t>(reservoir.count());
  return result;
}

}  // namespace

ReplicaIndex::ReplicaIndex(const Topology& topology,
                           const Placement& placement,
                           std::size_t bucket_threshold)
    : topology_(&topology),
      lattice_(topology.as_lattice()),
      placement_(&placement) {
  PROXCACHE_REQUIRE(topology.size() == placement.num_nodes(),
                    "topology and placement disagree on node count");
  buckets_.resize(placement.num_files());
  // Bucket grids are a lattice coordinate structure; other topologies
  // answer radius queries through the replica-list scan.
  if (bucket_threshold == 0 || lattice_ == nullptr) return;
  for (FileId j = 0; j < placement.num_files(); ++j) {
    const auto list = placement.replicas(j);
    if (list.size() >= bucket_threshold) {
      buckets_[j] = std::make_unique<BucketGrid>(*lattice_, list);
    }
  }
}

NearestResult ReplicaIndex::nearest_by_scan(NodeId u, FileId j,
                                            Rng& rng) const {
  const auto list = placement_->replicas(j);
  if (list.empty()) return NearestResult{};

  const Hop sentinel = topology_->diameter() + 1;
  if (lattice_ != nullptr) {
    return nearest_on(*lattice_, list, u, sentinel, rng);
  }
  return nearest_on(*topology_, list, u, sentinel, rng);
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

NearestResult ReplicaIndex::nearest_by_replay(NodeId u, FileId j,
                                              Rng& rng) const {
  if (lattice_ == nullptr) return nearest_by_shells(u, j, rng);
  const auto list = placement_->replicas(j);
  if (list.empty()) return NearestResult{};  // the walk draws nothing either

  // Draw-free pass: the first non-empty shell d* and its members. The walk
  // makes no draw before d*, so nothing here has to be replayed.
  NodeId ties[kReplayTies];
  std::size_t count = 0;
  Hop best = kUnboundedRadius;
  const auto distance = detail::distances_from(*lattice_, u);
  for (const NodeId v : list) {
    const Hop d = distance(v);
    if (d > best) continue;
    if (d < best) {
      best = d;
      count = 0;
    }
    if (count < kReplayTies) ties[count] = v;
    ++count;
  }
  if (count > kReplayTies) return nearest_by_shells(u, j, rng);

  // The walk's draws: one offer per member of shell d*, in enumeration
  // order. A single member needs no order.
  ReservoirOne reservoir(rng);
  if (count == 1) {
    reservoir.offer(ties[0]);
  } else {
    const std::span<const NodeId> members(ties, count);
    for_each_at_distance(*lattice_, u, best, [&](NodeId v) {
      if (std::find(members.begin(), members.end(), v) != members.end()) {
        reservoir.offer(v);
      }
    });
  }
  PROXCACHE_CHECK(reservoir.count() == count,
                  "shell replay missed a tie of the list scan");
  NearestResult result;
  result.server = *reservoir.value();
  result.distance = best;
  result.ties = static_cast<std::uint32_t>(count);
  return result;
}

NearestResult ReplicaIndex::nearest(NodeId u, FileId j, Rng& rng) const {
  const std::size_t replicas = placement_->replica_count(j);
  if (replicas == 0) return NearestResult{};
  // List scan costs ~|S_j| distance evaluations; the shell walk visits
  // ~n/|S_j| nodes before the first hit. Crossover at |S_j|² ≈ n — but
  // only where shells enumerate directly; on scan-based topologies every
  // shell is itself O(n), so the list scan always wins there. Past the
  // crossover the lattice replays the walk's draws from a list scan while
  // that scan is still the cheaper pass (kReplayDensity).
  const std::size_t n = topology_->size();
  const std::size_t density = replicas * replicas;
  if (density <= n || !topology_->directly_enumerates_shells()) {
    return nearest_by_scan(u, j, rng);
  }
  if (lattice_ != nullptr && density <= kReplayDensity * n) {
    return nearest_by_replay(u, j, rng);
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
