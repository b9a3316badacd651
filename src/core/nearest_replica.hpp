#pragma once
/// \file nearest_replica.hpp
/// Strategy I (paper Definition 2): every request is served by the nearest
/// node — in lattice hop distance — that cached the requested file, with
/// uniform tie breaking. Minimum possible communication cost; load-oblivious
/// (max load grows as Θ(log n) / Ω(log n / log log n), Theorems 1–2).

#include "core/strategy.hpp"
#include "spatial/replica_index.hpp"

namespace proxcache {

/// Strategy I. Holds a reference to the query index (which must outlive it).
/// Split-phase trivially: load-oblivious, so the whole decision happens in
/// `propose` and `choose` only replays it.
class NearestReplicaStrategy final : public Strategy {
 public:
  explicit NearestReplicaStrategy(const ReplicaIndex& index) : index_(&index) {}

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;

  [[nodiscard]] std::string name() const override { return "nearest-replica"; }

 private:
  const ReplicaIndex* index_;
};

}  // namespace proxcache
