#pragma once
/// \file least_loaded.hpp
/// Probe-all least-loaded-in-radius strategy (the "local least loaded"
/// policy family of Panigrahy et al., "Proximity Based Load Balancing
/// Policies on Graphs"): instead of sampling d candidates like Strategy II,
/// probe *every* replica of the requested file within hop distance `r` of
/// the requester and serve at the least-loaded one. Ties on load break
/// toward the closer replica (proximity is free information here), and
/// remaining (load, distance) ties break uniformly at random.
///
/// This is the maximum-information endpoint of the probe-count spectrum —
/// `d = |F_j(u)|` — so it lower-bounds the max load any d-choice variant
/// can reach at the same radius, at the price of probing every in-radius
/// replica per request. When `F_j(u)` is empty the configured
/// FallbackPolicy applies, exactly as in Strategy II.

#include "core/config.hpp"
#include "core/strategy.hpp"
#include "spatial/replica_index.hpp"

namespace proxcache {

/// Options for the probe-all policy (registry key "least-loaded").
struct LeastLoadedOptions {
  Hop radius = kUnboundedRadius;  ///< probe radius `r`; inf = whole network
  FallbackPolicy fallback = FallbackPolicy::ExpandRadius;
};

/// Probe every in-radius replica, serve the least-loaded, tie-break by
/// distance then uniformly. Split-phase: `propose` records the in-radius
/// enumeration (shell walk / grid probe — the expensive part, no RNG) and
/// runs the fallback ladder; `choose` replays the streaming min-scan over
/// the recorded (node, distance) window with the tie-break draws — the
/// same event order as the historical interleaved pass, because loads
/// cannot change between the two halves of one request.
class LeastLoadedStrategy final : public Strategy {
 public:
  LeastLoadedStrategy(const ReplicaIndex& index, LeastLoadedOptions options)
      : index_(&index), options_(options) {}

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;

  [[nodiscard]] std::string name() const override;

 private:
  const ReplicaIndex* index_;
  LeastLoadedOptions options_;
};

}  // namespace proxcache
