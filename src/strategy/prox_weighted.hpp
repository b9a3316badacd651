#pragma once
/// \file prox_weighted.hpp
/// Distance-weighted d-choice strategy: a soft-proximity variant of
/// Strategy II in the spirit of the storage/communication trade-off
/// policies of Jafari Siavoshani et al. ("Storage, Communication, and Load
/// Balancing Trade-off in Distributed Cache Networks"). Instead of a hard
/// radius cutoff, sample `d` distinct candidates from the *whole* replica
/// set `S_j`, drawing replica `v` with probability proportional to
/// `(1 + dist(u, v))^-alpha`, then serve at the least-loaded sampled
/// candidate (uniform tie break).
///
/// `alpha` dials the communication/balance trade-off continuously:
/// `alpha = 0` recovers unconstrained d-choice (uniform candidates, best
/// balance, highest cost) while large `alpha` concentrates the candidate
/// mass on the nearest replicas (cost approaches Strategy I). Because every
/// cached file has at least one replica after sanitization, this strategy
/// never needs a fallback path.

#include <vector>

#include "core/strategy.hpp"
#include "spatial/replica_index.hpp"

namespace proxcache {

/// Options for the distance-weighted sampler (registry key "prox-weighted").
struct ProxWeightedOptions {
  std::uint32_t num_choices = 2;  ///< d: candidates sampled per request
  double alpha = 1.0;             ///< distance-decay exponent, >= 0
};

/// Sample d replicas with probability ∝ (1+dist)^-alpha, serve the
/// least-loaded. Split-phase: `propose` computes the per-replica distances
/// and weights (the O(|S_j|) part, RNG-free); `choose` runs the whole
/// d-pick loop, whose candidate draws and tie-break draws interleave per
/// pick and therefore must stay together on one stream.
///
/// Weights come from a table of `(1+d)^-alpha` per hop value, filled with
/// the same `std::pow` doubles at construction. Once `(1+d)^-alpha`
/// underflows to 0.0 (alpha = 64 reaches it near d ≈ 114,000), a pick
/// that finds no positive weight left takes the nearest remaining
/// candidate, uniform among equal distances: the limit of the weighted
/// draw.
class ProxWeightedStrategy final : public Strategy {
 public:
  /// Largest hop value the weight table holds: the largest torus diameter
  /// (side 8192). Longer distances — a long ring or grid, or a landmark
  /// upper bound on a sparse graph, which may exceed `diameter()` — fall
  /// back to `std::pow`.
  static constexpr Hop kWeightTableHops = 8192;

  ProxWeightedStrategy(const ReplicaIndex& index, ProxWeightedOptions options);

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;

  [[nodiscard]] std::string name() const override;

 private:
  /// `(1 + d)^-alpha`, from the table when `d` is in it.
  [[nodiscard]] double weight(Hop d) const {
    return d < weights_.size() ? weights_[d] : pow_weight(d);
  }
  [[nodiscard]] double pow_weight(Hop d) const;

  const ReplicaIndex* index_;
  ProxWeightedOptions options_;
  std::vector<double> weights_;  ///< weights_[d] = (1 + d)^-alpha
};

}  // namespace proxcache
