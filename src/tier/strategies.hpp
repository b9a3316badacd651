#pragma once
/// \file strategies.hpp
/// Cross-tier assignment strategies (the DistCache extension, PAPERS.md):
/// the hierarchy-aware counterparts of the flat paper strategies, routing
/// over a `TieredTopology` through per-tier slices of the global replica
/// lists. All three run on the serial and sharded engines alike through
/// the propose/choose protocol (core/strategy.hpp), and all three finish
/// `choose` deterministically — no load-dependent RNG.
///
///  * `cross-two-choice` — DistCache's power-of-two-choices *across*
///    layers: hash the file to one replica per cache tier, serve the
///    least-loaded of those candidates. The origin tier is consulted only
///    when no cache tier holds the file at all.
///  * `front-first` — the CDN baseline: a miss in the requester's own
///    front-end cluster cascades tier by tier toward the origin, serving
///    at the nearest replica of the first tier that holds the file. Fully
///    load-oblivious.
///  * `cross-prox-weighted` — one uniform replica draw per cache tier,
///    then keep `d` of them with probability ~ (1+dist)^-alpha
///    (Efraimidis–Spirakis, as in strategy/prox_weighted.hpp) and serve
///    the least-loaded survivor: proximity bias with cross-tier balance.

#include <cstdint>
#include <span>
#include <string>

#include "core/strategy.hpp"
#include "spatial/replica_index.hpp"
#include "tier/tiered_topology.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Shared per-tier replica slicing: the global replica lists are sorted by
/// node id and tiers occupy contiguous id ranges, so every tier (and every
/// cluster) scope is a binary-searched subspan — no per-tier index copies.
class TierScopes {
 public:
  TierScopes(const TieredTopology& topology, const Placement& placement);

  [[nodiscard]] const TieredTopology& topology() const { return *topology_; }
  [[nodiscard]] const TierSet& tiers() const { return topology_->tier_set(); }
  [[nodiscard]] const Placement& placement() const { return *placement_; }

  /// Replicas of `file` inside tier `t` (whole tier, all clusters).
  [[nodiscard]] std::span<const NodeId> tier_replicas(std::uint32_t t,
                                                      FileId file) const;

  /// Replicas of `file` inside one cluster of tier `t`.
  [[nodiscard]] std::span<const NodeId> cluster_replicas(
      std::uint32_t t, std::uint32_t cluster, FileId file) const;

  /// Nearest member of `slice` to `from` under the composed metric; ties
  /// to the lowest node id (slices are id-sorted). `slice` non-empty.
  [[nodiscard]] ProposedCandidate nearest_in(
      NodeId from, std::span<const NodeId> slice) const;

  /// Deterministic per-(file, origin, tier) hash pick from `slice` —
  /// DistCache's consistent-hash routing: a given requester always probes
  /// the same replica of each tier for a given file, while distinct
  /// requesters spread over the whole tier slice. `slice` non-empty.
  [[nodiscard]] NodeId hash_pick(FileId file, NodeId origin, std::uint32_t t,
                                 std::span<const NodeId> slice) const;

 private:
  const TieredTopology* topology_;
  const Placement* placement_;
};

/// DistCache cross-layer two-choice.
class CrossTwoChoiceStrategy final : public Strategy {
 public:
  explicit CrossTwoChoiceStrategy(const TieredTopology& topology,
                                  const Placement& placement)
      : scopes_(topology, placement) {}

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;
  [[nodiscard]] std::string name() const override {
    return "cross-two-choice";
  }

 private:
  TierScopes scopes_;
};

/// Load-oblivious miss cascade front → … → origin.
class FrontFirstStrategy final : public Strategy {
 public:
  explicit FrontFirstStrategy(const TieredTopology& topology,
                              const Placement& placement)
      : scopes_(topology, placement) {}

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "front-first"; }

 private:
  TierScopes scopes_;
};

struct CrossProxWeightedOptions {
  std::uint32_t num_choices = 2;  ///< candidates kept across tiers (d)
  double alpha = 1.0;             ///< distance-decay exponent
};

/// Distance-discounted cross-tier candidates.
class CrossProxWeightedStrategy final : public Strategy {
 public:
  CrossProxWeightedStrategy(const TieredTopology& topology,
                            const Placement& placement,
                            CrossProxWeightedOptions options)
      : scopes_(topology, placement), options_(options) {}

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;
  [[nodiscard]] std::string name() const override;

 private:
  TierScopes scopes_;
  CrossProxWeightedOptions options_;
};

}  // namespace proxcache
