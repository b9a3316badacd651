#include "strategy/registry.hpp"

#include <limits>

#include "core/nearest_replica.hpp"
#include "core/two_choice.hpp"
#include "strategy/least_loaded.hpp"
#include "strategy/prox_weighted.hpp"
#include "tier/strategies.hpp"
#include "tier/tiered_topology.hpp"
#include "util/contracts.hpp"

namespace proxcache {

namespace {

// The spec layer's fallback codes are the canonical wire format; they must
// track the enum values so the conversions below are casts.
static_assert(static_cast<double>(
                  static_cast<std::uint8_t>(FallbackPolicy::ExpandRadius)) ==
              kSpecFallbackExpand);
static_assert(static_cast<double>(static_cast<std::uint8_t>(
                  FallbackPolicy::NearestReplica)) == kSpecFallbackNearest);
static_assert(static_cast<double>(
                  static_cast<std::uint8_t>(FallbackPolicy::Drop)) ==
              kSpecFallbackDrop);

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The radius two-choice and least-loaded start from; their fallback
/// ladders only widen it. `r` spec values are doubles; anything at or
/// beyond the NodeId-sized sentinel (including `inf`) means "no proximity
/// constraint".
Hop radius_of(const StrategySpec& spec) {
  const double value = spec.get_or("r", kInf);
  if (value >= static_cast<double>(kUnboundedRadius)) return kUnboundedRadius;
  return static_cast<Hop>(value);
}

// The index passes of each entry (`IndexPasses`). A `nearest` fallback
// needs no declaration: it only runs when a radius below the diameter
// found nothing, and those streams' coordinates cover its files.

/// Strategy I asks only `nearest()`.
IndexPasses nearest_passes(const StrategySpec&) { return {.nearest = true}; }

/// `two-choice` streams a radius below the diameter and samples the list
/// at one reaching it; its fallback ladder only widens the radius.
IndexPasses two_choice_passes(const StrategySpec& spec) {
  return {.stream_radius = radius_of(spec)};
}

/// `least-loaded` streams its radius, and the whole list at one reaching
/// the diameter, where its fallback ladder also ends.
IndexPasses least_loaded_passes(const StrategySpec& spec) {
  return {.stream_radius = radius_of(spec), .whole_lists = true};
}

/// `prox-weighted` weighs every replica of the file.
IndexPasses whole_list_passes(const StrategySpec&) {
  return {.whole_lists = true};
}

/// The cross-tier strategies only sample the placement's lists.
IndexPasses sample_passes(const StrategySpec&) { return {}; }

ParamRule stale_rule() {
  return {"stale", 1.0, 4294967295.0, 1.0,
          "load-snapshot refresh period in requests (1 = always fresh)",
          /*integral=*/true};
}

}  // namespace

double fallback_param(FallbackPolicy policy) {
  return static_cast<double>(static_cast<std::uint8_t>(policy));
}

FallbackPolicy fallback_policy_from_param(double code) {
  if (code == kSpecFallbackNearest) return FallbackPolicy::NearestReplica;
  if (code == kSpecFallbackDrop) return FallbackPolicy::Drop;
  return FallbackPolicy::ExpandRadius;
}

ReplicaIndex::Plan index_plan(const StrategySpec& spec,
                              const Topology& topology,
                              const StrategyRegistry& registry) {
  ReplicaIndex::Plan plan;
  const DeclarePasses& declare = registry.at(spec.name).passes;
  if (!declare) return plan;
  const IndexPasses passes = declare(spec);
  const bool radius_streams = passes.stream_radius < topology.diameter();
  if (!radius_streams) plan.bucket_threshold = 0;
  if (!radius_streams && !passes.whole_lists) {
    plan.coordinates = passes.nearest ? ReplicaIndex::Coordinates::InBand
                                      : ReplicaIndex::Coordinates::None;
  }
  return plan;
}

template <>
const StrategyRegistry& StrategyRegistry::built_ins() {
  static const StrategyRegistry registry = [] {
    StrategyRegistry r;
    r.add({"nearest",
           "Strategy I: serve at the nearest replica (load-oblivious)",
           {stale_rule()},
           [](const StrategySpec&, const ReplicaIndex& index, const Topology&,
              const ExperimentConfig&) -> std::unique_ptr<Strategy> {
             return std::make_unique<NearestReplicaStrategy>(index);
           },
           /*requires_tiers=*/false, nearest_passes});
    r.add({"two-choice",
           "Strategy II: d uniform candidates within radius r, "
           "least-loaded wins",
           {{"d", 1.0, 8.0, 2.0, "number of sampled candidates",
             /*integral=*/true},
            {"r", 0.0, kInf, kInf, "proximity radius in hops (inf = none)",
             /*integral=*/true},
            {"beta", 0.0, 1.0, 1.0,
             "(1+beta) mixing: probability of the d-choice comparison"},
            {"fallback", 0.0, 2.0, kSpecFallbackExpand,
             "empty-candidate policy: expand | nearest | drop",
             /*integral=*/true},
            {"wr", 0.0, 1.0, 0.0, "sample with replacement (0 | 1)",
             /*integral=*/true},
            stale_rule()},
           [](const StrategySpec& spec, const ReplicaIndex& index,
              const Topology&,
              const ExperimentConfig&) -> std::unique_ptr<Strategy> {
             TwoChoiceOptions options;
             options.radius = radius_of(spec);
             options.num_choices =
                 static_cast<std::uint32_t>(spec.get_or("d", 2.0));
             options.with_replacement = spec.get_or("wr", 0.0) != 0.0;
             options.fallback =
                 fallback_policy_from_param(spec.get_or("fallback", 0.0));
             options.beta = spec.get_or("beta", 1.0);
             return std::make_unique<TwoChoiceStrategy>(index, options);
           },
           /*requires_tiers=*/false, two_choice_passes});
    r.add({"least-loaded",
           "probe every replica within radius r, serve the least-loaded "
           "(ties to the closest)",
           {{"r", 0.0, kInf, kInf, "probe radius in hops (inf = all)",
             /*integral=*/true},
            {"fallback", 0.0, 2.0, kSpecFallbackExpand,
             "empty-candidate policy: expand | nearest | drop",
             /*integral=*/true},
            stale_rule()},
           [](const StrategySpec& spec, const ReplicaIndex& index,
              const Topology&,
              const ExperimentConfig&) -> std::unique_ptr<Strategy> {
             LeastLoadedOptions options;
             options.radius = radius_of(spec);
             options.fallback =
                 fallback_policy_from_param(spec.get_or("fallback", 0.0));
             return std::make_unique<LeastLoadedStrategy>(index, options);
           },
           /*requires_tiers=*/false, least_loaded_passes});
    r.add({"prox-weighted",
           "d candidates drawn with probability ~ (1+dist)^-alpha, "
           "least-loaded wins",
           {{"d", 1.0, 8.0, 2.0, "number of sampled candidates",
             /*integral=*/true},
            {"alpha", 0.0, 64.0, 1.0,
             "distance-decay exponent (0 = uniform d-choice)"},
            stale_rule()},
           [](const StrategySpec& spec, const ReplicaIndex& index,
              const Topology&,
              const ExperimentConfig&) -> std::unique_ptr<Strategy> {
             ProxWeightedOptions options;
             options.num_choices =
                 static_cast<std::uint32_t>(spec.get_or("d", 2.0));
             options.alpha = spec.get_or("alpha", 1.0);
             return std::make_unique<ProxWeightedStrategy>(index, options);
           },
           /*requires_tiers=*/false, whole_list_passes});
    r.add({"cross-two-choice",
           "DistCache cross-layer: hash to one replica per cache tier, "
           "least-loaded wins; origin only on a full miss",
           {stale_rule()},
           [](const StrategySpec&, const ReplicaIndex& index,
              const Topology& topology,
              const ExperimentConfig&) -> std::unique_ptr<Strategy> {
             const TieredTopology* tiered = topology.as_tiered();
             PROXCACHE_REQUIRE(tiered != nullptr,
                               "strategy 'cross-two-choice' needs a tiered "
                               "topology (set a tier_spec)");
             return std::make_unique<CrossTwoChoiceStrategy>(
                 *tiered, index.placement());
           },
           /*requires_tiers=*/true, sample_passes});
    r.add({"front-first",
           "CDN baseline: miss in the own front cluster cascades tier by "
           "tier toward the origin (load-oblivious)",
           {stale_rule()},
           [](const StrategySpec&, const ReplicaIndex& index,
              const Topology& topology,
              const ExperimentConfig&) -> std::unique_ptr<Strategy> {
             const TieredTopology* tiered = topology.as_tiered();
             PROXCACHE_REQUIRE(tiered != nullptr,
                               "strategy 'front-first' needs a tiered "
                               "topology (set a tier_spec)");
             return std::make_unique<FrontFirstStrategy>(*tiered,
                                                         index.placement());
           },
           /*requires_tiers=*/true, sample_passes});
    r.add({"cross-prox-weighted",
           "one uniform replica draw per cache tier, keep d by weight "
           "(1+dist)^-alpha, least-loaded wins",
           {{"d", 1.0, 8.0, 2.0, "candidates kept across tiers",
             /*integral=*/true},
            {"alpha", 0.0, 64.0, 1.0,
             "distance-decay exponent (0 = uniform across tiers)"},
            stale_rule()},
           [](const StrategySpec& spec, const ReplicaIndex& index,
              const Topology& topology,
              const ExperimentConfig&) -> std::unique_ptr<Strategy> {
             const TieredTopology* tiered = topology.as_tiered();
             PROXCACHE_REQUIRE(tiered != nullptr,
                               "strategy 'cross-prox-weighted' needs a "
                               "tiered topology (set a tier_spec)");
             CrossProxWeightedOptions options;
             options.num_choices =
                 static_cast<std::uint32_t>(spec.get_or("d", 2.0));
             options.alpha = spec.get_or("alpha", 1.0);
             return std::make_unique<CrossProxWeightedStrategy>(
                 *tiered, index.placement(), options);
           },
           /*requires_tiers=*/true, sample_passes});
    return r;
  }();
  return registry;
}

}  // namespace proxcache
