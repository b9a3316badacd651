#include "core/run_harness.hpp"

#include <algorithm>

#include "random/seeding.hpp"
#include "strategy/registry.hpp"
#include "tier/materialize.hpp"
#include "tier/tier_set.hpp"
#include "tier/tiered_topology.hpp"

namespace proxcache {

namespace {

Placement make_placement(const SimulationContext& context,
                         std::uint64_t run_index) {
  return materialize_placement(context.config(), context.topology(),
                               context.popularity(), run_index);
}

/// Repair-stream contract: the materialized pipeline drew all Resample
/// repairs *after* the full generation sequence, on the one trace-phase
/// stream. When the placement leaves files uncached, advance a scout copy
/// of that stream through the whole generation sequence to find the repair
/// start state (a second source instance replays the identical request
/// sequence — all generator state is deterministic in the rng). With full
/// coverage no repair draw ever happens, so the scout pass is skipped.
Rng positioned_repair_rng(const SimulationContext& context,
                          const Placement& placement, Rng repair_rng) {
  const ExperimentConfig& config = context.config();
  if (config.missing == MissingFilePolicy::Resample &&
      placement.files_with_replicas() < config.num_files) {
    const std::unique_ptr<TraceSource> scout = make_trace_source(
        config, context.topology(), context.popularity(), context.horizon());
    for (std::size_t i = 0; i < context.horizon(); ++i) {
      (void)scout->next(repair_rng);
    }
  }
  return repair_rng;
}

std::unique_ptr<StaleLoadView> make_stale(const LoadTracker& tracker,
                                          const StrategySpec& spec) {
  // Stale-information model (§VI): the strategy compares loads from a
  // periodically refreshed snapshot instead of the live tracker. `stale` is
  // a universal spec parameter because the snapshot wraps the LoadView
  // outside the strategy proper.
  const auto stale_batch =
      static_cast<std::uint32_t>(spec.get_or("stale", 1.0));
  if (stale_batch <= 1) return nullptr;
  return std::make_unique<StaleLoadView>(tracker, stale_batch);
}

}  // namespace

RunHarness::RunHarness(const SimulationContext& context,
                       std::uint64_t run_index)
    : context_(&context),
      placement(make_placement(context, run_index)),
      trace_rng(
          derive_seed(context.config().seed, {run_index, seed_phase::kTrace})),
      repair_rng(positioned_repair_rng(context, placement, trace_rng)),
      source(make_trace_source(context.config(), context.topology(),
                               context.popularity(), context.horizon())),
      sanitized(*source, context.horizon(), placement, context.popularity(),
                context.config().missing, repair_rng),
      index(context.topology(), placement,
            index_plan(context.config().resolved_strategy(),
                       context.topology())),
      // Every strategy — the paper pair and any extension registered on the
      // global catalog — is constructed by the open registry from the
      // resolved spec; there is no enum dispatch. `with_defaults` validates
      // and fills unset parameters from the registry rules (so the `stale`
      // read below sees the entry's declared default), after which the
      // entry's factory is invoked directly — replications pay for one
      // validation pass, not two.
      spec(StrategyRegistry::global().with_defaults(
          context.config().resolved_strategy())),
      strategy(StrategyRegistry::global().at(spec.name).factory(
          spec, index, context.topology(), context.config())),
      strategy_rng(derive_seed(context.config().seed,
                               {run_index, seed_phase::kStrategy})),
      tracker(context.topology().size()),
      stale(make_stale(tracker, spec)),
      load_view(stale ? static_cast<const LoadView*>(stale.get())
                      : static_cast<const LoadView*>(&tracker)) {}

RunResult RunHarness::finalize() const {
  const SanitizeStats& sanitize = sanitized.stats();
  RunResult result;
  result.max_load = tracker.max_load();
  result.comm_cost = tracker.comm_cost();
  result.requests = tracker.assigned();
  result.fallbacks = tracker.fallbacks();
  result.resampled = sanitize.resampled;
  result.dropped = sanitize.dropped + tracker.dropped();
  result.load_histogram = tracker.load_histogram();
  result.placement_min_distinct = placement.distinct_count(0);
  for (NodeId u = 0; u < placement.num_nodes(); ++u) {
    result.placement_min_distinct =
        std::min(result.placement_min_distinct, placement.distinct_count(u));
  }
  result.files_with_replicas = placement.files_with_replicas();
  if (const TieredTopology* tiered = context_->topology().as_tiered()) {
    // Slice the one global load vector by tier ranges — the engines track
    // loads tier-blind; hierarchy metrics are a pure post-pass.
    const std::vector<Load>& loads = tracker.loads();
    std::vector<Load> slice;
    for (const TierLevel& level : tiered->tier_set().levels()) {
      slice.assign(loads.begin() + level.base,
                   loads.begin() + level.base + level.nodes);
      TierLoadStats stats;
      stats.role = level.spec.role;
      for (const Load value : slice) {
        stats.served += value;
        stats.max_load = std::max(stats.max_load, value);
      }
      std::sort(slice.begin(), slice.end());
      stats.tail_p99 = slice[((slice.size() - 1) * 99) / 100];
      result.tier_loads.push_back(std::move(stats));
    }
  }
  return result;
}

}  // namespace proxcache
