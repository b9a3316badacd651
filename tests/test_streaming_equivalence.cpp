// Equivalence sweep locking the streaming request loop to the pre-refactor
// pipeline: `run_materialized` below is a faithful reimplementation of the
// historical materialize → sanitize → iterate run_simulation (same draw
// order: all trace-generation draws, then all repair draws, on one
// trace-phase stream). For every ScenarioRegistry preset × both strategies,
// and for the policy/staleness corner cases, the streaming
// `SimulationContext::run` must reproduce its RunResult bit-for-bit.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "random/alias_sampler.hpp"

#include "core/metrics.hpp"
#include "core/nearest_replica.hpp"
#include "core/request.hpp"
#include "core/simulation.hpp"
#include "core/stale_view.hpp"
#include "core/two_choice.hpp"
#include "random/seeding.hpp"
#include "scenario/registry.hpp"
#include "scenario/trace_source.hpp"
#include "spatial/replica_index.hpp"
#include "strategy/registry.hpp"
#include "topology/registry.hpp"

namespace proxcache {
namespace {

constexpr double kInfParam = std::numeric_limits<double>::infinity();

/// The pre-refactor vector-based sanitize pass, inlined verbatim so the
/// reference pipeline stays independent of SanitizingTraceSource, the
/// streaming decorator under test (calling it here would make the
/// equivalence sweep circular).
SanitizeStats sanitize_trace_reference(std::vector<Request>& trace,
                                       const Placement& placement,
                                       const Popularity& popularity,
                                       MissingFilePolicy policy, Rng& rng) {
  SanitizeStats stats;
  const auto is_cached = [&](FileId j) {
    return placement.replica_count(j) > 0;
  };

  if (policy == MissingFilePolicy::Strict) {
    for (const Request& request : trace) {
      if (!is_cached(request.file)) {
        throw std::runtime_error(
            "request for uncached file " + std::to_string(request.file) +
            " under Strict missing-file policy");
      }
    }
    return stats;
  }

  if (policy == MissingFilePolicy::Drop) {
    std::vector<Request> kept;
    kept.reserve(trace.size());
    for (const Request& request : trace) {
      if (is_cached(request.file)) {
        kept.push_back(request);
      } else {
        ++stats.dropped;
      }
    }
    trace = std::move(kept);
    return stats;
  }

  // Resample: redraw offending files from P restricted to cached files via
  // rejection.
  const bool any_cached = placement.files_with_replicas() > 0;
  const AliasSampler sampler(popularity.pmf());
  for (Request& request : trace) {
    if (is_cached(request.file)) continue;
    if (!any_cached) {
      throw std::invalid_argument(
          "no file has any replica; cannot resample trace");
    }
    ++stats.resampled;
    do {
      request.file = sampler.sample(rng);
    } while (!is_cached(request.file));
  }
  return stats;
}

/// The pre-streaming pipeline, verbatim: materialize the full trace, run
/// the sanitize pass over the vector, then iterate. The strategy is built
/// directly from the resolved spec's parameters (nearest / two-choice
/// only), independent of the registry's factory path.
RunResult run_materialized(const ExperimentConfig& config,
                           std::uint64_t run_index) {
  config.validate();

  const std::shared_ptr<const Topology> topology =
      TopologyRegistry::global().make(config.resolved_topology());
  const std::size_t num_nodes = topology->size();
  const Popularity popularity =
      config.popularity.materialize(config.num_files);

  Rng placement_rng(
      derive_seed(config.seed, {run_index, seed_phase::kPlacement}));
  const Placement placement =
      Placement::generate(num_nodes, popularity, config.cache_size,
                          config.placement_mode, placement_rng);

  Rng trace_rng(derive_seed(config.seed, {run_index, seed_phase::kTrace}));
  const std::unique_ptr<TraceSource> source = make_trace_source(
      config, *topology, popularity, config.effective_requests());
  std::vector<Request> trace =
      materialize(*source, config.effective_requests(), trace_rng);
  const SanitizeStats sanitize = sanitize_trace_reference(
      trace, placement, popularity, config.missing, trace_rng);

  const ReplicaIndex index(*topology, placement);
  const StrategySpec spec = config.resolved_strategy();
  std::unique_ptr<Strategy> strategy;
  if (spec.name == "nearest") {
    strategy = std::make_unique<NearestReplicaStrategy>(index);
  } else {
    const double r = spec.get_or("r", kInfParam);
    TwoChoiceOptions options;
    options.radius = r >= static_cast<double>(kUnboundedRadius)
                         ? kUnboundedRadius
                         : static_cast<Hop>(r);
    options.num_choices =
        static_cast<std::uint32_t>(spec.get_or("d", 2.0));
    options.with_replacement = spec.get_or("wr", 0.0) != 0.0;
    options.fallback =
        fallback_policy_from_param(spec.get_or("fallback", 0.0));
    options.beta = spec.get_or("beta", 1.0);
    strategy = std::make_unique<TwoChoiceStrategy>(index, options);
  }

  Rng strategy_rng(
      derive_seed(config.seed, {run_index, seed_phase::kStrategy}));
  LoadTracker tracker(num_nodes);
  const auto stale_batch =
      static_cast<std::uint32_t>(spec.get_or("stale", 1.0));
  std::unique_ptr<StaleLoadView> stale;
  if (stale_batch > 1) {
    stale = std::make_unique<StaleLoadView>(tracker, stale_batch);
  }
  const LoadView& load_view = stale ? static_cast<const LoadView&>(*stale)
                                    : static_cast<const LoadView&>(tracker);
  for (const Request& request : trace) {
    const Assignment assignment =
        strategy->assign(request, load_view, strategy_rng);
    if (assignment.fallback) tracker.note_fallback();
    if (assignment.server == kInvalidNode) {
      tracker.drop();
      continue;
    }
    tracker.assign(assignment.server, assignment.hops);
    if (stale) stale->on_assignment(tracker.assigned());
  }

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
  return result;
}

/// Every RunResult field must agree exactly; EXPECT_EQ on comm_cost is
/// deliberate (both paths divide the same integer totals).
void expect_bit_identical(const RunResult& materialized,
                          const RunResult& streaming,
                          const std::string& label) {
  EXPECT_EQ(materialized.max_load, streaming.max_load) << label;
  EXPECT_EQ(materialized.comm_cost, streaming.comm_cost) << label;
  EXPECT_EQ(materialized.requests, streaming.requests) << label;
  EXPECT_EQ(materialized.fallbacks, streaming.fallbacks) << label;
  EXPECT_EQ(materialized.resampled, streaming.resampled) << label;
  EXPECT_EQ(materialized.dropped, streaming.dropped) << label;
  EXPECT_EQ(materialized.load_histogram.total(),
            streaming.load_histogram.total())
      << label;
  EXPECT_EQ(materialized.load_histogram.counts(),
            streaming.load_histogram.counts())
      << label;
  EXPECT_EQ(materialized.placement_min_distinct,
            streaming.placement_min_distinct)
      << label;
  EXPECT_EQ(materialized.files_with_replicas, streaming.files_with_replicas)
      << label;
}

void expect_equivalent(const ExperimentConfig& config,
                       const std::string& label, std::uint64_t runs = 2) {
  const SimulationContext context(config);
  for (std::uint64_t run_index = 0; run_index < runs; ++run_index) {
    expect_bit_identical(run_materialized(config, run_index),
                         context.run(run_index),
                         label + " run " + std::to_string(run_index));
    // The one-shot entry point routes through the same streaming loop.
    expect_bit_identical(run_materialized(config, run_index),
                         run_simulation(config, run_index),
                         label + " one-shot run " + std::to_string(run_index));
  }
}

// The headline sweep: every registry preset × both strategies, shrunk to a
// fast network size (the presets only set workload knobs, so the override
// keeps each preset's trace process intact).
TEST(StreamingEquivalence, EveryRegistryPresetTimesBothStrategies) {
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    for (const char* name : {"nearest", "two-choice"}) {
      ExperimentConfig config = scenario.config;
      config.topology_spec = parse_topology_spec("torus(side=20)");
      config.num_files = 80;
      config.cache_size = 6;
      config.strategy_spec = parse_strategy_spec(name);
      config.seed =
          0xE0 + static_cast<std::uint64_t>(config.strategy_spec.name !=
                                            "nearest");
      expect_equivalent(config, scenario.name + " / " + name);
    }
  }
}

// Resample with genuinely uncached files: n*M = 200 slots over K = 400
// files guarantees zero-replica files, so the streaming path must take the
// scout pre-advance to position its repair stream. Asserting resampled > 0
// proves that branch ran.
TEST(StreamingEquivalence, ResampleRepairStreamWithUncachedFiles) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.num_files = 400;
  config.cache_size = 2;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.2;
  config.seed = 77;
  for (const char* name : {"nearest", "two-choice"}) {
    config.strategy_spec = parse_strategy_spec(name);
    const RunResult result = run_simulation(config, 0);
    EXPECT_GT(result.resampled, 0u)
        << "test setup must force repairs or it proves nothing";
    expect_equivalent(config, "uncached-resample", 3);
  }
}

// Drop policy: sanitize-level drops shorten the assigned stream without
// consuming strategy draws for the dropped requests.
TEST(StreamingEquivalence, DropPolicyWithUncachedFiles) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.num_files = 300;
  config.cache_size = 2;
  config.missing = MissingFilePolicy::Drop;
  config.seed = 78;
  const RunResult result = run_simulation(config, 0);
  EXPECT_GT(result.dropped, 0u);
  EXPECT_EQ(result.requests + result.dropped, config.effective_requests());
  expect_equivalent(config, "drop-policy", 3);
}

// Strict policy: both paths throw the same std::runtime_error on the first
// uncached request.
TEST(StreamingEquivalence, StrictPolicyThrowsInBothPaths) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.num_files = 300;
  config.cache_size = 2;
  config.missing = MissingFilePolicy::Strict;
  config.seed = 79;
  EXPECT_THROW((void)run_materialized(config, 0), std::runtime_error);
  EXPECT_THROW((void)SimulationContext(config).run(0), std::runtime_error);
}

// Non-lattice topology: the reference pipeline materializes through the
// same TopologyRegistry, so streaming-vs-materialized equivalence holds on
// a ring exactly as on the paper's torus (the topology layer adds no
// hidden draws to either path).
TEST(StreamingEquivalence, RingTopologyMatchesMaterializedPipeline) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("ring(n=300)");
  config.num_files = 70;
  config.cache_size = 4;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.0;
  config.seed = 81;
  for (const char* name : {"nearest", "two-choice(r=6)"}) {
    config.strategy_spec = parse_strategy_spec(name);
    expect_equivalent(config, std::string("ring / ") + name, 3);
  }
}

// The strategy-side corner cases ride on one config: finite radius with
// Drop fallback (kInvalidNode drops), (1+β) mixing, and stale snapshots.
TEST(StreamingEquivalence, StaleBetaAndFallbackDrop) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=20)");
  config.num_files = 60;
  config.cache_size = 3;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.0;
  config.strategy_spec = parse_strategy_spec(
      "two-choice(r=2, fallback=drop, beta=0.6, stale=7)");
  config.seed = 80;
  const RunResult result = run_simulation(config, 0);
  EXPECT_GT(result.dropped, 0u) << "radius 2 must provoke fallback drops";
  expect_equivalent(config, "stale-beta-fallback-drop", 3);
}

}  // namespace
}  // namespace proxcache
