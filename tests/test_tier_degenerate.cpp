// Differential suite for the degenerate tier composition: a spec of one
// cache tier, one cluster, and no capacity override names exactly the flat
// network of its inner topology, and `ExperimentConfig` resolves it to the
// flat engine path (core/config.hpp). This suite locks "resolves to" down
// to the bit: for every scenario preset × all four flat strategies ×
// torus/ring/rgg, a config carrying `tiers(front=<topology>)` must produce
// the identical RunResult to the flat config it abbreviates — serial
// (threads = 1) and sharded (threads = 4) — mirroring
// test_sharded_equivalence's field-by-field comparison. Any tier-layer
// change that leaks into the flat path (an extra RNG draw, a placement
// offset, a metrics slice on flat runs) fails here before it can move a
// golden master.
#include <gtest/gtest.h>

#include <string>

#include "core/simulation.hpp"
#include "scenario/registry.hpp"
#include "strategy/registry.hpp"
#include "tier/spec.hpp"
#include "topology/spec.hpp"

namespace proxcache {
namespace {

/// Every RunResult field must agree exactly; EXPECT_EQ on comm_cost is
/// deliberate (both paths divide the same integer totals). Flat runs leave
/// the tier metrics empty, and the degenerate path must too.
void expect_bit_identical(const RunResult& flat, const RunResult& tiered,
                          const std::string& label) {
  EXPECT_EQ(flat.max_load, tiered.max_load) << label;
  EXPECT_EQ(flat.comm_cost, tiered.comm_cost) << label;
  EXPECT_EQ(flat.requests, tiered.requests) << label;
  EXPECT_EQ(flat.fallbacks, tiered.fallbacks) << label;
  EXPECT_EQ(flat.resampled, tiered.resampled) << label;
  EXPECT_EQ(flat.dropped, tiered.dropped) << label;
  EXPECT_EQ(flat.load_histogram.total(), tiered.load_histogram.total())
      << label;
  EXPECT_EQ(flat.load_histogram.counts(), tiered.load_histogram.counts())
      << label;
  EXPECT_EQ(flat.placement_min_distinct, tiered.placement_min_distinct)
      << label;
  EXPECT_EQ(flat.files_with_replicas, tiered.files_with_replicas) << label;
  EXPECT_TRUE(flat.tier_loads.empty()) << label;
  EXPECT_TRUE(tiered.tier_loads.empty())
      << label << ": degenerate specs must not grow tier metrics";
}

/// `config` rewritten to say the same network through the tier grammar:
/// `tiers(front=<resolved flat topology>)`. Clears `topology_spec` (the
/// two spec fields are mutually exclusive) so only the tier path names the
/// topology.
ExperimentConfig as_degenerate_tiers(ExperimentConfig config) {
  const TierSpec spec = parse_tier_spec(
      "tiers(front=" + config.resolved_topology().to_string() + ")");
  EXPECT_TRUE(spec.degenerate());
  config.topology_spec = TopologySpec{};
  config.tier_spec = spec;
  EXPECT_FALSE(config.tiered()) << "degenerate specs take the flat path";
  return config;
}

/// Flat vs degenerate-tiers, serial and sharded, `runs` replications each.
void expect_degenerate_identical(const ExperimentConfig& flat,
                                 const std::string& label,
                                 std::uint64_t runs = 2) {
  const ExperimentConfig tiered = as_degenerate_tiers(flat);
  for (const std::uint32_t threads : {1u, 4u}) {
    ExperimentConfig flat_run = flat;
    ExperimentConfig tiered_run = tiered;
    flat_run.threads = threads;
    tiered_run.threads = threads;
    const SimulationContext flat_context(flat_run);
    const SimulationContext tiered_context(tiered_run);
    for (std::uint64_t run_index = 0; run_index < runs; ++run_index) {
      expect_bit_identical(flat_context.run(run_index),
                           tiered_context.run(run_index),
                           label + " threads=" + std::to_string(threads) +
                               " run " + std::to_string(run_index));
    }
  }
}

ExperimentConfig shrunk(ExperimentConfig config) {
  config.topology_spec = parse_topology_spec("torus(side=20)");
  config.num_files = 80;
  config.cache_size = 6;
  return config;
}

// The headline sweep: every scenario preset × all four flat strategies on
// the paper's torus (torus(side=20) at the shrunk scale, and the
// degenerate spec must spell that same lattice through the tier grammar).
TEST(TierDegenerate, EveryPresetTimesEveryStrategyOnTorus) {
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    for (const char* name :
         {"nearest", "two-choice", "least-loaded(r=8)",
          "prox-weighted(d=2, alpha=1)"}) {
      ExperimentConfig config = shrunk(scenario.config);
      config.strategy_spec = parse_strategy_spec(name);
      config.shard_batch = 96;
      config.seed = 0x71E2 + scenario.config.seed;
      expect_degenerate_identical(config, scenario.name + " / " + name, 1);
    }
  }
}

// Non-lattice topologies: ring (closed-form distances) and a random
// geometric graph (BFS distances). The rgg leg also exercises seeded inner
// construction through the tier resolution (same graph both ways or the
// comparison is meaningless).
TEST(TierDegenerate, RingAndRggTopologies) {
  for (const char* topo : {"ring(n=300)", "rgg(n=300, radius=0.12, seed=5)"}) {
    ExperimentConfig base;
    base.topology_spec = parse_topology_spec(topo);
    base.num_files = 70;
    base.cache_size = 4;
    base.popularity.kind = PopularityKind::Zipf;
    base.popularity.gamma = 1.0;
    base.shard_batch = 64;
    base.seed = 0x71E5;
    for (const char* name :
         {"nearest", "two-choice(r=6)", "least-loaded(r=6)",
          "prox-weighted(d=3, alpha=0.5)"}) {
      ExperimentConfig config = base;
      config.strategy_spec = parse_strategy_spec(name);
      expect_degenerate_identical(config, std::string(topo) + " / " + name,
                                  1);
    }
  }
}

// Policy corners from the sharded suite: fallback drops, trace repairs,
// and sanitize-level drops must all survive the spec rewrite untouched —
// these counters come from the trace/sanitize layers, which a degenerate
// tier spec must never perturb.
TEST(TierDegenerate, PolicyCornersSurviveTheRewrite) {
  {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=20)");
    config.num_files = 60;
    config.cache_size = 3;
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 1.0;
    config.strategy_spec = parse_strategy_spec(
        "two-choice(r=2, fallback=drop, beta=0.6, stale=7)");
    config.seed = 0x5A1E;
    expect_degenerate_identical(config, "stale-beta-fallback-drop");
  }
  {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=10)");
    config.num_files = 400;
    config.cache_size = 2;
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 1.2;
    config.strategy_spec = parse_strategy_spec("least-loaded(r=4)");
    config.seed = 0x9E5A;
    expect_degenerate_identical(config, "uncached-resample");
  }
  {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=10)");
    config.num_files = 300;
    config.cache_size = 2;
    config.missing = MissingFilePolicy::Drop;
    config.seed = 0xD809;
    expect_degenerate_identical(config, "drop-policy");
  }
}

}  // namespace
}  // namespace proxcache
