// Cross-module integration tests: small-scale versions of the paper's
// regime claims (§IV examples, Theorems 1/4 shapes, Lemma 3's edge-sampling
// property) wired through the full simulation stack.
#include <gtest/gtest.h>

#include <map>

#include "ballsbins/processes.hpp"
#include "core/experiment.hpp"
#include "core/two_choice.hpp"
#include "graph/config_graph.hpp"
#include "spatial/replica_index.hpp"

namespace proxcache {
namespace {

TEST(Integration, TwoChoiceBeatsNearestAtHighReplication) {
  // High replication (M/K large): Strategy II should balance much better.
  ExperimentConfig nearest;
  nearest.topology_spec = parse_topology_spec("torus(side=32)");
  nearest.num_files = 16;
  nearest.cache_size = 8;
  nearest.seed = 1;
  nearest.strategy_spec = parse_strategy_spec("nearest");
  ExperimentConfig two = nearest;
  two.strategy_spec = parse_strategy_spec("two-choice");

  const ExperimentResult rn = run_experiment(nearest, 10);
  const ExperimentResult rt = run_experiment(two, 10);
  EXPECT_LT(rt.max_load.mean() + 0.5, rn.max_load.mean());
}

TEST(Integration, Example1FullMemoryMatchesClassicTwoChoice) {
  // M = K, r = ∞ (paper Example 1): Strategy II is the standard balanced
  // allocation process; max load should sit near the d=2 balls-in-bins run.
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=32)");
  config.num_files = 4;
  config.cache_size = 64;  // with-replacement draws cover all 4 files whp
  config.seed = 2;
  config.strategy_spec = parse_strategy_spec("two-choice");
  const ExperimentResult cache_result = run_experiment(config, 10);

  Summary classic;
  for (std::uint64_t s = 0; s < 10; ++s) {
    Rng rng(100 + s);
    classic.add(ballsbins::d_choice(1024, 1024, 2, rng).max_load);
  }
  EXPECT_NEAR(cache_result.max_load.mean(), classic.mean(), 1.0);
}

TEST(Integration, Example2LowMemoryAnnihilatesTwoChoices) {
  // K = n, M = 1 (paper Example 2 regime): replication is too thin for the
  // power of two choices; Strategy II behaves like one-choice-with-structure
  // and its max load exceeds the classical two-choice level clearly.
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=32)");
  config.num_files = 1024;
  config.cache_size = 1;
  config.seed = 3;
  config.strategy_spec = parse_strategy_spec("two-choice");
  const ExperimentResult result = run_experiment(config, 10);

  Summary classic;
  for (std::uint64_t s = 0; s < 10; ++s) {
    Rng rng(200 + s);
    classic.add(ballsbins::d_choice(1024, 1024, 2, rng).max_load);
  }
  EXPECT_GT(result.max_load.mean(), classic.mean() + 0.7);
}

TEST(Integration, Example3SmallLibraryKeepsTwoChoices) {
  // K = n^{1-ε}, M = 1 (paper Example 3): disjoint sub-problems each with
  // n/K ≈ 32 replicas; two choices survive.
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=32)");
  config.num_files = 32;  // n^(1/2)
  config.cache_size = 1;
  config.seed = 4;
  config.strategy_spec = parse_strategy_spec("two-choice");
  const ExperimentResult result = run_experiment(config, 10);
  // Max load should stay close to the two-choice order (log log n ≈ 2–4),
  // far below the Example 2 regime.
  EXPECT_LT(result.max_load.mean(), 5.0);
}

TEST(Integration, CostOrderingAcrossStrategies) {
  // nearest <= two-choice(r) <= two-choice(∞) in communication cost.
  ExperimentConfig base;
  base.topology_spec = parse_topology_spec("torus(side=25)");
  base.num_files = 50;
  base.cache_size = 5;
  base.seed = 5;

  ExperimentConfig nearest = base;
  nearest.strategy_spec = parse_strategy_spec("nearest");
  ExperimentConfig bounded = base;
  bounded.strategy_spec = parse_strategy_spec("two-choice(r=6)");
  ExperimentConfig unbounded = base;
  unbounded.strategy_spec = parse_strategy_spec("two-choice");

  const double cn = run_experiment(nearest, 8).comm_cost.mean();
  const double cb = run_experiment(bounded, 8).comm_cost.mean();
  const double cu = run_experiment(unbounded, 8).comm_cost.mean();
  EXPECT_LE(cn, cb + 0.2);
  EXPECT_LT(cb, cu);
}

TEST(Integration, RadiusTradeoffMonotoneInCost) {
  // Growing r monotonically raises communication cost (Fig. 5's x-axis).
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=25)");
  config.num_files = 50;
  config.cache_size = 10;
  config.seed = 6;
  config.strategy_spec = parse_strategy_spec("two-choice");
  double last_cost = -1.0;
  for (const Hop r : {2u, 4u, 8u, 16u}) {
    config.strategy_spec.params["r"] = r;
    const double cost = run_experiment(config, 8).comm_cost.mean();
    EXPECT_GT(cost, last_cost);
    last_cost = cost;
  }
}

TEST(Integration, FallbackRateVanishesInGoodRegime) {
  // Theorem 4 regime: F_j(u) = ω(log n) candidates per request w.h.p., so
  // fallbacks should be (essentially) absent.
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=30)");
  config.num_files = 900;
  config.cache_size = 30;   // M = n^0.5
  config.seed = 7;
  config.strategy_spec =
      parse_strategy_spec("two-choice(r=15)");  // r = n^0.4; α+2β ≈ 1.3 > 1
  const ExperimentResult result = run_experiment(config, 5);
  EXPECT_LT(result.fallback_rate, 0.01);
}

TEST(Integration, StrategyIISamplesConfigGraphEdges) {
  // Lemma 3(b): the candidate pairs of Strategy II are edges of H (they
  // share the requested file and lie within 2r of each other).
  const std::size_t n = 400;
  const Lattice lattice = Lattice::from_node_count(n, Wrap::Torus);
  Rng prng(8);
  const Placement placement = Placement::generate(
      n, Popularity::uniform(40), 6,
      PlacementMode::ProportionalWithReplacement, prng);
  const ReplicaIndex index(lattice, placement);
  const Hop r = 5;
  const CompactGraph h = build_config_graph(lattice, placement, r);

  TwoChoiceOptions options;
  options.radius = r;
  TwoChoiceStrategy strategy(index, options);
  const LoadTracker tracker(n);
  int checked = 0;
  strategy.set_observer([&](std::span<const NodeId> candidates) {
    ASSERT_EQ(candidates.size(), 2u);
    EXPECT_TRUE(h.has_edge(candidates[0], candidates[1]))
        << candidates[0] << "-" << candidates[1];
    ++checked;
  });
  Rng rng(9);
  for (NodeId u = 0; u < n; u += 3) {
    for (FileId j = 0; j < 40; j += 7) {
      if (placement.replica_count(j) == 0) continue;
      (void)strategy.assign({u, j}, tracker, rng);
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(Integration, MaxLoadGrowsSlowlyForTwoChoice) {
  // Max load at n=400 vs n=6400 under Theorem 6-ish conditions: growth
  // should be far below the log n factor-ish growth of Strategy I.
  ExperimentConfig small;
  small.topology_spec = parse_topology_spec("torus(side=20)");
  small.num_files = 8;
  small.cache_size = 8;
  small.seed = 10;
  small.strategy_spec = parse_strategy_spec("two-choice");
  ExperimentConfig large = small;
  large.topology_spec = parse_topology_spec("torus(side=80)");

  const double l_small = run_experiment(small, 6).max_load.mean();
  const double l_large = run_experiment(large, 6).max_load.mean();
  EXPECT_LT(l_large - l_small, 1.5) << "two-choice growth should be ~flat";
}

}  // namespace
}  // namespace proxcache
