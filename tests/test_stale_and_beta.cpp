// Tests for the two distributed-implementation extensions of §VI:
// stale load information (periodic polling) and the (1+β) partial-choice
// process.
#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "core/stale_view.hpp"
#include "core/two_choice.hpp"
#include "parallel/sharded_runner.hpp"

namespace proxcache {
namespace {

TEST(StaleLoadView, SnapshotLagsUntilRefresh) {
  LoadTracker tracker(4);
  StaleLoadView view(tracker, 3);
  tracker.assign(2, 0);
  tracker.assign(2, 0);
  EXPECT_EQ(view.load(2), 0u) << "snapshot must not see live updates";
  view.refresh();
  EXPECT_EQ(view.load(2), 2u);
}

TEST(StaleLoadView, OnAssignmentRefreshesAtThePeriod) {
  LoadTracker tracker(2);
  StaleLoadView view(tracker, 2);
  tracker.assign(0, 0);
  view.on_assignment(tracker.assigned());  // 1 % 2 != 0: stale
  EXPECT_EQ(view.load(0), 0u);
  tracker.assign(0, 0);
  view.on_assignment(tracker.assigned());  // 2 % 2 == 0: refresh
  EXPECT_EQ(view.load(0), 2u);
}

TEST(StaleLoadView, RejectsZeroPeriod) {
  LoadTracker tracker(1);
  EXPECT_THROW(StaleLoadView(tracker, 0), std::invalid_argument);
}

// Refresh boundary, exactly: with period p the snapshot refreshes on the
// p-th, 2p-th, … assignment and at no other point — off-by-one here would
// silently shift every stale-information experiment.
TEST(StaleLoadView, RefreshBoundaryIsExact) {
  LoadTracker tracker(1);
  StaleLoadView view(tracker, 3);
  const std::vector<Load> expected_after = {0, 0, 3, 3, 3, 6, 6, 6, 9};
  for (std::size_t step = 0; step < expected_after.size(); ++step) {
    tracker.assign(0, 0);
    view.on_assignment(tracker.assigned());
    EXPECT_EQ(view.load(0), expected_after[step])
        << "after assignment " << (step + 1);
  }
}

// period == trace length: the only refresh lands on the very last
// assignment, after every comparison already happened — so a run behaves
// exactly like one whose snapshot never refreshes at all.
TEST(StaleSimulation, PeriodEqualToTraceLengthMatchesNeverRefreshed) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=15)");
  config.num_files = 30;
  config.cache_size = 5;
  config.seed = 11;
  config.strategy_spec = parse_strategy_spec("two-choice");
  config.strategy_spec.params["stale"] =
      static_cast<double>(config.effective_requests());
  const RunResult at_length = run_simulation(config, 0);
  config.strategy_spec.params["stale"] = 1u << 30;  // never refreshes
  const RunResult never = run_simulation(config, 0);
  EXPECT_EQ(at_length.max_load, never.max_load);
  EXPECT_EQ(at_length.comm_cost, never.comm_cost);
  EXPECT_EQ(at_length.requests, never.requests);
}

// Fallback/drop events are not assignments: a run that only drops must
// never advance the staleness clock (on_assignment is keyed to
// tracker.assigned(), which stays 0).
TEST(StaleLoadView, FallbacksAndDropsDoNotAdvanceTheClock) {
  LoadTracker tracker(2);
  StaleLoadView view(tracker, 1);
  tracker.note_fallback();
  tracker.drop();
  tracker.note_fallback();
  EXPECT_EQ(tracker.assigned(), 0u);
  EXPECT_EQ(view.load(0), 0u);
  EXPECT_EQ(view.load(1), 0u);
  EXPECT_EQ(tracker.fallbacks(), 2u);
  EXPECT_EQ(tracker.dropped(), 1u);
}

// End-to-end: a stale two-choice run where the tiny radius forces fallback
// drops must complete with a consistent request ledger — every generated
// request is either assigned or counted dropped.
TEST(StaleSimulation, StaleRunWithFallbackDropsKeepsTheLedger) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=20)");
  config.num_files = 60;
  config.cache_size = 2;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.1;
  config.strategy_spec =
      parse_strategy_spec("two-choice(r=1, fallback=drop, stale=5)");
  config.seed = 12;
  const RunResult result = run_simulation(config, 0);
  EXPECT_GT(result.dropped, 0u) << "radius 1 must provoke drops";
  EXPECT_EQ(result.requests + result.dropped, config.effective_requests());
}

TEST(StaleSimulation, FreshEqualsPeriodOne) {
  ExperimentConfig fresh;
  fresh.topology_spec = parse_topology_spec("torus(side=15)");
  fresh.num_files = 30;
  fresh.cache_size = 5;
  fresh.seed = 5;
  fresh.strategy_spec = parse_strategy_spec("two-choice");
  ExperimentConfig period_one = fresh;
  period_one.strategy_spec = parse_strategy_spec("two-choice(stale=1)");
  // stale_batch = 1 keeps the plain tracker path; results identical.
  const RunResult a = run_simulation(fresh, 0);
  const RunResult b = run_simulation(period_one, 0);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_DOUBLE_EQ(a.comm_cost, b.comm_cost);
}

TEST(StaleSimulation, ExtremeStalenessDegradesTowardOneChoice) {
  // Never-refreshed loads (period >> m) make the comparison vacuous (all
  // zeros → uniform tie break), i.e. effectively one uniform choice.
  ExperimentConfig base;
  base.topology_spec = parse_topology_spec("torus(side=32)");
  base.num_files = 16;
  base.cache_size = 8;
  base.seed = 6;
  base.strategy_spec = parse_strategy_spec("two-choice");

  ExperimentConfig stale = base;
  stale.strategy_spec = parse_strategy_spec("two-choice");
  stale.strategy_spec.params["stale"] = 1 << 30;

  double fresh_load = 0.0;
  double stale_load = 0.0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    fresh_load += run_simulation(base, i).max_load;
    stale_load += run_simulation(stale, i).max_load;
  }
  EXPECT_GT(stale_load, fresh_load + 4.0)
      << "useless load information must cost balance";
}

TEST(StaleSimulation, ModerateStalenessDegradesGracefully) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=32)");
  config.num_files = 16;
  config.cache_size = 8;
  config.seed = 7;
  config.strategy_spec = parse_strategy_spec("two-choice");

  double last = 0.0;
  for (const std::uint32_t period : {1u, 64u, 1u << 30}) {
    config.strategy_spec.params["stale"] = period;
    double total = 0.0;
    for (std::uint64_t i = 0; i < 6; ++i) {
      total += run_simulation(config, i).max_load;
    }
    EXPECT_GE(total + 1.0, last)
        << "staleness must not *improve* balance (period " << period << ")";
    last = total;
  }
}

/// The sharded engine at width 4 must reproduce its width-1 schedule
/// bit-for-bit: `choose` on the commit thread reads the stale snapshot
/// exactly where the inline schedule does.
void expect_width_one_equals_width_four(const SimulationContext& context,
                                        std::size_t batch) {
  const RunResult inline_schedule = ShardedRunner(context, {1, batch}).run(0);
  const RunResult sharded = ShardedRunner(context, {4, batch}).run(0);
  EXPECT_EQ(sharded.max_load, inline_schedule.max_load);
  EXPECT_EQ(sharded.comm_cost, inline_schedule.comm_cost);
  EXPECT_EQ(sharded.requests, inline_schedule.requests);
  EXPECT_EQ(sharded.load_histogram.counts(),
            inline_schedule.load_histogram.counts());
}

// The frozen corner: with a staleness period >= the trace length the
// snapshot never refreshes before the final assignment, so every load
// choose() compares is the all-zero snapshot while the live loads diverge
// throughout the run.
TEST(StaleSimulation, FrozenStaleViewIsWidthInvariant) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=15)");
  config.num_files = 30;
  config.cache_size = 5;
  config.seed = 13;
  config.strategy_spec = parse_strategy_spec("two-choice");
  config.strategy_spec.params["stale"] =
      static_cast<double>(config.effective_requests());
  config.shard_batch = 64;
  const SimulationContext context(config);
  expect_width_one_equals_width_four(context, 64);
}

// The refreshing corner: a short staleness period means the snapshot *does*
// change mid-run, exactly at refresh boundaries, and a batch of 53 (coprime
// to the period) puts refreshes at every offset within a batch. The commit
// thread drives the refreshes, so every width must see them at the same
// requests.
TEST(StaleSimulation, RefreshingStaleViewIsWidthInvariant) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=8)");
  config.num_files = 20;
  config.cache_size = 4;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.5;
  config.seed = 14;
  config.strategy_spec = parse_strategy_spec("two-choice(stale=7)");
  config.shard_batch = 53;  // coprime to the period: refreshes straddle
  const SimulationContext context(config);
  expect_width_one_equals_width_four(context, 53);
}

TEST(OnePlusBeta, BetaOneIsTheDefaultProcess) {
  ExperimentConfig a;
  a.topology_spec = parse_topology_spec("torus(side=15)");
  a.num_files = 10;
  a.cache_size = 5;
  a.seed = 8;
  a.strategy_spec = parse_strategy_spec("two-choice");
  ExperimentConfig b = a;
  b.strategy_spec = parse_strategy_spec("two-choice(beta=1)");
  EXPECT_EQ(run_simulation(a, 0).max_load, run_simulation(b, 0).max_load);
}

TEST(OnePlusBeta, BetaZeroMatchesOneChoiceLevel) {
  ExperimentConfig one_choice;
  one_choice.topology_spec = parse_topology_spec("torus(side=32)");
  one_choice.num_files = 16;
  one_choice.cache_size = 8;
  one_choice.seed = 9;
  one_choice.strategy_spec = parse_strategy_spec("two-choice(d=1)");
  ExperimentConfig beta_zero = one_choice;
  beta_zero.strategy_spec = parse_strategy_spec("two-choice(d=2, beta=0)");

  double l_one = 0.0;
  double l_beta = 0.0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    l_one += run_simulation(one_choice, i).max_load;
    l_beta += run_simulation(beta_zero, i).max_load;
  }
  EXPECT_NEAR(l_one / 8.0, l_beta / 8.0, 1.0);
}

TEST(OnePlusBeta, LoadDecreasesInBeta) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=32)");
  config.num_files = 16;
  config.cache_size = 8;
  config.seed = 10;
  config.strategy_spec = parse_strategy_spec("two-choice");

  std::vector<double> loads;
  for (const double beta : {0.0, 0.5, 1.0}) {
    config.strategy_spec.params["beta"] = beta;
    double total = 0.0;
    for (std::uint64_t i = 0; i < 8; ++i) {
      total += run_simulation(config, i).max_load;
    }
    loads.push_back(total / 8.0);
  }
  EXPECT_GT(loads[0], loads[1] - 0.3);
  EXPECT_GT(loads[1], loads[2] - 0.3);
  EXPECT_GT(loads[0], loads[2] + 0.5) << "beta=1 must clearly beat beta=0";
}

TEST(OnePlusBeta, RejectsBadBeta) {
  const Lattice lattice(5, Wrap::Torus);
  Rng rng(1);
  const Placement placement = Placement::generate(
      25, Popularity::uniform(4), 2,
      PlacementMode::ProportionalWithReplacement, rng);
  const ReplicaIndex index(lattice, placement);
  TwoChoiceOptions options;
  options.beta = -0.1;
  EXPECT_THROW(TwoChoiceStrategy(index, options), std::invalid_argument);
  options.beta = 1.1;
  EXPECT_THROW(TwoChoiceStrategy(index, options), std::invalid_argument);
}

}  // namespace
}  // namespace proxcache
