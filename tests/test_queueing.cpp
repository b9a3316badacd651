// Tests for the queueing extension (the event engine's supermarket model):
// M/M/1 ground truth, stability, utilization, and the JSQ(2) advantage the
// paper's §VI conjectures.
#include "event/engine.hpp"

#include <gtest/gtest.h>

namespace proxcache {
namespace {

DynamicConfig base_config() {
  DynamicConfig config;
  config.network.topology_spec = parse_topology_spec("torus(side=10)");
  config.network.num_files = 20;
  config.network.cache_size = 5;
  config.network.seed = 5;
  config.network.strategy_spec = parse_strategy_spec("two-choice");
  config.network.trace.arrival_rate = 0.5;
  config.service_rate = 1.0;
  config.horizon = 300.0;
  config.warmup_fraction = 0.25;
  return config;
}

TEST(Supermarket, MM1SojournMatchesTheory) {
  // Single server, single file: pure M/M/1 with λ=0.5, μ=1 → E[T] = 2.
  DynamicConfig config;
  config.network.topology_spec = parse_topology_spec("torus(side=1)");
  config.network.num_files = 1;
  config.network.cache_size = 1;
  config.network.strategy_spec = parse_strategy_spec("nearest");
  config.network.trace.arrival_rate = 0.5;
  config.service_rate = 1.0;
  config.horizon = 20000.0;
  config.warmup_fraction = 0.2;
  const QueueingResult result = run_dynamic(config, 1).queueing;
  EXPECT_GT(result.completed, 5000u);
  EXPECT_NEAR(result.mean_sojourn, 2.0, 0.3);
  EXPECT_NEAR(result.utilization, 0.5, 0.05);
  // Little's law: E[N] = λ E[T] (per the single server).
  EXPECT_NEAR(result.mean_queue,
              config.network.trace.arrival_rate * result.mean_sojourn, 0.3);
}

TEST(Supermarket, StableSystemHasModestQueues) {
  const QueueingResult result = run_dynamic(base_config(), 2).queueing;
  EXPECT_GT(result.completed, 1000u);
  EXPECT_LT(result.mean_queue, 5.0);
  EXPECT_NEAR(result.utilization, 0.5, 0.12);
}

TEST(Supermarket, DeterministicInSeed) {
  const DynamicConfig config = base_config();
  const QueueingResult a = run_dynamic(config, 3).queueing;
  const QueueingResult b = run_dynamic(config, 3).queueing;
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.mean_sojourn, b.mean_sojourn);
  const QueueingResult c = run_dynamic(config, 4).queueing;
  EXPECT_NE(a.completed, c.completed);
}

TEST(Supermarket, TwoChoiceBeatsOneChoiceUnderLoad) {
  // At high utilization JSQ(2) shortens queues vs a single random choice —
  // the supermarket-model phenomenon the paper invokes.
  DynamicConfig two = base_config();
  two.network.trace.arrival_rate = 0.9;
  two.horizon = 1500.0;
  DynamicConfig one = two;
  one.network.strategy_spec = parse_strategy_spec("two-choice(d=1)");
  double two_q = 0.0;
  double one_q = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    two_q += run_dynamic(two, 10 + s).queueing.mean_queue;
    one_q += run_dynamic(one, 10 + s).queueing.mean_queue;
  }
  EXPECT_LT(two_q, one_q);
}

TEST(Supermarket, ProximityRadiusBoundsHops) {
  DynamicConfig config = base_config();
  config.network.strategy_spec = parse_strategy_spec("two-choice(r=3)");
  const QueueingResult result = run_dynamic(config, 7).queueing;
  EXPECT_LE(result.mean_hops, 4.0);  // fallbacks may exceed r occasionally
  EXPECT_GT(result.completed, 100u);
}

TEST(Supermarket, HigherLoadLongerQueues) {
  DynamicConfig light = base_config();
  light.network.trace.arrival_rate = 0.3;
  DynamicConfig heavy = base_config();
  heavy.network.trace.arrival_rate = 0.9;
  const QueueingResult l = run_dynamic(light, 8).queueing;
  const QueueingResult h = run_dynamic(heavy, 8).queueing;
  EXPECT_LT(l.mean_queue, h.mean_queue);
  EXPECT_LT(l.utilization, h.utilization);
}

TEST(Supermarket, ValidatesParameters) {
  DynamicConfig config = base_config();
  config.network.trace.arrival_rate = 0.0;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);
  config = base_config();
  config.service_rate = -1.0;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);
  config = base_config();
  config.horizon = 0.0;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);
  config = base_config();
  config.warmup_fraction = 1.0;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);
}

// The queueing model cannot honor the stale-information parameter (queue
// lengths are live by construction); a spec requesting it must be rejected
// rather than silently simulating a different model.
TEST(Supermarket, RejectsStaleSpecParameter) {
  DynamicConfig config = base_config();
  config.network.strategy_spec =
      parse_strategy_spec("two-choice(r=8, stale=64)");
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);
  config.network.strategy_spec = parse_strategy_spec("two-choice(r=8)");
  EXPECT_NO_THROW(run_dynamic(config, 1));
  // An explicit always-fresh request is fine: stale=1 is the live model.
  config.network.strategy_spec = parse_strategy_spec("two-choice(stale=1)");
  EXPECT_NO_THROW(run_dynamic(config, 1));
}

}  // namespace
}  // namespace proxcache
