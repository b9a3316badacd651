// Tests for core/simulation: conservation, determinism, and cross-strategy
// coherence of one full run.
#include "core/simulation.hpp"

#include <gtest/gtest.h>

namespace proxcache {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=15)");
  config.num_files = 50;
  config.cache_size = 5;
  config.seed = 99;
  return config;
}

TEST(Simulation, ConservationUnderResample) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("nearest");
  const RunResult result = run_simulation(config, 0);
  // Resample keeps all n requests; none dropped.
  EXPECT_EQ(result.requests, config.resolved_nodes());
  EXPECT_EQ(result.dropped, 0u);
  // Histogram covers every server and sums loads back to requests.
  EXPECT_EQ(result.load_histogram.total(), config.resolved_nodes());
  std::uint64_t weighted = 0;
  for (std::uint64_t v = 0; v <= result.load_histogram.max_value(); ++v) {
    weighted += v * result.load_histogram.at(v);
  }
  EXPECT_EQ(weighted, result.requests);
  EXPECT_EQ(result.load_histogram.max_value(), result.max_load);
}

TEST(Simulation, DeterministicPerRunIndex) {
  const ExperimentConfig config = base_config();
  const RunResult a = run_simulation(config, 3);
  const RunResult b = run_simulation(config, 3);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_DOUBLE_EQ(a.comm_cost, b.comm_cost);
  EXPECT_EQ(a.resampled, b.resampled);
}

TEST(Simulation, DifferentRunsDiffer) {
  const ExperimentConfig config = base_config();
  // Over several runs, at least one metric must differ somewhere.
  bool differs = false;
  const RunResult first = run_simulation(config, 0);
  for (std::uint64_t i = 1; i < 6 && !differs; ++i) {
    const RunResult other = run_simulation(config, i);
    differs = other.comm_cost != first.comm_cost ||
              other.max_load != first.max_load;
  }
  EXPECT_TRUE(differs);
}

TEST(Simulation, TwoChoiceUnboundedRadiusRuns) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("two-choice");
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, config.resolved_nodes());
  EXPECT_GT(result.comm_cost, 0.0);
}

TEST(Simulation, TwoChoiceFiniteRadiusCostBounded) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("two-choice(r=3)");
  const RunResult result = run_simulation(config, 0);
  // Nearly all requests stay within the radius; the mean can only exceed
  // the radius if fallbacks dominate, which they must not at M=5, K=50.
  EXPECT_LT(result.comm_cost, 4.0);
  EXPECT_LT(result.fallbacks, result.requests / 4);
}

TEST(Simulation, NearestCostLowerThanTwoChoiceUnbounded) {
  ExperimentConfig nearest = base_config();
  nearest.strategy_spec = parse_strategy_spec("nearest");
  ExperimentConfig two = base_config();
  two.strategy_spec = parse_strategy_spec("two-choice");
  double nearest_cost = 0.0;
  double two_cost = 0.0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    nearest_cost += run_simulation(nearest, i).comm_cost;
    two_cost += run_simulation(two, i).comm_cost;
  }
  EXPECT_LT(nearest_cost, two_cost);
}

TEST(Simulation, GridModeRuns) {
  ExperimentConfig config = base_config();
  config.topology_spec = parse_topology_spec("grid(side=15)");
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, config.resolved_nodes());
}

TEST(Simulation, ExplicitRequestCount) {
  ExperimentConfig config = base_config();
  config.num_requests = 1000;
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, 1000u);
}

TEST(Simulation, PlacementObservablesPopulated) {
  const ExperimentConfig config = base_config();
  const RunResult result = run_simulation(config, 0);
  EXPECT_GE(result.placement_min_distinct, 1u);
  EXPECT_LE(result.placement_min_distinct, config.cache_size);
  EXPECT_GE(result.files_with_replicas, 1u);
  EXPECT_LE(result.files_with_replicas, config.num_files);
}

TEST(Simulation, ValidatesConfig) {
  ExperimentConfig config = base_config();
  config.cache_size = 0;
  EXPECT_THROW(run_simulation(config, 0), std::invalid_argument);
}

TEST(Simulation, DescribeMentionsKeyParameters) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("two-choice(r=12)");
  const std::string text = config.describe();
  EXPECT_NE(text.find("n=225"), std::string::npos);
  EXPECT_NE(text.find("K=50"), std::string::npos);
  EXPECT_NE(text.find("M=5"), std::string::npos);
  EXPECT_NE(text.find("r=12"), std::string::npos);
}

}  // namespace
}  // namespace proxcache
