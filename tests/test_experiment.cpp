// Tests for core/experiment: Monte-Carlo aggregation, thread-count
// invariance, and pooled statistics.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace proxcache {
namespace {

ExperimentConfig base_config() {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.num_files = 20;
  config.cache_size = 4;
  config.seed = 7;
  return config;
}

TEST(Experiment, AggregatesRunCount) {
  const ExperimentResult result = run_experiment(base_config(), 8);
  EXPECT_EQ(result.runs, 8u);
  EXPECT_EQ(result.max_load.count(), 8u);
  EXPECT_EQ(result.comm_cost.count(), 8u);
}

TEST(Experiment, PooledHistogramCoversAllServers) {
  const ExperimentResult result = run_experiment(base_config(), 5);
  EXPECT_EQ(result.pooled_load_histogram.total(), 5u * 100u);
}

TEST(Experiment, ParallelMatchesSequential) {
  const ExperimentConfig config = base_config();
  const ExperimentResult sequential = run_experiment(config, 6, nullptr);
  ThreadPool pool(4);
  const ExperimentResult parallel = run_experiment(config, 6, &pool);
  EXPECT_DOUBLE_EQ(sequential.max_load.mean(), parallel.max_load.mean());
  EXPECT_DOUBLE_EQ(sequential.comm_cost.mean(), parallel.comm_cost.mean());
  EXPECT_DOUBLE_EQ(sequential.max_load.variance(),
                   parallel.max_load.variance());
}

TEST(Experiment, RatesAreFractions) {
  ExperimentConfig config = base_config();
  config.strategy_spec =
      parse_strategy_spec("two-choice(r=1)");  // tiny radius provokes fallbacks
  const ExperimentResult result = run_experiment(config, 4);
  EXPECT_GE(result.fallback_rate, 0.0);
  EXPECT_GE(result.resample_rate, 0.0);
  EXPECT_EQ(result.drop_rate, 0.0);
}

TEST(Experiment, SeedChangesResults) {
  ExperimentConfig a = base_config();
  ExperimentConfig b = base_config();
  b.seed = 8;
  const ExperimentResult ra = run_experiment(a, 5);
  const ExperimentResult rb = run_experiment(b, 5);
  EXPECT_NE(ra.comm_cost.mean(), rb.comm_cost.mean());
}

TEST(Experiment, RequiresAtLeastOneRun) {
  EXPECT_THROW(run_experiment(base_config(), 0), std::invalid_argument);
}

TEST(Experiment, MoreRunsShrinkStandardError) {
  const ExperimentConfig config = base_config();
  const ExperimentResult few = run_experiment(config, 4);
  const ExperimentResult many = run_experiment(config, 32);
  EXPECT_LT(many.comm_cost.standard_error(),
            few.comm_cost.standard_error() + 1e-9);
}

// Chunked-submission stress: 10k tiny replications on a multi-thread pool
// must complete without allocating a future per run (submissions are
// batched per worker) and stay bit-deterministic across invocations and
// against the serial path.
TEST(Experiment, TenThousandTinyReplicationsStressThePool) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=4)");
  config.num_files = 4;
  config.cache_size = 2;
  config.num_requests = 8;
  config.seed = 99;
  const std::size_t runs = 10'000;
  ThreadPool pool(4);
  const SimulationContext context(config);
  const ExperimentResult pooled = run_experiment(context, runs, &pool);
  EXPECT_EQ(pooled.runs, runs);
  EXPECT_EQ(pooled.max_load.count(), runs);
  EXPECT_EQ(pooled.pooled_load_histogram.total(), runs * 16u);
  const ExperimentResult again = run_experiment(context, runs, &pool);
  EXPECT_EQ(pooled.max_load.mean(), again.max_load.mean());
  EXPECT_EQ(pooled.comm_cost.mean(), again.comm_cost.mean());
  const ExperimentResult serial = run_experiment(context, runs, nullptr);
  EXPECT_EQ(pooled.max_load.mean(), serial.max_load.mean());
  EXPECT_EQ(pooled.comm_cost.variance(), serial.comm_cost.variance());
}

// --- ExperimentConfig::validate() hardening --------------------------------

TEST(ConfigValidation, RejectsBetaOutsideUnitInterval) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("two-choice(beta=1.5)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
  config.strategy_spec = parse_strategy_spec("two-choice(beta=-0.1)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsZeroStaleBatch) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("two-choice(stale=0)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

// validate() delegates per-strategy checks to the StrategyRegistry: the
// spec must name a registered strategy and every parameter must pass that
// entry's rules before a run starts.
TEST(ConfigValidation, RejectsUnknownStrategySpecName) {
  ExperimentConfig config = base_config();
  config.strategy_spec.name = "round-robin";
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsUnknownStrategySpecParam) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("nearest(d=2)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsOutOfRangeStrategySpecParams) {
  ExperimentConfig config = base_config();
  config.strategy_spec = parse_strategy_spec("two-choice(d=99)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
  config.strategy_spec = parse_strategy_spec("two-choice(beta=2)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
  config.strategy_spec = parse_strategy_spec("two-choice(r=-3)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
  config.strategy_spec = parse_strategy_spec("prox-weighted(alpha=-1)");
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
  config.strategy_spec = parse_strategy_spec("least-loaded(r=8)");
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigValidation, RejectsHotspotFractionOutsideUnitInterval) {
  ExperimentConfig config = base_config();
  config.origins.kind = OriginKind::Hotspot;
  config.origins.hotspot_fraction = 1.2;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsHotspotRadiusReachingLatticeSide) {
  ExperimentConfig config = base_config();  // n=100, side 10
  config.origins.kind = OriginKind::Hotspot;
  config.origins.hotspot_radius = 10;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
  config.origins.hotspot_radius = 9;
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigValidation, RejectsHotspotOriginsWithFlashCrowd) {
  // FlashCrowd defines its own time-varying origin process; a static
  // hotspot OriginSpec would be silently ignored, so it is rejected.
  ExperimentConfig config = base_config();
  config.trace.kind = TraceKind::FlashCrowd;
  config.origins.kind = OriginKind::Hotspot;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsInvertedFlashWindow) {
  ExperimentConfig config = base_config();
  config.trace.kind = TraceKind::FlashCrowd;
  config.trace.flash_start = 0.8;
  config.trace.flash_end = 0.2;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsDiurnalAmplitudeExceedingGamma) {
  ExperimentConfig config = base_config();
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 0.3;
  config.trace.kind = TraceKind::Diurnal;
  config.trace.diurnal_amplitude = 0.5;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsDiurnalOnUniformCatalog) {
  ExperimentConfig config = base_config();
  config.trace.kind = TraceKind::Diurnal;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsFullChurn) {
  ExperimentConfig config = base_config();
  config.trace.kind = TraceKind::Churn;
  config.trace.churn_offline_fraction = 1.0;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsZeroLocalityDepth) {
  ExperimentConfig config = base_config();
  config.trace.kind = TraceKind::TemporalLocality;
  config.trace.locality_depth = 0;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

TEST(ConfigValidation, RejectsAttackTopKBeyondLibrary) {
  ExperimentConfig config = base_config();  // K=20
  config.trace.kind = TraceKind::Adversarial;
  config.trace.attack_top_k = 21;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
  config.trace.attack_top_k = 0;
  EXPECT_THROW(run_experiment(config, 1), std::invalid_argument);
}

}  // namespace
}  // namespace proxcache
