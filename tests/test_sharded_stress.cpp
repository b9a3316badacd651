// Stress suite for the sharded engine, registered under the `slow` ctest
// label and exercised by the TSan CI job: (1) a 10k-replication Monte-Carlo
// sweep where every replication itself runs sharded — replication-level
// chunked submission on an outer pool nested over per-run worker pools —
// checked bit-identical against the sequential execution of the same
// sweep; (2) a long single run with a deliberately tiny batch and many
// threads, maximizing batch-boundary and worker-handoff crossings, checked
// against the engine's inline serial schedule. Any shard race — a worker
// touching live loads, a commit overtaking a proposal, a lane sharing
// scratch — shows up here as a metrics divergence (or as a ThreadSanitizer
// report in the tsan preset).
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "parallel/sharded_runner.hpp"
#include "parallel/thread_pool.hpp"
#include "strategy/registry.hpp"

namespace proxcache {
namespace {

void expect_identical_experiments(const ExperimentResult& a,
                                  const ExperimentResult& b,
                                  const std::string& label) {
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.max_load.mean(), b.max_load.mean()) << label;
  EXPECT_EQ(a.max_load.min(), b.max_load.min()) << label;
  EXPECT_EQ(a.max_load.max(), b.max_load.max()) << label;
  EXPECT_EQ(a.max_load.variance(), b.max_load.variance()) << label;
  EXPECT_EQ(a.comm_cost.mean(), b.comm_cost.mean()) << label;
  EXPECT_EQ(a.comm_cost.variance(), b.comm_cost.variance()) << label;
  EXPECT_EQ(a.fallback_rate, b.fallback_rate) << label;
  EXPECT_EQ(a.resample_rate, b.resample_rate) << label;
  EXPECT_EQ(a.drop_rate, b.drop_rate) << label;
  EXPECT_EQ(a.pooled_load_histogram.counts(),
            b.pooled_load_histogram.counts())
      << label;
}

// 10k sharded replications, submitted to an outer pool in worker-sized
// chunks (run_experiment's submission policy), each replication spinning
// its own inner engine pool. The pooled sweep must reproduce the
// sequential sweep exactly — nested pools and chunked submission may not
// leak into results.
TEST(ShardedStress, TenThousandShardedReplicationsChunkedSubmission) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.num_files = 40;
  config.cache_size = 4;
  config.num_requests = 50;
  config.threads = 2;
  config.shard_batch = 16;
  config.strategy_spec = parse_strategy_spec("two-choice(r=4)");
  config.seed = 0x57E5;
  const SimulationContext context(config);

  constexpr std::size_t kRuns = 10000;
  ThreadPool outer(4);
  const ExperimentResult pooled = run_experiment(context, kRuns, &outer);
  const ExperimentResult sequential = run_experiment(context, kRuns, nullptr);
  expect_identical_experiments(pooled, sequential,
                               "10k sharded replications");
  EXPECT_EQ(pooled.runs, kRuns);
}

// The race hunt: one long run, 8 threads, batch 64 (thousands of pipeline
// handoffs), stale view + (1+β) + finite radius all active, against the
// inline serial schedule. Repeated across two run indices so placement and
// trace differ.
TEST(ShardedStress, LongSingleRunShardRaceHunt) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=20)");
  config.num_files = 80;
  config.cache_size = 6;
  config.num_requests = 200000;
  config.strategy_spec =
      parse_strategy_spec("two-choice(r=4, beta=0.7, stale=5)");
  config.seed = 0x8ACE;
  const SimulationContext context(config);
  for (std::uint64_t run_index = 0; run_index < 2; ++run_index) {
    const RunResult reference = ShardedRunner(context, {1, 64}).run(run_index);
    const RunResult sharded = ShardedRunner(context, {8, 64}).run(run_index);
    const std::string label = "race hunt run " + std::to_string(run_index);
    EXPECT_EQ(reference.max_load, sharded.max_load) << label;
    EXPECT_EQ(reference.comm_cost, sharded.comm_cost) << label;
    EXPECT_EQ(reference.requests, sharded.requests) << label;
    EXPECT_EQ(reference.fallbacks, sharded.fallbacks) << label;
    EXPECT_EQ(reference.dropped, sharded.dropped) << label;
    EXPECT_EQ(reference.load_histogram.counts(),
              sharded.load_histogram.counts())
        << label;
  }
}

// Engine counters sanity on a sharded run: every admitted request is
// proposed off-thread exactly once and lane totals tile the request count.
TEST(ShardedStress, ShardStatsTileTheRun) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.num_files = 40;
  config.cache_size = 4;
  config.num_requests = 5000;
  config.strategy_spec = parse_strategy_spec("two-choice");
  config.seed = 0x57A7;
  const SimulationContext context(config);
  ShardStats stats;
  const RunResult result = ShardedRunner(context, {4, 512}).run(0, &stats);
  EXPECT_EQ(stats.requests, 5000u);
  EXPECT_EQ(stats.proposed_off_thread, 5000u);
  EXPECT_EQ(stats.batches, (5000u + 511u) / 512u);
  std::uint64_t lane_total = 0;
  for (const std::uint64_t lane : stats.lane_requests) lane_total += lane;
  EXPECT_EQ(lane_total, 5000u);
  EXPECT_EQ(result.requests + result.dropped,
            static_cast<std::uint64_t>(config.num_requests));
}

}  // namespace
}  // namespace proxcache
