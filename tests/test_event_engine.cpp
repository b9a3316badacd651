// Tests for the discrete-event dynamic engine: validation, evolving-cache
// behavior (misses, inserts, evictions, cache-along-return-path), hop
// latency, windowed metric accounting, and the windowed collector itself.
#include "event/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "stats/windowed.hpp"

namespace proxcache {
namespace {

DynamicConfig base_config() {
  DynamicConfig config;
  config.network.topology_spec = parse_topology_spec("torus(side=10)");
  config.network.num_files = 40;
  config.network.cache_size = 5;
  config.network.seed = 5;
  config.network.strategy_spec = parse_strategy_spec("two-choice");
  config.network.trace.arrival_rate = 0.5;
  config.service_rate = 1.0;
  config.horizon = 200.0;
  config.warmup_fraction = 0.25;
  config.metric_windows = 8;
  return config;
}

TEST(EventEngine, ValidatesParameters) {
  DynamicConfig config = base_config();
  config.network.trace.arrival_rate = 0.0;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);

  config = base_config();
  config.hop_latency = -0.5;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);

  config = base_config();
  config.metric_windows = 0;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);

  // The window count is capped before the collector sizes its series; the
  // cap itself runs.
  config = base_config();
  config.metric_windows = kMaxMetricWindows + 1;
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);
  config.metric_windows = kMaxMetricWindows;
  config.horizon = 1.0;
  EXPECT_EQ(run_dynamic(config, 1).windows.size(), kMaxMetricWindows);

  config = base_config();
  config.cache_policy = parse_cache_policy_spec("bogus");
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);

  // Live queue lengths cannot honor a staleness request.
  config = base_config();
  config.network.strategy_spec = parse_strategy_spec("two-choice(stale=64)");
  EXPECT_THROW(run_dynamic(config, 1), std::invalid_argument);
}

TEST(EventEngine, EvolvingPolicyChurnsTheCache) {
  DynamicConfig config = base_config();
  // Capacity below the placement footprint trims at startup and keeps
  // churning: misses, fetches, inserts, and evictions must all appear.
  config.cache_policy = parse_cache_policy_spec("lru(capacity=2)");
  const DynamicResult result = run_dynamic(config, 7);
  EXPECT_GT(result.queueing.completed, 1000u);
  EXPECT_GT(result.misses, 0u);
  EXPECT_GT(result.inserts, 0u);
  EXPECT_GT(result.evictions, 0u);
  EXPECT_GT(result.hit_rate, 0.0);
  EXPECT_LT(result.hit_rate, 1.0);
  // Every completion consulted the cache exactly once (lookups cover the
  // whole run; `completed` only counts past warmup).
  EXPECT_GE(result.hits + result.misses, result.queueing.completed);
}

TEST(EventEngine, HopLatencyStretchesSojourns) {
  DynamicConfig fast = base_config();
  DynamicConfig slow = base_config();
  slow.hop_latency = 0.5;
  const DynamicResult a = run_dynamic(fast, 3);
  const DynamicResult b = run_dynamic(slow, 3);
  ASSERT_GT(a.queueing.completed, 0u);
  ASSERT_GT(b.queueing.completed, 0u);
  // Sojourn now includes forward and return propagation over >= 0 hops;
  // with mean hops well above zero the shift is unmissable.
  EXPECT_GT(b.queueing.mean_sojourn, a.queueing.mean_sojourn);
  EXPECT_GT(b.p99_sojourn, a.p99_sojourn);
}

TEST(EventEngine, CacheOnPathAddsOriginInserts) {
  DynamicConfig base = base_config();
  base.cache_policy = parse_cache_policy_spec("lru(capacity=3)");
  DynamicConfig on_path = base;
  on_path.cache_on_path = true;
  const DynamicResult without = run_dynamic(base, 9);
  const DynamicResult with = run_dynamic(on_path, 9);
  EXPECT_GT(with.inserts, without.inserts);
}

TEST(EventEngine, WindowsPartitionTheRun) {
  DynamicConfig config = base_config();
  config.cache_policy = parse_cache_policy_spec("lfu(capacity=3)");
  const DynamicResult result = run_dynamic(config, 11);
  ASSERT_EQ(result.windows.size(), config.metric_windows);

  std::uint64_t arrivals = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double prev_end = 0.0;
  for (const WindowMetrics& w : result.windows) {
    EXPECT_EQ(w.t_begin, prev_end);
    EXPECT_GT(w.t_end, w.t_begin);
    prev_end = w.t_end;
    arrivals += w.arrivals;
    hits += w.hits;
    misses += w.misses;
    if (w.hits + w.misses > 0) {
      EXPECT_GE(w.hit_rate, 0.0);
      EXPECT_LE(w.hit_rate, 1.0);
    }
    if (w.completed > 0) {
      EXPECT_GT(w.p99_sojourn, 0.0);
      EXPECT_GT(w.mean_sojourn, 0.0);
    }
  }
  EXPECT_EQ(prev_end, config.horizon);
  EXPECT_EQ(arrivals, result.admitted);
  EXPECT_EQ(hits, result.hits);
  EXPECT_EQ(misses, result.misses);
}

TEST(EventEngine, FlashCrowdRunsDeterministically) {
  DynamicConfig config = base_config();
  config.network.trace.kind = TraceKind::FlashCrowd;
  config.cache_policy = parse_cache_policy_spec("ewma(capacity=3, decay=0.3)");
  const DynamicResult a = run_dynamic(config, 13);
  const DynamicResult b = run_dynamic(config, 13);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.inserts, b.inserts);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.queueing.mean_sojourn, b.queueing.mean_sojourn);
  EXPECT_EQ(a.p99_sojourn, b.p99_sojourn);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].arrivals, b.windows[i].arrivals);
    EXPECT_EQ(a.windows[i].hit_rate, b.windows[i].hit_rate);
    EXPECT_EQ(a.windows[i].p99_sojourn, b.windows[i].p99_sojourn);
  }
}

TEST(WindowedCollector, BinsByTimeWithClamping) {
  WindowedCollector collector(10.0, 4);
  EXPECT_EQ(collector.windows(), 4u);
  EXPECT_EQ(collector.width(), 2.5);
  collector.record_arrival(-1.0);  // clamps into the first window
  collector.record_arrival(0.0);
  collector.record_arrival(2.5);   // exactly on a boundary: second window
  collector.record_arrival(9.9);
  collector.record_arrival(25.0);  // past the horizon: last window
  collector.record_lookup(1.0, true);
  collector.record_lookup(1.5, false);
  collector.record_completion(8.0, 3.0);
  collector.record_queue_peak(3.0, 7);

  const auto series = collector.finalize();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0].arrivals, 2u);
  EXPECT_EQ(series[1].arrivals, 1u);
  EXPECT_EQ(series[3].arrivals, 2u);
  EXPECT_EQ(series[0].hit_rate, 0.5);
  EXPECT_EQ(series[1].max_queue, 7u);
  EXPECT_EQ(series[3].completed, 1u);
  EXPECT_EQ(series[3].mean_sojourn, 3.0);
  EXPECT_EQ(series[3].p99_sojourn, 3.0);
}

TEST(WindowedCollector, RejectsDegenerateShapes) {
  EXPECT_THROW(WindowedCollector(0.0, 4), std::invalid_argument);
  EXPECT_THROW(WindowedCollector(10.0, 0), std::invalid_argument);
}

TEST(WindowedCollector, NearestRankQuantile) {
  std::vector<double> values(100);
  std::iota(values.begin(), values.end(), 1.0);  // 1..100
  EXPECT_EQ(sample_quantile(values, 0.99), 99.0);
  EXPECT_EQ(sample_quantile(values, 0.5), 50.0);
  EXPECT_EQ(sample_quantile(values, 1.0), 100.0);
  std::vector<double> one{42.0};
  EXPECT_EQ(sample_quantile(one, 0.99), 42.0);
  std::vector<double> empty;
  EXPECT_EQ(sample_quantile(empty, 0.99), 0.0);
}

}  // namespace
}  // namespace proxcache
