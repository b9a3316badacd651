// Reproduces paper Figure 3: maximum load of Strategy II (two choices,
// r = ∞) versus the number of servers, one curve per cache size.
//
// Paper setup: torus, K = 2000 files, Uniform popularity, M ∈ {1,2,10,100},
// n up to 1.2·10^5, 800 runs. Expected shape: for small M the curve first
// grows (replication too thin — correlation kills the two choices, Example
// 2) and then *improves* once n·M/K gives enough replicas per file; for
// M ∈ {10, 100} the curve stays low and flat (power of two choices).
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("fig3_maxload_twochoice");
  const std::vector<std::size_t> node_counts = {2500,  10000, 22500, 40000,
                                                62500, 90000, 122500};
  const std::vector<std::size_t> cache_sizes = {1, 2, 10, 100};

  Table table({"n", "M=1", "M=2", "M=10", "M=100"});
  std::vector<std::vector<double>> series(cache_sizes.size());
  ThreadPool pool(options.threads);

  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = 2000;
      config.cache_size = cache_sizes[mi];
      config.strategy_spec = parse_strategy_spec("two-choice");  // r = ∞ default
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      series[mi].push_back(result.max_load.mean());
      row.emplace_back(result.max_load.mean(), 2);
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);

  // Shape checks.
  // (1) High-memory curves (M=10, M=100) stay low and nearly flat.
  const auto range_of = [](const std::vector<double>& ys) {
    const auto [lo, hi] = std::minmax_element(ys.begin(), ys.end());
    return *hi - *lo;
  };
  const bool high_memory_flat =
      range_of(series[2]) <= 2.0 && range_of(series[3]) <= 2.0;
  // (2) Low-memory curve M=1 exceeds the high-memory curves early on
  // (the correlation penalty of Example 2).
  const bool low_memory_penalty = series[0][0] > series[3][0] + 1.0;
  // (3) The M=1 curve eventually improves: its value at the largest n is
  // below its peak (transition region of the paper's discussion).
  const double peak_m1 = *std::max_element(series[0].begin(), series[0].end());
  const bool hump = series[0].back() <= peak_m1;

  bench::print_verdict(high_memory_flat,
                       "M in {10,100}: flat low curves (power of 2 choices)");
  bench::print_verdict(low_memory_penalty,
                       "M=1 starts far above M=100 (correlation penalty)");
  bench::print_verdict(hump, "M=1 curve peaks before the largest n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "fig3_maxload_twochoice",
      "Figure 3: Strategy II (r=inf) max load vs number of servers",
      /*quick_runs=*/8, /*paper_runs=*/800);
  proxcache::bench::print_banner(
      "Figure 3 — Strategy II maximum load vs n (r = inf)",
      "torus, K=2000, uniform popularity, M in {1,2,10,100}, n to 122500",
      "M small: rise then improve (replication transition); M large: flat "
      "low (paper: 3-11)",
      options);
  return run(options);
}
