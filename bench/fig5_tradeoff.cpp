// Reproduces paper Figure 5: the maximum-load / communication-cost
// trade-off of Strategy II as the proximity radius r sweeps, one curve per
// cache size.
//
// Paper setup: torus n = 2025, K = 500 files, Uniform popularity,
// M ∈ {1,2,5,10,20,50,200}, 5000 runs. Expected shape: for large M the
// curve is L-shaped — a small communication cost already buys the full
// power of two choices (max load drops to ~3.5-4); for M = 1 the max load
// stays high (~8-9) no matter how much cost is spent; intermediate M
// interpolate.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("fig5_tradeoff");
  const std::vector<std::size_t> cache_sizes = {1, 2, 5, 10, 20, 50, 200};
  const std::vector<Hop> radii = {1, 2, 3, 4, 6, 8, 10, 14, 18, 22};

  ThreadPool pool(options.threads);
  // For each M: vector of (cost, max load) along the radius sweep.
  std::vector<std::vector<std::pair<double, double>>> curves(
      cache_sizes.size());

  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    for (const Hop r : radii) {
      ExperimentConfig config;
      config.topology_spec = parse_topology_spec("torus(side=45)");
      config.num_files = 500;
      config.cache_size = cache_sizes[mi];
      config.strategy_spec =
          StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      curves[mi].emplace_back(result.comm_cost.mean(),
                              result.max_load.mean());
    }
  }

  // One table per radius row: cost/load pairs per M, same layout as the
  // paper's parametric curves.
  Table table({"r", "M=1 cost", "M=1 L", "M=5 cost", "M=5 L", "M=20 cost",
               "M=20 L", "M=200 cost", "M=200 L"});
  const std::size_t idx_m1 = 0;
  const std::size_t idx_m5 = 2;
  const std::size_t idx_m20 = 4;
  const std::size_t idx_m200 = 6;
  for (std::size_t ri = 0; ri < radii.size(); ++ri) {
    table.add_row({Cell(static_cast<std::int64_t>(radii[ri])),
                   Cell(curves[idx_m1][ri].first, 2),
                   Cell(curves[idx_m1][ri].second, 2),
                   Cell(curves[idx_m5][ri].first, 2),
                   Cell(curves[idx_m5][ri].second, 2),
                   Cell(curves[idx_m20][ri].first, 2),
                   Cell(curves[idx_m20][ri].second, 2),
                   Cell(curves[idx_m200][ri].first, 2),
                   Cell(curves[idx_m200][ri].second, 2)});
  }
  bench::print_table(table, options);

  // Full CSV of every curve for plotting.
  if (options.csv) {
    Table csv({"M", "r", "cost", "max_load"});
    for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
      for (std::size_t ri = 0; ri < radii.size(); ++ri) {
        csv.add_row({Cell(static_cast<std::int64_t>(cache_sizes[mi])),
                     Cell(static_cast<std::int64_t>(radii[ri])),
                     Cell(curves[mi][ri].first, 3),
                     Cell(curves[mi][ri].second, 3)});
      }
    }
    bench::print_table(csv, options);
  }

  // Shape checks.
  // (1) M=200 at generous radius reaches the two-choice plateau (~<= 4.5).
  const double m200_final = curves[idx_m200].back().second;
  // (2) M=1 stays high everywhere: min over radii >= 6.
  double m1_min = 1e18;
  for (const auto& [cost, load] : curves[idx_m1]) {
    m1_min = std::min(m1_min, load);
  }
  // (3) Cost is monotone in r for every M.
  bool cost_monotone = true;
  for (const auto& curve : curves) {
    for (std::size_t ri = 1; ri < curve.size(); ++ri) {
      cost_monotone &= curve[ri].first >= curve[ri - 1].first - 0.2;
    }
  }
  // (4) Trade-off ordering at the final radius: max load decreasing in M.
  bool m_ordering = true;
  for (std::size_t mi = 0; mi + 1 < cache_sizes.size(); ++mi) {
    m_ordering &=
        curves[mi].back().second + 0.4 >= curves[mi + 1].back().second;
  }

  bench::print_verdict(m200_final <= 4.5,
                       "M=200 reaches the two-choice plateau");
  bench::print_verdict(m1_min >= 6.0,
                       "M=1 cannot trade cost for balance (stays high)");
  bench::print_verdict(cost_monotone, "communication cost is monotone in r");
  bench::print_verdict(m_ordering,
                       "larger M dominates the trade-off at large r");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "fig5_tradeoff",
      "Figure 5: Strategy II max-load vs communication-cost trade-off",
      /*quick_runs=*/25, /*paper_runs=*/5000);
  proxcache::bench::print_banner(
      "Figure 5 — Strategy II trade-off (max load vs cost), radius sweep",
      "torus n=2025, K=500, uniform popularity, M in {1,2,5,10,20,50,200}",
      "high M: L-shaped (cheap balance); M=1: flat high; cost rises with r",
      options);
  return run(options);
}
