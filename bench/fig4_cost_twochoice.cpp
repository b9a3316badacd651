// Reproduces paper Figure 4: communication cost of Strategy II (r = ∞)
// versus the number of servers, one curve per cache size.
//
// Paper setup: same sweep as Figure 3. Expected shape: with no proximity
// constraint the chosen replica is a uniform random replica, so the cost
// grows as Θ(sqrt(n)) — the mean torus distance — essentially independent of
// M (paper: 10 … 100 hops).
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "stats/regression.hpp"
#include "stats/scaling.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("fig4_cost_twochoice");
  const std::vector<std::size_t> node_counts = {2500,  10000, 22500, 40000,
                                                62500, 90000, 122500};
  const std::vector<std::size_t> cache_sizes = {1, 2, 10, 100};

  Table table({"n", "sqrt(n)/2", "M=1", "M=2", "M=10", "M=100"});
  std::vector<std::vector<double>> series(cache_sizes.size());
  ThreadPool pool(options.threads);

  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n)),
                             Cell(std::sqrt(static_cast<double>(n)) / 2.0, 1)};
    for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = 2000;
      config.cache_size = cache_sizes[mi];
      config.strategy_spec = parse_strategy_spec("two-choice");  // r = ∞
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      series[mi].push_back(result.comm_cost.mean());
      row.emplace_back(result.comm_cost.mean(), 2);
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);

  std::vector<double> ns(node_counts.begin(), node_counts.end());
  bool sqrt_ok = true;
  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    const ScalingReport report = classify_growth(ns, series[mi]);
    sqrt_ok &= report.best == GrowthLaw::Sqrt;
    std::cout << "M=" << cache_sizes[mi] << ": best growth fit '"
              << to_string(report.best)
              << "' (R2 sqrt = " << report.r2_of(GrowthLaw::Sqrt) << ")\n";
  }
  // Curves should nearly coincide across M (cost is replica-placement
  // driven, not cache-size driven, once every file has replicas).
  double max_gap = 0.0;
  for (std::size_t p = 0; p < ns.size(); ++p) {
    const double lo = std::min({series[0][p], series[1][p], series[2][p],
                                series[3][p]});
    const double hi = std::max({series[0][p], series[1][p], series[2][p],
                                series[3][p]});
    max_gap = std::max(max_gap, (hi - lo) / hi);
  }
  bench::print_verdict(sqrt_ok, "cost grows as Theta(sqrt(n)) for every M");
  bench::print_verdict(max_gap < 0.15,
                       "curves nearly coincide across cache sizes");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "fig4_cost_twochoice",
      "Figure 4: Strategy II (r=inf) communication cost vs servers",
      /*quick_runs=*/8, /*paper_runs=*/800);
  proxcache::bench::print_banner(
      "Figure 4 — Strategy II communication cost vs n (r = inf)",
      "torus, K=2000, uniform popularity, M in {1,2,10,100}, n to 122500",
      "cost ~ Theta(sqrt(n)), insensitive to M (paper: 10-100 hops)",
      options);
  return run(options);
}
