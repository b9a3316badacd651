// Reproduces Theorem 1: Strategy I with K = n^{1-ε} and M = Θ(1) has
// maximum load Θ(log n) w.h.p. under Uniform popularity.
//
// The bench sweeps n for ε ∈ {0.3, 0.5}, fits the measured max-load series
// against candidate growth laws and reports the R² ranking; log n (or the
// near-collinear log n / log log n) must win.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ballsbins/theory.hpp"
#include "core/experiment.hpp"
#include "stats/scaling.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("thm1_nearest_log_growth");
  const std::vector<std::size_t> node_counts = {100,  400,  1024, 2500,
                                                4900, 8100, 16384};
  const std::vector<double> epsilons = {0.3, 0.5};

  ThreadPool pool(options.threads);
  Table table({"n", "K(eps=0.3)", "L(eps=0.3)", "K(eps=0.5)", "L(eps=0.5)",
               "ln n"});
  std::vector<std::vector<double>> series(epsilons.size());

  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t ei = 0; ei < epsilons.size(); ++ei) {
      const auto k = static_cast<std::size_t>(
          std::round(std::pow(static_cast<double>(n), 1.0 - epsilons[ei])));
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = std::max<std::size_t>(k, 2);
      config.cache_size = 1;  // M = Θ(1)
      config.strategy_spec = parse_strategy_spec("nearest");
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      series[ei].push_back(result.max_load.mean());
      row.emplace_back(static_cast<std::int64_t>(config.num_files));
      row.emplace_back(result.max_load.mean(), 2);
    }
    row.emplace_back(ballsbins::log_reference(n), 2);
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);

  std::vector<double> ns(node_counts.begin(), node_counts.end());
  bool ok = true;
  for (std::size_t ei = 0; ei < epsilons.size(); ++ei) {
    const ScalingReport report = classify_growth(ns, series[ei]);
    const bool law_ok = report.best == GrowthLaw::Log ||
                        report.best == GrowthLaw::LogOverLogLog ||
                        report.best == GrowthLaw::LogLog;
    ok &= law_ok;
    std::cout << "eps=" << epsilons[ei] << ": best fit '"
              << to_string(report.best)
              << "', R2(log n) = " << report.r2_of(GrowthLaw::Log)
              << ", R2(sqrt n) = " << report.r2_of(GrowthLaw::Sqrt) << "\n";
  }
  bench::print_verdict(
      ok, "Strategy I max load tracks a logarithmic-family growth law");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "thm1_nearest_log_growth",
      "Theorem 1: Strategy I max load is Theta(log n) for K=n^{1-eps}, "
      "M=Theta(1)",
      /*quick_runs=*/30, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Theorem 1 — Strategy I max load growth",
      "torus, K = n^{1-eps} (eps in {0.3, 0.5}), M = 1, uniform popularity",
      "max load = Theta(log n) w.h.p.", options);
  return run(options);
}
