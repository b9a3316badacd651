// Reproduces Remark 2: Strategy I's Θ(log n) maximum load is insensitive
// to the popularity profile, because cache placement is proportional to the
// same law that drives requests — popular files get proportionally more
// replicas, so per-replica demand stays balanced.
//
// The bench compares the Strategy I max-load series across Uniform and
// Zipf(γ) popularity at matched (n, K, M) and checks the curves coincide
// within noise and share the logarithmic growth.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "stats/scaling.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("remark2_zipf_maxload");
  const std::vector<std::size_t> node_counts = {225, 625, 1600, 3025};
  const std::vector<double> gammas = {0.0, 0.8, 1.2, 2.0};  // 0 = uniform
  ThreadPool pool(options.threads);

  Table table({"n", "uniform", "zipf(0.8)", "zipf(1.2)", "zipf(2.0)"});
  std::vector<std::vector<double>> series(gammas.size());
  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t gi = 0; gi < gammas.size(); ++gi) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = 100;
      config.cache_size = 4;
      config.strategy_spec = parse_strategy_spec("nearest");
      if (gammas[gi] > 0.0) {
        config.popularity.kind = PopularityKind::Zipf;
        config.popularity.gamma = gammas[gi];
      }
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      series[gi].push_back(result.max_load.mean());
      row.emplace_back(result.max_load.mean(), 2);
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);

  // Insensitivity: at every n, the spread across popularity laws is small
  // relative to the level.
  double worst_spread = 0.0;
  for (std::size_t p = 0; p < node_counts.size(); ++p) {
    double lo = 1e18;
    double hi = 0.0;
    for (const auto& s : series) {
      lo = std::min(lo, s[p]);
      hi = std::max(hi, s[p]);
    }
    worst_spread = std::max(worst_spread, (hi - lo) / hi);
  }
  bool all_log = true;
  std::vector<double> ns(node_counts.begin(), node_counts.end());
  for (const auto& s : series) {
    const ScalingReport report = classify_growth(ns, s);
    all_log &= report.best == GrowthLaw::Log ||
               report.best == GrowthLaw::LogOverLogLog ||
               report.best == GrowthLaw::LogLog;
  }
  bench::print_verdict(worst_spread < 0.20,
                       "max load differs < 20% across popularity laws at "
                       "every n");
  bench::print_verdict(all_log,
                       "every popularity law keeps the logarithmic growth");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "remark2_zipf_maxload",
      "Remark 2: Strategy I max load is insensitive to popularity skew",
      /*quick_runs=*/40, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Remark 2 — popularity-insensitivity of Strategy I max load",
      "torus, K=100, M=4; Uniform vs Zipf gamma in {0.8, 1.2, 2.0}",
      "placement proportional to demand keeps Theta(log n) for every law",
      options);
  return run(options);
}
