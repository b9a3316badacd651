// Extension: Mitzenmacher's (1+β) process on the cache network. With
// probability β the request performs the full two-choice comparison;
// otherwise it takes one uniform candidate — modelling deployments that
// probe loads only for a fraction of requests to save control traffic.
// Known behaviour: at m = n the max load interpolates roughly linearly
// between the one-choice and two-choice levels.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("ext_one_plus_beta");
  const std::vector<double> betas = {0.0, 0.25, 0.5, 0.75, 1.0};
  ThreadPool pool(options.threads);

  Table table({"beta", "max load", "ci95", "probe msgs/request"});
  std::vector<double> loads;
  for (const double beta : betas) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=45)");
    config.num_files = 500;
    config.cache_size = 20;
    config.seed = options.seed;
    config.strategy_spec =
        StrategySpec{"two-choice", {{"beta", beta}, {"r", 10.0}}};
    const ExperimentResult result =
        run_experiment(config, options.runs, &pool);
    loads.push_back(result.max_load.mean());
    // One probe for the single candidate, two when comparing.
    table.add_row({Cell(beta, 2), Cell(result.max_load.mean(), 2),
                   Cell(result.max_load.ci95_halfwidth(), 2),
                   Cell(1.0 + beta, 2)});
  }
  bench::print_table(table, options);

  bool monotone = true;
  for (std::size_t i = 1; i < loads.size(); ++i) {
    monotone &= loads[i] <= loads[i - 1] + 0.3;
  }
  const double total_gain = loads.front() - loads.back();
  // At m = n the max load interpolates roughly linearly in beta (the
  // famous "any beta breaks the log n barrier" effect concerns the
  // heavily-loaded / queueing regimes, not the m = n maximum).
  const double midpoint_gap =
      std::abs(loads[2] - 0.5 * (loads.front() + loads.back()));
  bench::print_verdict(monotone, "max load is monotone decreasing in beta");
  bench::print_verdict(total_gain > 1.0,
                       "full two choices clearly beat one choice");
  bench::print_verdict(midpoint_gap < 0.5,
                       "interpolation is ~linear in beta at m = n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "ext_one_plus_beta",
      "Extension: the (1+beta) partial-choice process",
      /*quick_runs=*/40, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Extension — (1+beta) choices (probe-traffic savings)",
      "torus n=2025, K=500, M=20, r=10; beta in {0,.25,.5,.75,1}",
      "smooth ~linear interpolation between one-choice and two-choice",
      options);
  return run(options);
}
