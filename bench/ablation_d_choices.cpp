// Ablation: number of choices d in the proximity-aware strategy.
//
// The paper fixes d = 2 ("power of two choices"); this ablation sweeps
// d ∈ {1, 2, 3, 4} at a Figure 5 operating point to show (i) the massive
// one→two gap, (ii) diminishing returns beyond two, and (iii) that the
// communication cost is insensitive to d (candidates are uniform in the
// same ball regardless).
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("ablation_d_choices");
  const std::vector<std::uint32_t> choices = {1, 2, 3, 4};
  ThreadPool pool(options.threads);

  Table table({"d", "max load", "ci95", "comm cost", "fallback %"});
  std::vector<double> loads;
  std::vector<double> costs;
  for (const std::uint32_t d : choices) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=45)");
    config.num_files = 500;
    config.cache_size = 20;
    config.strategy_spec = StrategySpec{
        "two-choice", {{"d", static_cast<double>(d)}, {"r", 10.0}}};
    config.seed = options.seed;
    const ExperimentResult result =
        run_experiment(config, options.runs, &pool);
    loads.push_back(result.max_load.mean());
    costs.push_back(result.comm_cost.mean());
    table.add_row({Cell(static_cast<std::int64_t>(d)),
                   Cell(result.max_load.mean(), 2),
                   Cell(result.max_load.ci95_halfwidth(), 2),
                   Cell(result.comm_cost.mean(), 2),
                   Cell(result.fallback_rate * 100.0, 2)});
  }
  bench::print_table(table, options);

  const double one_two_gap = loads[0] - loads[1];
  const double two_four_gap = loads[1] - loads[3];
  bool cost_flat = true;
  for (const double c : costs) {
    cost_flat &= std::abs(c - costs[0]) < 0.5;
  }
  bench::print_verdict(one_two_gap > 1.0,
                       "d=1 -> d=2 is the big win (exponential improvement)");
  bench::print_verdict(two_four_gap < one_two_gap,
                       "returns diminish beyond two choices");
  bench::print_verdict(cost_flat, "communication cost insensitive to d");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "ablation_d_choices",
      "Ablation: candidate count d in the proximity-aware strategy",
      /*quick_runs=*/40, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Ablation — d choices",
      "torus n=2025, K=500, M=20, r=10, d in {1,2,3,4}",
      "one->two is the exponential step; beyond two only constants improve",
      options);
  return run(options);
}
