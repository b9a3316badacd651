// Ablation: cache placement mode — the paper's proportional placement WITH
// replacement (duplicates waste slots; t(u) <= M) versus distinct
// popularity-biased placement (t(u) = M exactly).
//
// Expected: distinct placement is slightly better on both metrics (more
// distinct replicas per node), with the gap widest where M/K is large
// enough that duplicate draws are common.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("ablation_placement");
  const std::vector<std::size_t> cache_sizes = {1, 2, 5, 10, 50};
  ThreadPool pool(options.threads);

  Table table({"M", "repl. L", "dist. L", "repl. C", "dist. C"});
  bool load_ok = true;
  bool cost_ok = true;
  for (const std::size_t m : cache_sizes) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=32)");
    config.num_files = 100;
    config.cache_size = m;
    config.strategy_spec = parse_strategy_spec("two-choice(r=8)");
    config.seed = options.seed;

    config.placement_mode = PlacementMode::ProportionalWithReplacement;
    const ExperimentResult with_replacement =
        run_experiment(config, options.runs, &pool);
    config.placement_mode = PlacementMode::DistinctProportional;
    const ExperimentResult distinct =
        run_experiment(config, options.runs, &pool);

    table.add_row({Cell(static_cast<std::int64_t>(m)),
                   Cell(with_replacement.max_load.mean(), 2),
                   Cell(distinct.max_load.mean(), 2),
                   Cell(with_replacement.comm_cost.mean(), 2),
                   Cell(distinct.comm_cost.mean(), 2)});
    load_ok &= distinct.max_load.mean() <=
               with_replacement.max_load.mean() + 0.3;
    cost_ok &=
        distinct.comm_cost.mean() <= with_replacement.comm_cost.mean() + 0.3;
  }
  bench::print_table(table, options);

  bench::print_verdict(load_ok,
                       "distinct placement never balances worse");
  bench::print_verdict(cost_ok, "distinct placement never costs more");
  std::cout << "note: the paper's analysis uses with-replacement placement; "
               "the gap quantifies what its Lemma 2 'goodness' slack "
               "(t(u) >= deltaM) gives away.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "ablation_placement",
      "Ablation: with-replacement vs distinct cache placement",
      /*quick_runs=*/30, /*paper_runs=*/2000);
  proxcache::bench::print_banner(
      "Ablation — placement mode",
      "torus n=1024, K=100, r=8, two choices; M sweep",
      "distinct placement is mildly better (t(u) = M instead of >= deltaM)",
      options);
  return run(options);
}
