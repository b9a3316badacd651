// Extension: the heavily loaded case (m >> n requests). The paper's
// theorems are stated at m = n; Berenbrink et al. (cited as [9]) prove the
// two-choice gap L - m/n = O(log log n) persists for any m. This bench
// sweeps the load factor β = m/n and reports the *excess* load L - β for
// both strategies: Strategy II's excess should stay ~constant in β while
// Strategy I's grows like the sqrt(β)-scaled one-choice excess.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("ext_heavy_load");
  const std::vector<std::size_t> load_factors = {1, 4, 16};
  const std::size_t n = 2025;
  ThreadPool pool(options.threads);

  Table table({"beta=m/n", "L nearest", "excess nearest", "L two-choice",
               "excess two-choice"});
  std::vector<double> nearest_excess;
  std::vector<double> two_excess;
  for (const std::size_t beta : load_factors) {
    ExperimentConfig config;
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = 500;
    config.cache_size = 20;
    config.num_requests = beta * n;
    config.seed = options.seed;

    config.strategy_spec = parse_strategy_spec("nearest");
    const ExperimentResult nearest =
        run_experiment(config, options.runs, &pool);
    config.strategy_spec = parse_strategy_spec("two-choice(r=10)");
    const ExperimentResult two = run_experiment(config, options.runs, &pool);

    const double base = static_cast<double>(beta);
    nearest_excess.push_back(nearest.max_load.mean() - base);
    two_excess.push_back(two.max_load.mean() - base);
    table.add_row({Cell(static_cast<std::int64_t>(beta)),
                   Cell(nearest.max_load.mean(), 2),
                   Cell(nearest_excess.back(), 2),
                   Cell(two.max_load.mean(), 2),
                   Cell(two_excess.back(), 2)});
  }
  bench::print_table(table, options);

  // Strategy II's excess is ~flat in beta (heavily-loaded two-choice);
  // Strategy I's excess grows (one-choice-style sqrt(beta) fluctuations).
  const bool two_flat = two_excess.back() < two_excess.front() + 1.5;
  const bool nearest_grows =
      nearest_excess.back() > nearest_excess.front() + 1.5;
  const bool separation =
      nearest_excess.back() > 2.0 * two_excess.back();
  bench::print_verdict(two_flat,
                       "two-choice excess load stays O(log log n) as m "
                       "grows");
  bench::print_verdict(nearest_grows,
                       "nearest-replica excess grows with the load factor");
  bench::print_verdict(separation,
                       "the two-choice advantage widens when heavily "
                       "loaded");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "ext_heavy_load",
      "Extension: heavily loaded case m >> n (Berenbrink et al.)",
      /*quick_runs=*/20, /*paper_runs=*/1000);
  proxcache::bench::print_banner(
      "Extension — heavily loaded case (m = beta*n requests)",
      "torus n=2025, K=500, M=20, r=10; beta in {1,4,16}",
      "two-choice: L = m/n + O(log log n); nearest: excess grows with beta",
      options);
  return run(options);
}
