// Reproduces Theorem 6: with M = K (every node caches the whole library),
// Strategy II achieves maximum load Θ(log log n) and communication cost
// Θ(n^β) for ANY β = Ω(log log n / log n) — i.e. an almost-free radius
// already buys full balance.
//
// The bench fixes a small library cached everywhere (distinct placement,
// M = K) and sweeps tiny radii across n.
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ballsbins/theory.hpp"
#include "core/experiment.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("thm6_full_memory_radius");
  const std::vector<std::size_t> node_counts = {400, 1600, 6400, 25600};
  const std::vector<Hop> radii = {2, 4, 8};
  const std::size_t library = 16;  // M = K = 16
  ThreadPool pool(options.threads);

  Table table({"n", "r", "max load", "lnln n", "cost", "cost/r", "2r/3"});
  bool flat_ok = true;
  bool cost_ok = true;
  std::vector<double> final_loads;
  for (const Hop r : radii) {
    std::vector<double> loads;
    for (const std::size_t n : node_counts) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
      config.num_files = library;
      config.cache_size = library;  // M = K
      config.placement_mode = PlacementMode::DistinctProportional;
      config.strategy_spec =
          StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      loads.push_back(result.max_load.mean());
      const double cost = result.comm_cost.mean();
      table.add_row(
          {Cell(static_cast<std::int64_t>(n)),
           Cell(static_cast<std::int64_t>(r)), Cell(loads.back(), 2),
           Cell(std::log(std::log(static_cast<double>(n))), 2),
           Cell(cost, 2), Cell(cost / static_cast<double>(r), 3),
           Cell(2.0 * static_cast<double>(r) / 3.0, 2)});
      // Cost must scale with r, not n: the mean distance of a uniform
      // point in the L1 ball of radius r is ~2r/3.
      cost_ok &= cost > 0.3 * static_cast<double>(r) &&
                 cost < 1.1 * static_cast<double>(r);
    }
    // Flatness in n at fixed r: a 64x larger torus should cost < 1.5 more.
    flat_ok &= (loads.back() - loads.front()) < 1.5;
    final_loads.push_back(loads.back());
  }
  bench::print_table(table, options);

  bench::print_verdict(flat_ok,
                       "max load ~flat in n at every tiny radius "
                       "(Theta(log log n))");
  bench::print_verdict(cost_ok, "communication cost is Theta(r), not "
                                "Theta(sqrt(n))");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "thm6_full_memory_radius",
      "Theorem 6: M=K needs only r = n^Omega(loglog/log) for full balance",
      /*quick_runs=*/20, /*paper_runs=*/1000);
  proxcache::bench::print_banner(
      "Theorem 6 — full replication, tiny radius",
      "torus, M = K = 16 (library cached everywhere), r in {2,4,8}, n to "
      "25600",
      "L = Theta(log log n) flat in n; C = Theta(r) independent of n",
      options);
  return run(options);
}
