// Reproduces paper Figure 2: communication cost of Strategy I versus cache
// size, one curve per library size.
//
// Paper setup: torus n = 2025, Uniform popularity, K ∈ {100, 1000, 2000},
// M = 1 … 100, 10000 runs. Expected shape: C = Θ(sqrt(K/M)) (Theorem 3) —
// decreasing in M, increasing in K (paper: 0 … 25 hops).
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "catalog/popularity.hpp"
#include "core/cost_model.hpp"
#include "core/experiment.hpp"
#include "stats/regression.hpp"

namespace {

using namespace proxcache;

int run(const bench::BenchOptions& options) {
  const bench::ScopedBenchTimer bench_timer("fig2_cost_nearest");
  const std::vector<std::size_t> cache_sizes = {1, 2, 5, 10, 20, 40, 60, 80,
                                                100};
  const std::vector<std::size_t> library_sizes = {100, 1000, 2000};

  Table table({"M", "K=100", "K=100 thry", "K=1000", "K=1000 thry", "K=2000",
               "K=2000 thry"});
  ThreadPool pool(options.threads);

  // measured[k][m], reference[k][m]
  std::vector<std::vector<double>> measured(library_sizes.size());
  std::vector<std::vector<double>> reference(library_sizes.size());
  for (std::size_t ki = 0; ki < library_sizes.size(); ++ki) {
    for (const std::size_t m : cache_sizes) {
      ExperimentConfig config;
      config.topology_spec = parse_topology_spec("torus(side=45)");
      config.num_files = library_sizes[ki];
      config.cache_size = m;
      config.strategy_spec = parse_strategy_spec("nearest");
      config.seed = options.seed;
      const ExperimentResult result =
          run_experiment(config, options.runs, &pool);
      measured[ki].push_back(result.comm_cost.mean());
      // Exact finite-torus model (core/cost_model.hpp): closed form, no
      // free constant — the "thry" columns are directly comparable.
      reference[ki].push_back(nearest_cost_model(
          Lattice::from_node_count(2025, Wrap::Torus),
          Popularity::uniform(library_sizes[ki]), m));
    }
  }
  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    table.add_row({Cell(static_cast<std::int64_t>(cache_sizes[mi])),
                   Cell(measured[0][mi], 2), Cell(reference[0][mi], 2),
                   Cell(measured[1][mi], 2), Cell(reference[1][mi], 2),
                   Cell(measured[2][mi], 2), Cell(reference[2][mi], 2)});
  }
  bench::print_table(table, options);

  bool shape_ok = true;
  for (std::size_t ki = 0; ki < library_sizes.size(); ++ki) {
    const double rho = pearson(measured[ki], reference[ki]);
    shape_ok &= rho > 0.99;
    std::cout << "K=" << library_sizes[ki]
              << ": Pearson(measured, exact finite model) = " << rho << "\n";
  }
  bool k_ordering = true;
  for (std::size_t mi = 0; mi < cache_sizes.size(); ++mi) {
    k_ordering &= measured[0][mi] <= measured[1][mi] + 0.2 &&
                  measured[1][mi] <= measured[2][mi] + 0.2;
  }
  bench::print_verdict(shape_ok, "cost follows Theta(sqrt(K/M)) closely");
  bench::print_verdict(k_ordering, "larger library costs more at every M");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = proxcache::bench::parse_bench_options(
      argc, argv, "fig2_cost_nearest",
      "Figure 2: Strategy I communication cost vs cache size",
      /*quick_runs=*/20, /*paper_runs=*/10000);
  proxcache::bench::print_banner(
      "Figure 2 — Strategy I communication cost vs M",
      "torus n=2025, uniform popularity, K in {100,1000,2000}, M=1..100",
      "cost ~ sqrt(K/M): falls in M, rises in K (paper: 0-25 hops)",
      options);
  return run(options);
}
