// CDN capacity-planning scenario (the paper's motivating application).
//
// A video CDN provisions a lattice of edge caches for a Zipf-popular
// catalog. The operator wants the smallest redirection radius r whose
// worst-case server load stays under a target, and the communication cost
// that radius implies. This example sweeps r and prints a planning table
// plus a recommendation.
//
//   $ ./cdn_simulation --n 2025 --files 1000 --cache 20 --gamma 0.8 --target-load 5
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "topology/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace proxcache;

  ArgParser args("cdn_simulation",
                 "radius planning for a Zipf CDN on a torus of edge caches");
  args.add_int("n", 2025, "number of edge caches (perfect square)", 1);
  args.add_int("files", 1000, "catalog size K", 1);
  args.add_int("cache", 20, "cache slots per server M", 1);
  args.add_double("gamma", 0.8, "Zipf popularity exponent");
  args.add_int("target-load", 5, "maximum tolerable per-server load");
  args.add_int("runs", 40, "Monte-Carlo replications per radius", 1);
  args.add_int("seed", 7, "root seed");
  try {
    args.parse(argc, argv);
  } catch (const CliError& error) {
    std::cerr << error.what() << "\n\n" << args.help_text();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.help_text();
    return 0;
  }

  ExperimentConfig config;
  try {
    config.topology_spec = topology_spec_from_lattice(
        static_cast<std::size_t>(args.get_int("n")), Wrap::Torus);
    config.num_files = static_cast<std::size_t>(args.get_int("files"));
    config.cache_size = static_cast<std::size_t>(args.get_int("cache"));
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = args.get_double("gamma");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.validate();
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return 2;
  }
  const auto runs = static_cast<std::size_t>(args.get_int("runs"));
  const auto target = static_cast<double>(args.get_int("target-load"));

  ThreadPool pool;

  // Baseline: nearest replica (minimum cost, unmanaged load).
  config.strategy_spec = parse_strategy_spec("nearest");
  const ExperimentResult baseline = run_experiment(config, runs, &pool);

  Table table({"policy", "max load", "comm cost", "fallback %"});
  table.add_row({Cell("nearest replica"), Cell(baseline.max_load.mean(), 2),
                 Cell(baseline.comm_cost.mean(), 2), Cell(0.0, 1)});

  const std::vector<Hop> radii = {2, 4, 6, 8, 12, 16, 22};
  Hop recommended = 0;
  double recommended_cost = 0.0;
  for (const Hop r : radii) {
    config.strategy_spec =
        StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
    const ExperimentResult result = run_experiment(config, runs, &pool);
    table.add_row({Cell("two-choice r=" + std::to_string(r)),
                   Cell(result.max_load.mean(), 2),
                   Cell(result.comm_cost.mean(), 2),
                   Cell(result.fallback_rate * 100.0, 1)});
    if (recommended == 0 && result.max_load.mean() <= target) {
      recommended = r;
      recommended_cost = result.comm_cost.mean();
    }
  }
  table.print(std::cout);

  std::cout << '\n';
  if (recommended > 0) {
    std::cout << "recommendation: radius r=" << recommended
              << " meets the target max load <= " << target << " at "
              << recommended_cost << " hops/request (baseline nearest: "
              << baseline.max_load.mean() << " load, "
              << baseline.comm_cost.mean() << " hops).\n";
  } else {
    std::cout << "no radius met the target max load <= " << target
              << "; increase cache size M (the paper: low replication "
                 "annihilates the power of two choices).\n";
  }
  return 0;
}
