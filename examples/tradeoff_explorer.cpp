// Trade-off explorer: regenerate the paper's Figure 5 curve for *your*
// parameters and emit CSV ready for plotting.
//
//   $ ./tradeoff_explorer --n 2025 --files 500 --cache 20 --runs 100 > tradeoff.csv
//
// Columns: r, comm_cost, max_load, ci95(max_load), fallback_rate. The
// interesting read is the (comm_cost, max_load) parametric curve: with
// enough replication it is L-shaped — a tiny cost buys the full power of
// two choices (paper Theorem 4 / Figure 5).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "topology/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace proxcache;

  ArgParser args("tradeoff_explorer",
                 "sweep the proximity radius and emit the load/cost curve");
  args.add_int("n", 2025, "number of servers (perfect square)", 1);
  args.add_int("files", 500, "library size K", 1);
  args.add_int("cache", 20, "cache slots per server M", 1);
  args.add_string("popularity", "uniform", "'uniform' or 'zipf'");
  args.add_double("gamma", 0.8, "Zipf exponent (ignored for uniform)");
  args.add_int("runs", 100, "replications per radius", 1);
  args.add_int("max-radius", 0,
               "largest radius (0 = half the side; capped at the diameter)",
               0);
  args.add_int("seed", 11, "root seed");
  args.add_flag("table", "print an aligned table instead of CSV");
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

  const auto n = static_cast<std::size_t>(args.get_int("n"));
  ExperimentConfig config;
  try {
    config.topology_spec = topology_spec_from_lattice(n, Wrap::Torus);
    config.num_files = static_cast<std::size_t>(args.get_int("files"));
    config.cache_size = static_cast<std::size_t>(args.get_int("cache"));
    const std::string popularity = args.get_string("popularity");
    if (popularity != "uniform" && popularity != "zipf") {
      throw std::invalid_argument(
          "--popularity must be 'uniform' or 'zipf', got '" + popularity +
          "'");
    }
    config.popularity.kind = popularity == "zipf" ? PopularityKind::Zipf
                                                  : PopularityKind::Uniform;
    config.popularity.gamma = args.get_double("gamma");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.validate();
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return 2;
  }
  const auto runs = static_cast<std::size_t>(args.get_int("runs"));

  const Lattice lattice = Lattice::from_node_count(n, Wrap::Torus);
  std::int64_t requested = args.get_int("max-radius");
  if (requested == 0) {
    requested = lattice.side() / 2;
  }
  // A radius past the diameter admits the same candidates as the diameter.
  const auto max_radius = static_cast<Hop>(
      std::min<std::int64_t>(requested, lattice.diameter()));

  std::vector<Hop> radii;
  for (Hop r = 1; r <= max_radius;
       r = r < 4 ? r + 1 : static_cast<Hop>(r * 5 / 4 + 1)) {
    radii.push_back(r);
  }

  ThreadPool pool;
  Table table({"r", "comm_cost", "max_load", "max_load_ci95",
               "fallback_rate"});
  for (const Hop r : radii) {
    config.strategy_spec =
        StrategySpec{"two-choice", {{"r", static_cast<double>(r)}}};
    const ExperimentResult result = run_experiment(config, runs, &pool);
    table.add_row({Cell(static_cast<std::int64_t>(r)),
                   Cell(result.comm_cost.mean(), 3),
                   Cell(result.max_load.mean(), 3),
                   Cell(result.max_load.ci95_halfwidth(), 3),
                   Cell(result.fallback_rate, 5)});
  }
  if (args.get_flag("table")) {
    table.print(std::cout);
  } else {
    table.print_csv(std::cout);
  }
  return 0;
}
