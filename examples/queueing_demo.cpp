// Continuous-time demo (paper §VI): the supermarket model on a cache
// network. Requests arrive as a Poisson process, servers drain FIFO queues
// at exponential rate, and the dispatch policy joins the shorter queue
// among the candidates its strategy spec selects — the same spec strings
// the batch simulator takes, resolved by the StrategyRegistry.
//
//   $ ./queueing_demo --lambda 0.9
//   $ ./queueing_demo --strategy "least-loaded(r=8)" --strategy nearest
//
// Shows that the paper's static load-balancing win carries over to queueing
// delay — the §VI conjecture.
#include <iostream>

#include "queueing/supermarket.hpp"
#include "strategy/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace proxcache;

  ArgParser args("queueing_demo",
                 "supermarket model on the cache network (paper §VI)");
  args.add_int("n", 400, "number of servers (perfect square)", 1);
  args.add_int("files", 100, "library size K", 1);
  args.add_int("cache", 10, "cache slots per server M", 1);
  args.add_double("lambda", 0.9, "arrival rate per server (stability: < 1)");
  args.add_string_list("strategy", {"two-choice(r=8)", "nearest"},
                       "dispatch policy spec string, repeatable");
  args.add_double("horizon", 2000.0, "simulated time units");
  args.add_int("seed", 3, "root seed");
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

  QueueingConfig config;
  config.network.num_nodes = static_cast<std::size_t>(args.get_int("n"));
  config.network.num_files = static_cast<std::size_t>(args.get_int("files"));
  config.network.cache_size =
      static_cast<std::size_t>(args.get_int("cache"));
  config.network.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.arrival_rate = args.get_double("lambda");
  config.service_rate = 1.0;
  config.horizon = args.get_double("horizon");
  config.warmup_fraction = 0.25;

  Table table({"policy", "mean sojourn", "mean queue", "max queue",
               "mean hops", "utilization", "completed"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  // Every spec is validated before the first (long) simulation runs, so a
  // typo in the last one cannot waste the earlier runs. That includes the
  // queueing-specific rule run_supermarket enforces: `stale` has no meaning
  // against live queue lengths.
  std::vector<StrategySpec> specs;
  try {
    specs = parse_validated_specs(args.get_string_list("strategy"));
    for (const StrategySpec& spec : specs) {
      if (spec.get_or("stale", 1.0) != 1.0) {
        throw std::invalid_argument(
            "strategy '" + spec.to_string() +
            "': the queueing model compares live queue lengths; drop the "
            "'stale' parameter");
      }
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return 2;
  }
  for (const StrategySpec& spec : specs) {
    config.network.strategy_spec = spec;
    QueueingResult result;
    try {
      result = run_supermarket(config, seed);
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }
    table.add_row({Cell(config.network.strategy_spec.to_string()),
                   Cell(result.mean_sojourn, 3), Cell(result.mean_queue, 3),
                   Cell(static_cast<std::int64_t>(result.max_queue)),
                   Cell(result.mean_hops, 2), Cell(result.utilization, 3),
                   Cell(static_cast<std::int64_t>(result.completed))});
  }

  std::cout << "supermarket model: n=" << config.network.num_nodes
            << ", lambda=" << config.arrival_rate << ", mu=1, horizon="
            << config.horizon << "\n\n";
  table.print(std::cout);
  std::cout << "\nJSQ(2)-within-radius trades a few extra hops for much "
               "shorter queues at high load\n(the paper's §VI conjecture, "
               "validated in continuous time).\n";
  return 0;
}
