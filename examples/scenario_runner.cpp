// Scenario × strategy × topology matrix runner over the three open
// registries.
//
// Runs every requested workload scenario (flash crowds, diurnal cycles,
// catalog churn, temporal locality, adversarial hot keys, plus the paper
// baselines) under each requested assignment strategy, on each requested
// network topology, on the thread pool — one table row per matrix cell, or
// CSV with --csv. Strategies and topologies are spec strings resolved by
// their registries, so any registered policy or network shape (including
// ones added after this binary was written) can be swept without touching
// this file.
//
//   $ ./scenario_runner --list
//   $ ./scenario_runner --scenario flash-crowd --runs 40
//   $ ./scenario_runner --scenario all --csv > matrix.csv
//   $ ./scenario_runner --strategy "least-loaded(r=8)"
//                       --strategy "prox-weighted(d=2, alpha=1.5)"
//   $ ./scenario_runner --scenario hotspot --topology "torus(side=20)"
//                       --topology "ring(n=400)" --topology "tree"
#include <algorithm>
#include <cctype>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/registry.hpp"
#include "strategy/registry.hpp"
#include "tier/materialize.hpp"
#include "tier/registry.hpp"
#include "topology/registry.hpp"
#include "util/catalogs.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace proxcache;

  ArgParser args("scenario_runner",
                 "workload-scenario x strategy x topology matrix on the "
                 "thread pool");
  args.add_string_list("scenario", {"all"},
                       "scenario name (see --list), repeatable; "
                       "'all' runs the full registry");
  args.add_string_list(
      "strategy",
      {"nearest", "two-choice", "two-choice(r=8)"},
      "strategy spec string (see --list), repeatable, e.g. "
      "'least-loaded(r=8)' or 'two-choice(d=2, r=16, beta=0.7)'");
  args.add_string_list(
      "topology", {"default"},
      "topology spec string (see --list), repeatable, e.g. 'ring(n=400)' "
      "or 'tree(branching=4, depth=6)'; 'default' keeps each preset's "
      "lattice (honoring --n)");
  args.add_string(
      "tiers", "",
      "tier hierarchy: a preset name (see --list) or a tiers(...) spec, "
      "e.g. 'tiers(front=torus(side=8)x8, back=ring(n=64), origin=1)'; "
      "composes front/back/origin tiers and enables the cross-tier "
      "strategies (mutually exclusive with --topology)");
  args.add_flag("list",
                "print the registered scenarios, strategies, topologies, "
                "cache policies and tier presets, then exit");
  args.add_int("runs", 20, "Monte-Carlo replications per matrix cell", 1);
  args.add_int("seed", 0x5EED, "root seed");
  args.add_int("n", 0,
               "override server count for 'default' topologies (perfect "
               "square; 0 = preset)",
               0);
  args.add_int("files", 0, "override catalog size K (0 = preset)", 0);
  args.add_int("cache", 0, "override cache slots M (0 = preset)", 0);
  args.add_int("requests", 0, "override requests per run (0 = n requests)",
               0);
  args.add_int("threads", 0,
               "replication-pool workers, one run per task (0 = hardware "
               "concurrency)",
               0, ThreadPool::kMaxThreads);
  args.add_int("run-threads", 1,
               "engine width *within* each run: >= 2 routes runs through "
               "the sharded split-phase engine (its own seed contract; see "
               "parallel/sharded_runner.hpp)",
               1, ThreadPool::kMaxThreads);
  args.add_flag("csv", "emit CSV instead of an aligned table");
  args.add_int("max-rss-mb", 0,
               "fail (exit 1) when process peak RSS exceeds this many MiB "
               "after the matrix finishes (0 = no ceiling); the CI "
               "large-topology smoke job uses it as a memory-model gate",
               0);
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

  const ScenarioRegistry& registry = ScenarioRegistry::built_ins();
  const StrategyRegistry& strategies = StrategyRegistry::global();
  const TopologyRegistry& topologies = TopologyRegistry::global();
  if (args.get_flag("list")) {
    print_catalogs(std::cout);
    return 0;
  }

  // --tiers resolves through the tier registry (preset name or raw
  // tiers(...) grammar) into `config.tier_spec`; config.validate() rejects
  // a simultaneous explicit --topology below.
  TierSpec tier_spec;
  if (!args.get_string("tiers").empty()) {
    try {
      tier_spec = TierRegistry::built_ins().resolve(args.get_string("tiers"));
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }
  }

  // Every requested name is validated (a typo next to 'all' must still
  // fail loudly) and duplicates collapse to one matrix row.
  std::vector<const Scenario*> selected;
  bool run_all = false;
  for (const std::string& requested : args.get_string_list("scenario")) {
    if (requested == "all") {
      run_all = true;
      continue;
    }
    try {
      const Scenario* scenario = &registry.at(requested);
      if (std::find(selected.begin(), selected.end(), scenario) ==
          selected.end()) {
        selected.push_back(scenario);
      }
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }
  }
  if (run_all) {
    selected.clear();
    for (const Scenario& scenario : registry.all()) {
      selected.push_back(&scenario);
    }
  }

  // Every spec is validated up front so a typo in the fourth strategy
  // fails before hours of simulation, not after; duplicates collapse to
  // one matrix row, like scenarios above. The sentinel 'default' topology
  // stands for the preset's own network (empty TopologySpec), or the
  // --n lattice when --n is given.
  std::vector<StrategySpec> specs;
  std::vector<TopologySpec> topology_specs;
  try {
    for (StrategySpec& spec :
         parse_validated_specs(args.get_string_list("strategy"),
                               strategies)) {
      if (std::find(specs.begin(), specs.end(), spec) == specs.end()) {
        specs.push_back(std::move(spec));
      }
    }
    for (const std::string& text : args.get_string_list("topology")) {
      // The 'default' sentinel is matched with the same tolerance as any
      // other spec token: surrounding whitespace trimmed, case-insensitive
      // (internal whitespace is not collapsed — a name token would not
      // allow it either).
      std::size_t begin = 0;
      std::size_t end = text.size();
      while (begin < end &&
             std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
        ++begin;
      }
      while (end > begin &&
             std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
        --end;
      }
      std::string token = text.substr(begin, end - begin);
      for (char& c : token) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      TopologySpec spec;  // empty = preset default
      if (token != "default") {
        spec = parse_topology_spec(text);
        topologies.validate(spec);
      }
      if (std::find(topology_specs.begin(), topology_specs.end(), spec) ==
          topology_specs.end()) {
        topology_specs.push_back(std::move(spec));
      }
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return 2;
  }

  const auto runs = static_cast<std::size_t>(args.get_int("runs"));
  ThreadPool pool(static_cast<unsigned>(args.get_int("threads")));

  // Materialize each requested topology exactly once for the whole matrix
  // (graph-backed ones pay all-pairs BFS below the distance-oracle
  // threshold, landmark BFS passes above it), keyed by the resolved spec
  // string; every (scenario, strategy) cell shares the instance.
  std::map<std::string, std::shared_ptr<const Topology>> topology_cache;

  // Tiered matrices grow per-tier columns: the back-end tail (p99 load of
  // the deepest cache tier), origin hits and the offload ratio — the three
  // numbers the cross-tier strategies compete on.
  const bool tiered_matrix = !tier_spec.empty() && !tier_spec.degenerate();
  std::vector<std::string> headers = {"scenario",  "topology", "strategy",
                                      "max load",  "+/-",      "comm cost",
                                      "+/-",       "fallback %", "drop %"};
  if (tiered_matrix) {
    headers.insert(headers.end(),
                   {"back tail", "+/-", "origin hits", "offload %"});
  }
  Table table(std::move(headers));
  for (const Scenario* scenario : selected) {
    for (const TopologySpec& topology : topology_specs) {
      ExperimentConfig config = scenario->config;
      config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
      config.topology_spec = topology;
      config.tier_spec = tier_spec;
      if (args.get_int("files") > 0) {
        config.num_files = static_cast<std::size_t>(args.get_int("files"));
      }
      if (args.get_int("cache") > 0) {
        config.cache_size = static_cast<std::size_t>(args.get_int("cache"));
      }
      if (args.get_int("requests") > 0) {
        config.num_requests =
            static_cast<std::size_t>(args.get_int("requests"));
      }
      if (args.get_int("run-threads") > 1) {
        config.threads =
            static_cast<std::uint32_t>(args.get_int("run-threads"));
      }
      // One base context per (scenario, topology), riding on the cached
      // topology; popularity is built once per scenario and shared by
      // every strategy cell and every replication on the pool (the
      // rebinding constructor swaps only the strategy).
      std::optional<SimulationContext> base;
      try {
        if (topology.empty() && tier_spec.empty() && args.get_int("n") > 0) {
          config.topology_spec = topology_spec_from_lattice(
              static_cast<std::size_t>(args.get_int("n")), Wrap::Torus);
        }
        // A tiered config has no single registry topology, so the cache is
        // keyed by the tier-spec string instead (it also captures the
        // cache_size default the hierarchy inherits per tier).
        const std::string key =
            config.tier_spec.empty()
                ? config.resolved_topology().to_string()
                : config.tier_spec.to_string() + "@M=" +
                      std::to_string(config.cache_size);
        auto cached = topology_cache.find(key);
        if (cached == topology_cache.end()) {
          config.validate();
          cached =
              topology_cache.emplace(key, materialize_topology(config)).first;
        }
        base.emplace(config, cached->second);
      } catch (const std::invalid_argument& error) {
        std::cerr << "scenario '" << scenario->name << "' on topology '"
                  << (topology.empty() ? "default" : topology.to_string())
                  << "' with the given overrides is invalid: "
                  << error.what() << "\n";
        return 2;
      }
      const std::string topology_label = base->topology().describe();
      for (const StrategySpec& spec : specs) {
        const SimulationContext context(*base, spec);
        const ExperimentResult result = run_experiment(context, runs, &pool);
        std::vector<Cell> row = {Cell(scenario->name), Cell(topology_label),
                                 Cell(spec.to_string()),
                                 Cell(result.max_load.mean(), 2),
                                 Cell(result.max_load.standard_error(), 2),
                                 Cell(result.comm_cost.mean(), 2),
                                 Cell(result.comm_cost.standard_error(), 2),
                                 Cell(result.fallback_rate * 100.0, 1),
                                 Cell(result.drop_rate * 100.0, 1)};
        if (tiered_matrix) {
          // "Back tail" = the deepest cache tier's p99 load; origin hits =
          // requests the hierarchy failed to absorb.
          const TierSummary* back = nullptr;
          const TierSummary* origin = nullptr;
          for (const TierSummary& tier : result.tiers) {
            if (tier.role == "origin") {
              origin = &tier;
            } else {
              back = &tier;
            }
          }
          row.push_back(back != nullptr ? Cell(back->tail_p99.mean(), 2)
                                        : Cell("-"));
          row.push_back(back != nullptr
                            ? Cell(back->tail_p99.standard_error(), 2)
                            : Cell("-"));
          row.push_back(origin != nullptr ? Cell(origin->served.mean(), 1)
                                          : Cell(0.0, 1));
          row.push_back(Cell(result.origin_offload.mean() * 100.0, 2));
        }
        table.add_row(std::move(row));
      }
    }
  }
  if (args.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (args.get_int("max-rss-mb") > 0) {
    const std::uint64_t peak = peak_rss_bytes();
    const std::uint64_t ceiling =
        static_cast<std::uint64_t>(args.get_int("max-rss-mb")) << 20;
    std::cerr << "peak RSS " << peak / (1024.0 * 1024.0) << " MiB (ceiling "
              << args.get_int("max-rss-mb") << " MiB)\n";
    if (peak > ceiling) {
      std::cerr << "FAIL: peak RSS exceeds the --max-rss-mb ceiling\n";
      return 1;
    }
  }
  return 0;
}
