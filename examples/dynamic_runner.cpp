// Dynamic-mode runner: the discrete-event engine from the command line.
//
// Requests arrive over continuous time (per-node Poisson), are routed by a
// StrategyRegistry policy over *live* queue lengths, queue FIFO at the
// chosen server, and propagate their response back over the topology; cache
// contents evolve under a CachePolicyRegistry replacement policy (lru /
// lfu / ewma, or `static` for the paper's frozen placement). Prints the
// aggregate queueing + cache-dynamics summary and the time-windowed series
// (hit rate, p99 sojourn, peak queue per window). `--policy static` at zero
// hop latency is the supermarket model of paper §VI.
//
//   $ ./dynamic_runner --policy static --arrival 0.9 --horizon 2000
//   $ ./dynamic_runner --policy "lru(capacity=4)"
//   $ ./dynamic_runner --scenario flash-crowd --hop-latency 0.1
//   $ ./dynamic_runner --policy "ewma(decay=0.3)" --policy static
//   $ ./dynamic_runner --strategy nearest --topology "ring(n=400)"
//   $ ./dynamic_runner --cache-on-path --windows 12
//   $ ./dynamic_runner --list
//
// Every run is deterministic in (configuration, --seed): rerunning the
// same command reproduces every figure bit-for-bit.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "event/engine.hpp"
#include "scenario/registry.hpp"
#include "strategy/registry.hpp"
#include "tier/registry.hpp"
#include "topology/registry.hpp"
#include "util/catalogs.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace proxcache;

  ArgParser args("dynamic_runner",
                 "discrete-event dynamic engine: timed arrivals, evolving "
                 "caches, windowed metrics");
  args.add_int("n", 400, "number of servers (perfect square)", 1);
  args.add_int("files", 100, "library size K", 1);
  args.add_int("cache", 10, "cache slots per server M", 1);
  args.add_int("seed", 7, "root seed");
  args.add_string("scenario", "",
                  "workload preset (popularity, origins, trace process); "
                  "empty = uniform static workload");
  args.add_string("strategy", "two-choice",
                  "dispatch policy spec resolved by the StrategyRegistry");
  args.add_string("topology", "",
                  "topology spec, e.g. 'ring(n=400)'; empty = the torus "
                  "of --n servers");
  args.add_string("tiers", "",
                  "tier hierarchy: a preset name (see --list) or a "
                  "tiers(...) spec; misses cascade down the tiers and the "
                  "per-tier queue slice is printed (mutually exclusive "
                  "with --topology)");
  args.add_string_list(
      "policy", {"static", "lru(capacity=4)"},
      "cache replacement policy spec (repeatable), e.g. 'lfu' or "
      "'ewma(capacity=4, decay=0.3)'; capacity 0/omitted inherits M");
  args.add_double("arrival", 0.7, "per-node Poisson arrival rate (< mu)");
  args.add_double("service", 1.0, "per-server service rate mu");
  args.add_double("horizon", 200.0, "simulated time units");
  args.add_double("warmup", 0.25,
                  "fraction of the horizon excluded from aggregates");
  args.add_double("hop-latency", 0.0,
                  "response propagation time per topology hop");
  args.add_flag("cache-on-path",
                "also insert missed files at the request's origin when the "
                "response arrives");
  args.add_int("windows", 8, "time windows for the metric series", 1,
               kMaxMetricWindows);
  args.add_flag("list",
                "print the registered scenarios, strategies, topologies, "
                "cache policies and tier presets, then exit");
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
  if (args.get_flag("list")) {
    print_catalogs(std::cout);
    return 0;
  }

  DynamicConfig config;
  std::vector<CachePolicySpec> policies;
  try {
    if (!args.get_string("scenario").empty()) {
      config.network =
          ScenarioRegistry::built_ins().at(args.get_string("scenario")).config;
    }
    config.network.num_files = static_cast<std::size_t>(args.get_int("files"));
    config.network.cache_size =
        static_cast<std::size_t>(args.get_int("cache"));
    config.network.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.network.strategy_spec =
        parse_strategy_spec(args.get_string("strategy"));
    if (!args.get_string("topology").empty()) {
      config.network.topology_spec =
          parse_topology_spec(args.get_string("topology"));
    } else if (args.get_string("tiers").empty()) {
      config.network.topology_spec = topology_spec_from_lattice(
          static_cast<std::size_t>(args.get_int("n")), Wrap::Torus);
    }
    if (!args.get_string("tiers").empty()) {
      config.network.tier_spec =
          TierRegistry::built_ins().resolve(args.get_string("tiers"));
    }
    config.network.trace.arrival_rate = args.get_double("arrival");
    config.service_rate = args.get_double("service");
    config.horizon = args.get_double("horizon");
    config.warmup_fraction = args.get_double("warmup");
    config.hop_latency = args.get_double("hop-latency");
    config.cache_on_path = args.get_flag("cache-on-path");
    config.metric_windows =
        static_cast<std::uint32_t>(args.get_int("windows"));
    policies = parse_validated_policy_specs(args.get_string_list("policy"));
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return 2;
  }

  std::cout << "== dynamic_runner ==\n"
            << "strategy=" << config.network.strategy_spec.to_string()
            << ", lambda=" << config.network.trace.arrival_rate
            << ", mu=" << config.service_rate
            << ", horizon=" << config.horizon
            << ", hop latency=" << config.hop_latency
            << (config.cache_on_path ? ", cache-on-path" : "") << "\n\n";

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  Table summary({"policy", "hit%", "p99 sojourn", "mean sojourn",
                 "mean queue", "max queue", "mean hops", "utilization",
                 "completed", "evictions", "origin fetch"});
  std::vector<DynamicResult> results;
  for (const CachePolicySpec& policy : policies) {
    config.cache_policy = policy;
    DynamicResult result;
    try {
      result = run_dynamic(config, seed);
    } catch (const std::invalid_argument& error) {
      std::cerr << policy.to_string() << ": " << error.what() << "\n";
      return 2;
    }
    summary.add_row({Cell(policy.to_string()),
                     Cell(result.hit_rate * 100.0, 1),
                     Cell(result.p99_sojourn, 3),
                     Cell(result.queueing.mean_sojourn, 3),
                     Cell(result.queueing.mean_queue, 3),
                     Cell(static_cast<double>(result.queueing.max_queue), 0),
                     Cell(result.queueing.mean_hops, 2),
                     Cell(result.queueing.utilization, 3),
                     Cell(static_cast<double>(result.queueing.completed), 0),
                     Cell(static_cast<double>(result.evictions), 0),
                     Cell(static_cast<double>(result.origin_fetches), 0)});
    results.push_back(std::move(result));
  }
  summary.print(std::cout);

  for (std::size_t p = 0; p < policies.size(); ++p) {
    if (!results[p].tier_queues.empty()) {
      std::cout << "\ntier queues — " << policies[p].to_string() << ":\n";
      Table tiers({"tier", "admitted", "max queue"});
      for (const DynamicResult::TierQueueStats& tier :
           results[p].tier_queues) {
        tiers.add_row({Cell(tier.role),
                       Cell(static_cast<double>(tier.admitted), 0),
                       Cell(static_cast<double>(tier.max_queue), 0)});
      }
      tiers.print(std::cout);
    }
    std::cout << "\nwindowed series — " << policies[p].to_string() << ":\n";
    Table windows({"window", "arrivals", "hit%", "p99 sojourn", "max queue"});
    for (const WindowMetrics& w : results[p].windows) {
      std::ostringstream span;
      span << "[" << w.t_begin << ", " << w.t_end << ")";
      windows.add_row({Cell(span.str()),
                       Cell(static_cast<double>(w.arrivals), 0),
                       Cell(w.hit_rate * 100.0, 1),
                       Cell(w.p99_sojourn, 3),
                       Cell(static_cast<double>(w.max_queue), 0)});
    }
    windows.print(std::cout);
  }
  return 0;
}
