// Streaming-core throughput bench: drives the streaming request loop at
// trace lengths the materialized pipeline could not hold in memory, and
// reports requests/sec plus peak RSS for each strategy. The verdict checks
// that peak RSS grows far less than a materialized trace would require —
// the O(num_nodes) memory contract of SimulationContext::run.
//
// Emits BENCH_throughput.json (the repo's perf-trajectory file; CI uploads
// it as a workflow artifact). The file holds four independent blocks —
// `results` (this default sweep), `large_topology` (million-node rows
// produced with --large-topology), `dynamic` (event-engine rows produced
// with --dynamic), and `tiered` (tier-hierarchy rows produced with
// --tiered) — and a run regenerates only its own block, preserving the
// others verbatim (util/json_slice.hpp).
//
//   $ ./micro_throughput                      # 10M streamed requests/strategy
//   $ ./micro_throughput --requests 2000000   # faster CI setting
//   $ ./micro_throughput --topology "ring(n=4096)"   # non-lattice network
//   $ ./micro_throughput --threads 8          # + sharded-engine rows
//   $ ./micro_throughput --large-topology --topology "torus(side=1000)"
//                                             # merge into large_topology
//   $ ./micro_throughput --dynamic --policy "lru(capacity=4)"
//                                             # merge into dynamic
//   $ ./micro_throughput --tiered --requests 20000 --files 500 --cache 8
//                                             # merge into tiered
//
// With `--dynamic` the streaming sweep is skipped entirely: the bench
// drives the discrete-event engine (src/event/) over every requested
// strategy x cache-policy pair and reports events/sec, merging rows into
// the JSON's `dynamic` block (keyed strategy|policy|topology) the same
// way --large-topology merges into `large_topology` — existing rows with
// other keys, and both sibling blocks, survive byte-for-byte.
//
// With `--threads N` (N >= 2) every strategy gets one extra row — the
// sharded engine at width N — with its speedup over the serial row measured
// in the same process and the engine's per-stage wall times
// (fill/propose/join/commit). The JSON records `host_cores` next to every
// figure: a speedup is only meaningful relative to the cores the host
// actually had (a 1-core container will honestly report ~1x).
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/request.hpp"
#include "core/simulation.hpp"
#include "event/engine.hpp"
#include "parallel/sharded_runner.hpp"
#include "scenario/registry.hpp"
#include "strategy/registry.hpp"
#include "tier/registry.hpp"
#include "util/cli.hpp"
#include "util/json_slice.hpp"
#include "util/memory.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace proxcache;

struct ThroughputRow {
  std::string strategy;
  std::string topology;
  std::size_t num_nodes = 0;
  std::uint32_t threads = 1;
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double speedup_vs_serial = 1.0;
  std::uint64_t batches = 0;
  // Per-stage wall times (sharded rows; zero on serial rows).
  double fill_seconds = 0.0;
  double propose_seconds = 0.0;
  double join_seconds = 0.0;
  double commit_seconds = 0.0;
  Load max_load = 0;
  double comm_cost = 0.0;
  std::uint64_t peak_rss = 0;  ///< process high-water RSS after this row
};

std::string row_json(const ThroughputRow& row) {
  std::ostringstream os;
  os << "{\"strategy\": \"" << row.strategy << "\", "
     << "\"topology\": \"" << row.topology << "\", "
     << "\"num_nodes\": " << row.num_nodes << ", "
     << "\"threads\": " << row.threads << ", "
     << "\"requests\": " << row.requests << ", "
     << "\"seconds\": " << row.seconds << ", "
     << "\"requests_per_sec\": " << row.requests_per_sec << ", "
     << "\"speedup_vs_serial\": " << row.speedup_vs_serial << ", "
     << "\"batches\": " << row.batches << ", "
     << "\"fill_seconds\": " << row.fill_seconds << ", "
     << "\"propose_seconds\": " << row.propose_seconds << ", "
     << "\"join_seconds\": " << row.join_seconds << ", "
     << "\"commit_seconds\": " << row.commit_seconds << ", "
     << "\"max_load\": " << row.max_load << ", "
     << "\"comm_cost\": " << row.comm_cost << ", "
     << "\"peak_rss_bytes\": " << row.peak_rss << "}";
  return os.str();
}

/// Identity of a row for merge purposes: a regenerated row replaces the
/// stored row with the same key, other stored rows survive.
std::string row_key(const std::string& row_text) {
  return jsonslice::extract_top_level(row_text, "strategy") + "|" +
         jsonslice::extract_top_level(row_text, "topology") + "|" +
         jsonslice::extract_top_level(row_text, "threads");
}

/// One event-engine row (`--dynamic`): a strategy x cache-policy pair on
/// one topology, measured in processed events per wall second.
struct DynamicRow {
  std::string strategy;
  std::string policy;
  std::string topology;
  std::size_t num_nodes = 0;
  double arrival_rate = 0.0;
  double horizon = 0.0;
  double hop_latency = 0.0;
  std::uint64_t events = 0;
  std::uint64_t admitted = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double hit_rate = 0.0;
  double p99_sojourn = 0.0;
  std::uint64_t max_queue = 0;
  std::uint64_t peak_rss = 0;
};

std::string dynamic_row_json(const DynamicRow& row) {
  std::ostringstream os;
  os << "{\"strategy\": \"" << row.strategy << "\", "
     << "\"policy\": \"" << row.policy << "\", "
     << "\"topology\": \"" << row.topology << "\", "
     << "\"num_nodes\": " << row.num_nodes << ", "
     << "\"arrival_rate\": " << row.arrival_rate << ", "
     << "\"horizon\": " << row.horizon << ", "
     << "\"hop_latency\": " << row.hop_latency << ", "
     << "\"events\": " << row.events << ", "
     << "\"admitted\": " << row.admitted << ", "
     << "\"seconds\": " << row.seconds << ", "
     << "\"events_per_sec\": " << row.events_per_sec << ", "
     << "\"hit_rate\": " << row.hit_rate << ", "
     << "\"p99_sojourn\": " << row.p99_sojourn << ", "
     << "\"max_queue\": " << row.max_queue << ", "
     << "\"peak_rss_bytes\": " << row.peak_rss << "}";
  return os.str();
}

/// Identity of a dynamic row: the strategy/policy/topology triple.
std::string dynamic_row_key(const std::string& row_text) {
  return jsonslice::extract_top_level(row_text, "strategy") + "|" +
         jsonslice::extract_top_level(row_text, "policy") + "|" +
         jsonslice::extract_top_level(row_text, "topology");
}

/// One tier-hierarchy row (`--tiered`): a strategy x scenario pair on one
/// tier composition, aggregated over Monte-Carlo replications. The figures
/// the regression gate reads are the hierarchy deliverables: back-end tail
/// load, origin hits, and the offload ratio.
struct TieredRow {
  std::string tier_strategy;
  std::string scenario;
  std::string tiers;
  std::size_t num_nodes = 0;
  std::uint64_t runs = 0;
  std::uint64_t requests = 0;  ///< per replication
  double seconds = 0.0;
  double requests_per_sec = 0.0;  ///< across all replications
  double max_load = 0.0;
  double comm_cost = 0.0;
  double back_tail = 0.0;    ///< mean back-end p99 node load
  double back_max = 0.0;     ///< mean back-end max node load
  double origin_hits = 0.0;  ///< mean requests absorbed by the origin
  double origin_offload = 0.0;
  std::uint64_t peak_rss = 0;
};

std::string tiered_row_json(const TieredRow& row) {
  std::ostringstream os;
  os << "{\"tier_strategy\": \"" << row.tier_strategy << "\", "
     << "\"scenario\": \"" << row.scenario << "\", "
     << "\"tiers\": \"" << row.tiers << "\", "
     << "\"num_nodes\": " << row.num_nodes << ", "
     << "\"runs\": " << row.runs << ", "
     << "\"requests\": " << row.requests << ", "
     << "\"seconds\": " << row.seconds << ", "
     << "\"requests_per_sec\": " << row.requests_per_sec << ", "
     << "\"max_load\": " << row.max_load << ", "
     << "\"comm_cost\": " << row.comm_cost << ", "
     << "\"back_tail\": " << row.back_tail << ", "
     << "\"back_max\": " << row.back_max << ", "
     << "\"origin_hits\": " << row.origin_hits << ", "
     << "\"origin_offload\": " << row.origin_offload << ", "
     << "\"peak_rss_bytes\": " << row.peak_rss << "}";
  return os.str();
}

/// Identity of a tiered row: the (tier_strategy, scenario) pair — the key
/// the regression gate tracks.
std::string tiered_row_key(const std::string& row_text) {
  return jsonslice::extract_top_level(row_text, "tier_strategy") + "|" +
         jsonslice::extract_top_level(row_text, "scenario");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Merge `fresh_rows` into `existing`'s top-level `block_name` block
/// (shape `{"note": ..., "rows": [...]}`): a fresh row replaces the stored
/// row with the same key, every other stored row — and every sibling
/// top-level block — survives byte-for-byte.
std::string merge_rows_block(
    const std::string& existing, const std::string& block_name,
    const std::string& note, const std::vector<std::string>& fresh_rows,
    const std::function<std::string(const std::string&)>& key_of) {
  std::vector<std::string> merged;
  std::vector<std::string> merged_keys;
  const std::string old_block =
      jsonslice::extract_top_level(existing, block_name);
  for (const std::string& old_row : jsonslice::split_top_level_array(
           jsonslice::extract_top_level(old_block, "rows"))) {
    merged.push_back(old_row);
    merged_keys.push_back(key_of(old_row));
  }
  for (const std::string& text : fresh_rows) {
    const std::string key = key_of(text);
    bool replaced = false;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (merged_keys[i] == key) {
        merged[i] = text;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      merged.push_back(text);
      merged_keys.push_back(key);
    }
  }
  std::ostringstream block;
  block << "{\n    \"note\": \"" << note << "\",\n    \"rows\": [\n";
  for (std::size_t i = 0; i < merged.size(); ++i) {
    block << "      " << merged[i] << (i + 1 < merged.size() ? "," : "")
          << "\n";
  }
  block << "    ]\n  }";
  const std::string skeleton =
      existing.empty() ? "{\n  \"bench\": \"micro_throughput\"\n}\n"
                       : existing;
  return jsonslice::replace_top_level(skeleton, block_name, block.str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("micro_throughput",
                 "streaming request-loop throughput and peak-RSS bench");
  args.add_int("requests", 10'000'000, "streamed requests per strategy run");
  args.add_int("n", 2025,
               "number of servers (perfect square; ignored when "
               "--topology is set)");
  args.add_int("files", 500, "catalog size K");
  args.add_int("cache", 10, "cache slots M per server");
  args.add_int("seed", 0x5EED, "root seed");
  args.add_int("threads", 1,
               "engine width: 1 benches only the serial loop; >= 2 adds "
               "sharded-engine rows per strategy");
  args.add_int("batch", 4096, "sharded engine batch size");
  args.add_flag("large-topology",
                "write rows into the JSON's large_topology block (merged by "
                "strategy/topology/threads) instead of "
                "regenerating 'results'");
  args.add_flag("dynamic",
                "bench the discrete-event dynamic engine instead of the "
                "streaming sweep; rows (strategy x policy) merge into the "
                "JSON's dynamic block");
  args.add_flag("tiered",
                "bench cross-tier strategies on a tier hierarchy instead of "
                "the streaming sweep; rows (tier-strategy x scenario) merge "
                "into the JSON's tiered block");
  args.add_string("tiers", "cdn",
                  "--tiered: tier preset name or tiers(...) spec");
  args.add_int("runs", 5, "--tiered: Monte-Carlo replications per row");
  args.add_string_list(
      "scenario", {},
      "--tiered: scenario preset per row (repeatable; default: hotspot, "
      "flash-crowd)");
  args.add_string_list(
      "tier-strategy", {},
      "--tiered: strategy per row (repeatable; default: nearest, "
      "front-first, cross-two-choice, cross-prox-weighted)");
  args.add_double("arrival", 0.7, "--dynamic: per-node Poisson arrival rate");
  args.add_double("horizon", 200.0, "--dynamic: simulated time units");
  args.add_double("hop-latency", 0.1,
                  "--dynamic: response propagation time per topology hop");
  args.add_string_list(
      "policy", {},
      "cache-policy spec for --dynamic rows (repeatable; default: static, "
      "lru(capacity=4), ewma(capacity=4, decay=0.2))");
  args.add_string("topology", "",
                  "topology spec, e.g. 'ring(n=4096)' or "
                  "'rgg(n=4096, radius=0.03, seed=1)' (empty = torus of n "
                  "servers)");
  args.add_string("json", "BENCH_throughput.json",
                  "output JSON path (empty = skip)");
  args.add_string_list(
      "strategy", {},
      "strategy spec to bench (repeatable; default: nearest, two-choice, "
      "least-loaded(r=8), prox-weighted(d=2, alpha=1))");
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

  for (const char* name :
       {"requests", "n", "files", "cache", "threads", "batch", "runs"}) {
    if (args.get_int(name) <= 0) {
      std::cerr << "--" << name << " must be positive\n";
      return 2;
    }
  }
  const auto requests = static_cast<std::size_t>(args.get_int("requests"));
  const auto threads = static_cast<std::uint32_t>(args.get_int("threads"));
  const auto batch = static_cast<std::size_t>(args.get_int("batch"));
  const bool large_topology = args.get_flag("large-topology");
  ExperimentConfig base;
  base.num_nodes = static_cast<std::size_t>(args.get_int("n"));
  base.num_files = static_cast<std::size_t>(args.get_int("files"));
  base.cache_size = static_cast<std::size_t>(args.get_int("cache"));
  base.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  base.num_requests = requests;
  if (!args.get_string("topology").empty()) {
    try {
      base.topology_spec = parse_topology_spec(args.get_string("topology"));
      base.validate();
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }
  }

  if (args.get_flag("dynamic")) {
    // Event-engine sweep: strategy x cache-policy pairs through
    // run_dynamic, reported in processed events per wall second. The
    // streaming sweep (and its RSS contract) is not touched; the rows
    // merge into the JSON's `dynamic` block.
    std::vector<std::string> strategies = args.get_string_list("strategy");
    if (strategies.empty()) {
      strategies = {"nearest", "two-choice", "least-loaded(r=8)"};
    }
    std::vector<std::string> policies = args.get_string_list("policy");
    if (policies.empty()) {
      // Capacities below M trim the seeded placement, so the evolving
      // policies actually churn (misses, fetches, evictions) instead of
      // serving every completion from the frozen seed.
      policies = {"static", "lru(capacity=4)", "ewma(capacity=4, decay=0.2)"};
    }
    DynamicConfig dynamic;
    dynamic.network = base;
    dynamic.network.trace.arrival_rate = args.get_double("arrival");
    dynamic.horizon = args.get_double("horizon");
    dynamic.hop_latency = args.get_double("hop-latency");
    try {
      (void)parse_validated_specs(strategies);
      (void)parse_validated_policy_specs(policies);
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }

    const std::string topology_label = base.resolved_topology().to_string();
    std::cout << "== micro_throughput --dynamic ==\n"
              << "event engine: topology=" << topology_label << " (n="
              << base.resolved_nodes() << "), K=" << base.num_files
              << ", M=" << base.cache_size
              << ", lambda=" << dynamic.network.trace.arrival_rate
              << ", horizon=" << dynamic.horizon
              << ", hop latency=" << dynamic.hop_latency << "\n\n";
    const bench::ScopedBenchTimer bench_timer("micro_throughput --dynamic");

    std::vector<std::string> row_texts;
    Table table({"strategy", "policy", "events/s", "events", "hit%",
                 "p99 sojourn", "max queue", "s"});
    for (const std::string& strategy : strategies) {
      for (const std::string& policy : policies) {
        dynamic.network.strategy_spec = parse_strategy_spec(strategy);
        dynamic.cache_policy = parse_cache_policy_spec(policy);
        WallTimer timer;
        DynamicResult result;
        try {
          result = run_dynamic(dynamic, base.seed);
        } catch (const std::invalid_argument& error) {
          std::cerr << strategy << " / " << policy << ": " << error.what()
                    << "\n";
          return 2;
        }
        DynamicRow row;
        row.strategy = strategy;
        row.policy = policy;
        row.topology = topology_label;
        row.num_nodes = base.resolved_nodes();
        row.arrival_rate = dynamic.network.trace.arrival_rate;
        row.horizon = dynamic.horizon;
        row.hop_latency = dynamic.hop_latency;
        row.events = result.events;
        row.admitted = result.admitted;
        row.seconds = timer.seconds();
        row.events_per_sec =
            row.seconds > 0.0
                ? static_cast<double>(result.events) / row.seconds
                : 0.0;
        row.hit_rate = result.hit_rate;
        row.p99_sojourn = result.p99_sojourn;
        row.max_queue = result.queueing.max_queue;
        row.peak_rss = peak_rss_bytes();
        row_texts.push_back(dynamic_row_json(row));
        table.add_row({Cell(row.strategy), Cell(row.policy),
                       Cell(row.events_per_sec, 0),
                       Cell(static_cast<double>(row.events), 0),
                       Cell(row.hit_rate * 100.0, 1),
                       Cell(row.p99_sojourn, 3),
                       Cell(static_cast<double>(row.max_queue), 0),
                       Cell(row.seconds, 2)});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
    bench::print_verdict(!row_texts.empty(),
                         "event engine processed every strategy x policy row");

    const std::string json_path = args.get_string("json");
    if (!json_path.empty()) {
      const std::string document = merge_rows_block(
          read_file(json_path), "dynamic",
          "event-engine rows, merged across --dynamic runs; keyed "
          "strategy|policy|topology",
          row_texts, dynamic_row_key);
      std::ofstream json(json_path);
      if (!json) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
      }
      json << document;
      std::cout << "[json] wrote " << json_path << "\n";
    }
    return 0;
  }

  if (args.get_flag("tiered")) {
    // Tier-hierarchy sweep: the headline deliverable of the tier layer.
    // Each row runs one strategy x scenario pair on the composed hierarchy
    // through the Monte-Carlo batch engine and reports the cross-tier
    // figures — back-end tail load, origin hits, offload ratio — that the
    // regression gate tracks per (tier_strategy, scenario) key.
    if (!args.get_string("topology").empty()) {
      std::cerr << "--tiered composes its own topology; drop --topology\n";
      return 2;
    }
    TierSpec tier_spec;
    try {
      tier_spec = TierRegistry::built_ins().resolve(args.get_string("tiers"));
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      return 2;
    }
    std::vector<std::string> scenarios = args.get_string_list("scenario");
    if (scenarios.empty()) scenarios = {"hotspot", "flash-crowd"};
    std::vector<std::string> strategies = args.get_string_list("tier-strategy");
    if (strategies.empty()) {
      strategies = {"nearest", "front-first", "cross-two-choice",
                    "cross-prox-weighted"};
    }
    const auto runs = static_cast<std::size_t>(args.get_int("runs"));

    std::cout << "== micro_throughput --tiered ==\n"
              << "tier hierarchy: " << tier_spec.to_string() << ", K="
              << base.num_files << ", M=" << base.cache_size << ", "
              << requests << " requests x " << runs << " runs per row\n\n";
    const bench::ScopedBenchTimer bench_timer("micro_throughput --tiered");

    std::vector<std::string> row_texts;
    Table table({"strategy", "scenario", "req/s", "max load", "comm cost",
                 "back tail", "origin hits", "offload %", "s"});
    for (const std::string& scenario_name : scenarios) {
      const Scenario* scenario =
          ScenarioRegistry::built_ins().find(scenario_name);
      if (scenario == nullptr) {
        std::cerr << "unknown scenario '" << scenario_name << "' (known: "
                  << ScenarioRegistry::built_ins().names() << ")\n";
        return 2;
      }
      for (const std::string& strategy : strategies) {
        ExperimentConfig config = scenario->config;
        config.tier_spec = tier_spec;
        config.num_files = base.num_files;
        config.cache_size = base.cache_size;
        config.num_requests = requests;
        config.seed = base.seed;
        WallTimer timer;
        ExperimentResult result;
        try {
          config.strategy_spec = parse_strategy_spec(strategy);
          result = run_experiment(config, runs);
        } catch (const std::invalid_argument& error) {
          std::cerr << strategy << " / " << scenario_name << ": "
                    << error.what() << "\n";
          return 2;
        }
        TieredRow row;
        row.tier_strategy = strategy;
        row.scenario = scenario_name;
        row.tiers = tier_spec.to_string();
        row.num_nodes = config.resolved_nodes();
        row.runs = runs;
        row.requests = requests;
        row.seconds = timer.seconds();
        row.requests_per_sec =
            row.seconds > 0.0
                ? static_cast<double>(requests * runs) / row.seconds
                : 0.0;
        row.max_load = result.max_load.mean();
        row.comm_cost = result.comm_cost.mean();
        for (const TierSummary& tier : result.tiers) {
          if (tier.role == "origin") {
            row.origin_hits = tier.served.mean();
          } else {
            // Hierarchy order: the last non-origin tier is the back end.
            row.back_tail = tier.tail_p99.mean();
            row.back_max = tier.max_load.mean();
          }
        }
        row.origin_offload = result.origin_offload.mean();
        row.peak_rss = peak_rss_bytes();
        row_texts.push_back(tiered_row_json(row));
        table.add_row({Cell(row.tier_strategy), Cell(row.scenario),
                       Cell(row.requests_per_sec, 0), Cell(row.max_load, 1),
                       Cell(row.comm_cost, 2), Cell(row.back_tail, 1),
                       Cell(row.origin_hits, 1),
                       Cell(row.origin_offload * 100.0, 2),
                       Cell(row.seconds, 2)});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
    bench::print_verdict(!row_texts.empty(),
                         "tier hierarchy processed every strategy x scenario "
                         "row");

    const std::string json_path = args.get_string("json");
    if (!json_path.empty()) {
      const std::string document = merge_rows_block(
          read_file(json_path), "tiered",
          "tier-hierarchy rows, merged across --tiered runs; keyed "
          "tier_strategy|scenario",
          row_texts, tiered_row_key);
      std::ofstream json(json_path);
      if (!json) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
      }
      json << document;
      std::cout << "[json] wrote " << json_path << "\n";
    }
    return 0;
  }

  std::cout << "== micro_throughput ==\n"
            << "streaming loop: topology="
            << base.resolved_topology().to_string() << " (n="
            << base.resolved_nodes() << "), K=" << base.num_files
            << ", M=" << base.cache_size << ", " << requests
            << " requests per strategy\n\n";

  const bench::ScopedBenchTimer bench_timer("micro_throughput");

  // Warm up per-run state (placement, replica index, one short trace) so
  // the RSS baseline already contains every O(num_nodes) allocation the
  // timed runs make; any growth beyond it would scale with the trace. When
  // sharded rows are requested, warm the engine too (worker pool, batch
  // buffers, per-lane arenas — all O(batch), none O(trace)).
  {
    ExperimentConfig warmup = base;
    warmup.num_requests = 0;  // n requests
    (void)SimulationContext(warmup).run(0);
    if (threads >= 2) {
      warmup.threads = threads;
      warmup.shard_batch = batch;
      (void)SimulationContext(warmup).run(0);
    }
  }
  const std::uint64_t rss_before = peak_rss_bytes();

  // The paper pair plus the registry's extension strategies by default, so
  // every policy has a tracked requests/sec figure; --strategy narrows the
  // sweep (the large-topology rows bench one policy at a time).
  std::vector<std::string> cases = args.get_string_list("strategy");
  if (cases.empty()) {
    cases = {
        "nearest",
        "two-choice",
        "least-loaded(r=8)",
        "prox-weighted(d=2, alpha=1)",
    };
  }

  std::vector<ThroughputRow> rows;
  Table table({"strategy", "thr", "req/s", "speedup", "fill s", "prop s",
               "join s", "commit s", "max load", "comm cost"});
  const auto add_row = [&](const ThroughputRow& row) {
    rows.push_back(row);
    table.add_row({Cell(row.strategy),
                   Cell(static_cast<double>(row.threads), 0),
                   Cell(row.requests_per_sec, 0),
                   Cell(row.speedup_vs_serial, 2),
                   Cell(row.fill_seconds, 2), Cell(row.propose_seconds, 2),
                   Cell(row.join_seconds, 2), Cell(row.commit_seconds, 2),
                   Cell(static_cast<double>(row.max_load), 0),
                   Cell(row.comm_cost, 3)});
  };
  // One base context for the whole sweep: the strategy cells rebind onto
  // it so the topology (all-pairs BFS below the distance-oracle threshold,
  // landmark BFS passes above it, for graph-backed specs) is materialized
  // once, not once per strategy.
  const SimulationContext shared(base);
  const std::string topology_label = base.resolved_topology().to_string();
  const std::size_t num_nodes = base.resolved_nodes();
  for (const std::string& entry : cases) {
    const SimulationContext context(shared, parse_strategy_spec(entry));
    WallTimer timer;
    const RunResult result = context.run(0);
    ThroughputRow serial;
    serial.strategy = entry;
    serial.topology = topology_label;
    serial.num_nodes = num_nodes;
    serial.requests = requests;
    serial.seconds = timer.seconds();
    serial.requests_per_sec =
        serial.seconds > 0.0 ? static_cast<double>(requests) / serial.seconds
                             : 0.0;
    serial.max_load = result.max_load;
    serial.comm_cost = result.comm_cost;
    serial.peak_rss = peak_rss_bytes();
    add_row(serial);

    if (threads < 2) continue;
    ShardStats stats;
    WallTimer sharded_timer;
    const RunResult sharded_result =
        ShardedRunner(context, {threads, batch}).run(0, &stats);
    ThroughputRow sharded;
    sharded.strategy = entry;
    sharded.topology = topology_label;
    sharded.num_nodes = num_nodes;
    sharded.threads = threads;
    sharded.requests = requests;
    sharded.seconds = sharded_timer.seconds();
    sharded.requests_per_sec =
        sharded.seconds > 0.0 ? static_cast<double>(requests) / sharded.seconds
                              : 0.0;
    sharded.speedup_vs_serial =
        serial.requests_per_sec > 0.0
            ? sharded.requests_per_sec / serial.requests_per_sec
            : 0.0;
    sharded.batches = stats.batches;
    sharded.fill_seconds = stats.fill_seconds;
    sharded.propose_seconds = stats.propose_seconds;
    sharded.join_seconds = stats.join_seconds;
    sharded.commit_seconds = stats.commit_seconds;
    sharded.max_load = sharded_result.max_load;
    sharded.comm_cost = sharded_result.comm_cost;
    sharded.peak_rss = peak_rss_bytes();
    add_row(sharded);
  }
  table.print(std::cout);
  std::cout << '\n';

  const std::uint64_t rss_peak = peak_rss_bytes();
  const std::uint64_t rss_growth =
      rss_peak > rss_before ? rss_peak - rss_before : 0;
  const std::uint64_t materialized_bytes =
      static_cast<std::uint64_t>(requests) * sizeof(Request);
  std::cout << "peak RSS:        " << rss_peak / (1024.0 * 1024.0)
            << " MiB\n"
            << "RSS growth:      " << rss_growth / (1024.0 * 1024.0)
            << " MiB during the timed streaming runs\n"
            << "materialized:    " << materialized_bytes / (1024.0 * 1024.0)
            << " MiB a trace vector would have needed per run\n\n";
  bench::print_verdict(
      rss_growth + (1u << 20) < materialized_bytes,
      "streaming keeps peak memory independent of trace length");

  const std::string json_path = args.get_string("json");
  if (!json_path.empty()) {
    const std::string existing = read_file(json_path);
    std::string document;
    if (large_topology) {
      // Merge this sweep's rows into large_topology.rows, replacing rows
      // with the same identity and keeping everything else — including the
      // whole `results` block and its metadata — byte-for-byte.
      std::vector<std::string> row_texts;
      for (const ThroughputRow& row : rows) row_texts.push_back(row_json(row));
      document = merge_rows_block(
          existing, "large_topology",
          "large-topology rows, merged across --large-topology runs; kept "
          "out of 'results' so the regression keys stay unique",
          row_texts, row_key);
    } else {
      std::ostringstream os;
      os << "{\n"
         << "  \"bench\": \"micro_throughput\",\n"
         << "  \"topology\": \"" << topology_label << "\",\n"
         << "  \"num_nodes\": " << num_nodes << ",\n"
         << "  \"num_files\": " << base.num_files << ",\n"
         << "  \"cache_size\": " << base.cache_size << ",\n"
         << "  \"requests_per_run\": " << requests << ",\n"
         << "  \"seed\": " << base.seed << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"shard_batch\": " << batch << ",\n"
         << "  \"host_cores\": " << std::thread::hardware_concurrency()
         << ",\n"
         << "  \"peak_rss_bytes\": " << rss_peak << ",\n"
         << "  \"rss_growth_bytes\": " << rss_growth << ",\n"
         << "  \"materialized_trace_bytes\": " << materialized_bytes
         << ",\n"
         << "  \"results\": [\n";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        os << "    " << row_json(rows[i])
           << (i + 1 < rows.size() ? "," : "") << "\n";
      }
      os << "  ]\n}\n";
      document = os.str();
      // A rerun of the default sweep must not clobber the separately
      // produced merge-mode blocks.
      for (const char* block : {"large_topology", "dynamic", "tiered"}) {
        const std::string preserved =
            jsonslice::extract_top_level(existing, block);
        if (!preserved.empty()) {
          document = jsonslice::replace_top_level(document, block, preserved);
        }
      }
    }
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    json << document;
    std::cout << "[json] wrote " << json_path << "\n";
  }
  return 0;
}
