// The benchmark program: five workloads run through the library's public
// entry points, either timed (--trace 0) or traced (--trace 1).
//
//   perfbench --workload torus-stream --seed 24301 --seconds 10 --trace 0
//   perfbench --self-test
//
// It prints human-readable lines, then one JSON report line that run.py
// turns into the benchmark result (fingerprints, declared metrics, host
// record). README.md in this directory explains workloads and metrics.
//
// Timed runs go through SimulationContext::run (engine chosen by
// config.threads), run_experiment and run_dynamic only. Every call is a
// "unit" that is repeated identically and checked each time: invariants on
// its result, and bit-equality with the unit's first (warm-up) result.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_harness.hpp"
#include "core/simulation.hpp"
#include "event/engine.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/sharded_runner.hpp"
#include "scenario/registry.hpp"
#include "tier/materialize.hpp"
#include "topology/graph_topology.hpp"
#include "util/cli.hpp"
#include "util/memory.hpp"

#include "tracer.hpp"

namespace {

using namespace proxcache;
using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::Tracer;

/// The strategy families every workload runs; metric names use these keys.
const std::vector<std::string> kFamilies = {"nearest", "two-choice",
                                            "least-loaded", "prox-weighted"};
/// Layers that own spans; each gets a `<layer>.self_s` metric.
const std::vector<std::string> kSpanLayers = {
    "scenario", "strategy", "core", "catalog", "spatial", "parallel", "event"};
const std::vector<std::string> kWorkloads = {
    "torus-stream", "torus-sharded", "paper-sweep", "graph-sparse", "dynamic"};

/// Requests sampled per traced serial run to classify replica-query paths
/// (on sparse graphs the classification itself builds oracle rows).
constexpr std::size_t kPathSample = 512;
/// Timed repetitions every unit gets, however long the budget.
constexpr std::size_t kMinReps = 3;
/// The sharded engine's batch size (its default).
constexpr std::size_t kShardBatch = 4096;

/// Threads the workloads may use: the host's cores, at most four.
unsigned pool_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}
/// The sharded engine needs at least two threads to run at all.
std::uint32_t engine_threads() { return std::max(2u, pool_threads()); }

/// Lane id of the calling thread in span records: 0 for the first caller
/// (the main thread), then 1, 2, ... in order of first use.
std::uint32_t thread_lane() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t lane = next++;
  return lane;
}

std::string exact(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// What one checked call returned.
struct Outcome {
  std::uint64_t requests = 0;  ///< admitted requests the call served
  std::string fingerprint;     ///< the recorded result fields, all digits
  std::string identity;        ///< fingerprint + everything else compared
  std::vector<std::string> violations;  ///< invariants the result broke
};

std::string histogram_digest(const Histogram& histogram) {
  std::ostringstream os;
  const auto& counts = histogram.counts();
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] != 0) os << k << ':' << counts[k] << ',';
  }
  return os.str();
}

/// Servers counted and requests served according to a load histogram.
std::pair<std::uint64_t, std::uint64_t> histogram_mass(
    const Histogram& histogram) {
  std::uint64_t servers = 0;
  std::uint64_t served = 0;
  const auto& counts = histogram.counts();
  for (std::size_t k = 0; k < counts.size(); ++k) {
    servers += counts[k];
    served += k * counts[k];
  }
  return {servers, served};
}

Outcome check_run(const RunResult& result, std::size_t horizon,
                  std::size_t nodes) {
  Outcome out;
  out.requests = result.requests;
  out.fingerprint = "max_load=" + std::to_string(result.max_load) +
                    " comm_cost=" + exact(result.comm_cost) +
                    " requests=" + std::to_string(result.requests) +
                    " fallbacks=" + std::to_string(result.fallbacks) +
                    " dropped=" + std::to_string(result.dropped);
  out.identity = out.fingerprint +
                 " resampled=" + std::to_string(result.resampled) +
                 " min_distinct=" +
                 std::to_string(result.placement_min_distinct) +
                 " files=" + std::to_string(result.files_with_replicas) +
                 " hist=" + histogram_digest(result.load_histogram);
  const auto [servers, served] = histogram_mass(result.load_histogram);
  if (result.requests + result.dropped != horizon) {
    out.violations.push_back("served + dropped != trace length");
  }
  if (servers != nodes) {
    out.violations.push_back("load histogram does not cover the n servers");
  }
  if (served != result.requests) {
    out.violations.push_back("load histogram mass != served requests");
  }
  return out;
}

Outcome check_experiment(const ExperimentResult& result, std::size_t runs,
                         std::size_t horizon, std::size_t nodes) {
  const auto [servers, served] = histogram_mass(result.pooled_load_histogram);
  const auto requests = static_cast<double>(served);
  const auto fallbacks =
      static_cast<std::uint64_t>(std::llround(result.fallback_rate * requests));
  const auto dropped =
      static_cast<std::uint64_t>(std::llround(result.drop_rate * requests));
  Outcome out;
  out.requests = served;
  out.fingerprint = "max_load=" + exact(result.max_load.mean()) +
                    " comm_cost=" + exact(result.comm_cost.mean()) +
                    " requests=" + std::to_string(served) +
                    " fallbacks=" + std::to_string(fallbacks) +
                    " dropped=" + std::to_string(dropped);
  out.identity = out.fingerprint + " runs=" + std::to_string(result.runs) +
                 " resample_rate=" + exact(result.resample_rate) +
                 " hist=" + histogram_digest(result.pooled_load_histogram);
  if (result.runs != runs) out.violations.push_back("replication count");
  if (served + dropped != runs * horizon) {
    out.violations.push_back("served + dropped != trace length x runs");
  }
  if (servers != runs * nodes) {
    out.violations.push_back("pooled histogram does not cover n x runs");
  }
  return out;
}

/// The fields of run_experiment's aggregate that check_experiment reads,
/// rebuilt from per-replication results in replication order.
ExperimentResult aggregate_runs(const std::vector<RunResult>& results) {
  ExperimentResult aggregate;
  aggregate.runs = results.size();
  std::uint64_t requests = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t resampled = 0;
  std::uint64_t dropped = 0;
  for (const RunResult& run : results) {
    aggregate.max_load.add(static_cast<double>(run.max_load));
    aggregate.comm_cost.add(run.comm_cost);
    aggregate.pooled_load_histogram.merge(run.load_histogram);
    requests += run.requests;
    fallbacks += run.fallbacks;
    resampled += run.resampled;
    dropped += run.dropped;
  }
  if (requests > 0) {
    const auto denom = static_cast<double>(requests);
    aggregate.fallback_rate = static_cast<double>(fallbacks) / denom;
    aggregate.resample_rate = static_cast<double>(resampled) / denom;
    aggregate.drop_rate = static_cast<double>(dropped) / denom;
  }
  return aggregate;
}

Outcome check_dynamic(const DynamicResult& result) {
  Outcome out;
  out.requests = result.admitted;
  out.fingerprint = "events=" + std::to_string(result.events) +
                    " admitted=" + std::to_string(result.admitted) +
                    " hits=" + std::to_string(result.hits) +
                    " misses=" + std::to_string(result.misses) +
                    " p99_sojourn=" + exact(result.p99_sojourn);
  out.identity = out.fingerprint +
                 " evictions=" + std::to_string(result.evictions) +
                 " inserts=" + std::to_string(result.inserts) +
                 " lost=" + std::to_string(result.lost) +
                 " dropped=" + std::to_string(result.dropped) +
                 " max_queue=" + std::to_string(result.queueing.max_queue) +
                 " mean_sojourn=" + exact(result.queueing.mean_sojourn);
  std::uint64_t arrivals = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const WindowMetrics& window : result.windows) {
    arrivals += window.arrivals;
    hits += window.hits;
    misses += window.misses;
  }
  if (arrivals != result.admitted) {
    out.violations.push_back("window arrivals != admitted");
  }
  if (hits != result.hits || misses != result.misses) {
    out.violations.push_back("window hits/misses != totals");
  }
  if (result.hits + result.misses > result.admitted) {
    out.violations.push_back("more completions than admitted requests");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced calls: spans around the benchmark's calls into each layer
// ---------------------------------------------------------------------------

/// Classify which replica-query path each sampled request's first query
/// takes, from the spatial layer's public predicates, mirroring the
/// selection in ReplicaIndex::nearest and for_each_replica_within. Oracle
/// work the classification itself causes is counted apart so the graph
/// metrics can leave it out.
void classify_paths(const RunHarness& harness, const std::string& family,
                    const std::string& unit,
                    const std::vector<Request>& sample, Tracer& tracer) {
  const Topology& topology = harness.context().topology();
  const auto* graph = dynamic_cast<const GraphTopology*>(&topology);
  const DistanceOracle::Stats before =
      graph != nullptr ? graph->oracle().stats() : DistanceOracle::Stats{};
  const double r =
      harness.spec.get_or("r", std::numeric_limits<double>::infinity());
  const Hop radius = std::isinf(r) ? kUnboundedRadius : static_cast<Hop>(r);
  for (const Request& request : sample) {
    std::string path = "list_scan";
    if (family == "nearest") {
      const std::size_t replicas =
          harness.placement.replica_count(request.file);
      if (replicas * replicas > topology.size() &&
          topology.directly_enumerates_shells()) {
        path = "shell_scan";
      }
    } else if (family != "prox-weighted" && radius < topology.diameter()) {
      if (harness.index.has_bucket_grid(request.file)) {
        path = "bucket_grid";
      } else if (topology.prefers_local_enumeration() &&
                 radius <= topology.local_enumeration_horizon(request.origin)) {
        path = "ball_walk";
      }
    }
    tracer.count("spatial." + family + "." + path, 1);
    tracer.count("unit:" + unit + ":" + path, 1);
  }
  tracer.count("spatial.sampled", static_cast<double>(sample.size()));
  if (graph != nullptr) {
    const DistanceOracle::Stats after = graph->oracle().stats();
    tracer.count("graph.excluded.rows_built",
                 static_cast<double>(after.rows_built - before.rows_built));
    tracer.count("graph.excluded.rows_evicted",
                 static_cast<double>(after.rows_evicted - before.rows_evicted));
    tracer.count("graph.excluded.exact_answers",
                 static_cast<double>(after.exact_answers - before.exact_answers));
    tracer.count("graph.excluded.landmark_answers",
                 static_cast<double>(after.landmark_answers -
                                     before.landmark_answers));
  }
}

/// SimulationContext::run's serial loop, replayed through RunHarness's
/// public members with spans around the trace source, propose, choose and
/// commit. propose-then-choose on the harness's strategy stream is
/// bit-identical to assign (the SplitPhaseStrategy contract).
RunResult traced_serial_run(const SimulationContext& context,
                            std::uint64_t run_index,
                            const std::string& family, const std::string& unit,
                            const std::string& parent, bool classify,
                            Tracer& tracer) {
  const std::uint32_t lane = thread_lane();
  const auto* graph = dynamic_cast<const GraphTopology*>(&context.topology());
  const DistanceOracle::Stats oracle_before =
      graph != nullptr ? graph->oracle().stats() : DistanceOracle::Stats{};
  const Clock::time_point begin = Clock::now();
  RunHarness harness(context, run_index);
  const Clock::time_point built = Clock::now();
  tracer.record("core.harness_build", parent, unit, begin, built, lane);

  Strategy& strategy = *harness.strategy;
  CandidateArena arena;
  Proposal proposal;
  Request request;
  std::vector<Request> sample;
  double next_s = 0.0;
  double propose_s = 0.0;
  double choose_s = 0.0;
  double commit_s = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t candidates = 0;
  std::uint64_t decided = 0;
  std::uint64_t fallbacks = 0;
  const Clock::time_point loop_begin = Clock::now();
  Clock::time_point mark = loop_begin;
  while (true) {
    const bool more = harness.sanitized.try_next(harness.trace_rng, request);
    Clock::time_point now = Clock::now();
    next_s += seconds_between(mark, now);
    mark = now;
    if (!more) break;
    arena.clear();
    proposal = Proposal{};
    strategy.propose(request, harness.strategy_rng, arena, proposal);
    now = Clock::now();
    propose_s += seconds_between(mark, now);
    mark = now;
    const Assignment assignment = strategy.choose(
        request, proposal, arena, *harness.load_view, harness.strategy_rng);
    now = Clock::now();
    choose_s += seconds_between(mark, now);
    mark = now;
    harness.commit(assignment);
    now = Clock::now();
    commit_s += seconds_between(mark, now);
    mark = now;
    ++admitted;
    candidates += proposal.count;
    decided += proposal.decided ? 1 : 0;
    fallbacks += proposal.fallback ? 1 : 0;
    if (classify && sample.size() < kPathSample) sample.push_back(request);
  }
  tracer.record("core.loop", parent, unit, loop_begin, mark, lane);
  const std::string prefix = "strategy." + family;
  tracer.add("scenario.next", "core.loop", next_s, admitted + 1);
  tracer.add(prefix + ".propose", "core.loop", propose_s, admitted);
  tracer.add(prefix + ".choose", "core.loop", choose_s, admitted);
  tracer.add("core.commit", "core.loop", commit_s, admitted);
  tracer.count(prefix + ".candidates", static_cast<double>(candidates));
  tracer.count(prefix + ".decided", static_cast<double>(decided));
  tracer.count(prefix + ".fallbacks", static_cast<double>(fallbacks));
  const std::string per_unit = "unit:" + unit + ":";
  tracer.count(per_unit + "requests", static_cast<double>(admitted));
  tracer.count(per_unit + "propose_s", propose_s);
  if (graph != nullptr) {
    const DistanceOracle::Stats after = graph->oracle().stats();
    tracer.count(per_unit + "rows_built",
                 static_cast<double>(after.rows_built - oracle_before.rows_built));
    tracer.count(per_unit + "exact_answers",
                 static_cast<double>(after.exact_answers -
                                     oracle_before.exact_answers));
    tracer.count(per_unit + "landmark_answers",
                 static_cast<double>(after.landmark_answers -
                                     oracle_before.landmark_answers));
  }

  RunResult result = harness.finalize();
  tracer.record("core.finalize", parent, unit, mark, Clock::now(), lane);
  const SanitizeStats& sanitize = harness.sanitized.stats();
  tracer.count("scenario.resampled", static_cast<double>(sanitize.resampled));
  tracer.count("scenario.dropped", static_cast<double>(sanitize.dropped));
  if (classify) classify_paths(harness, family, unit, sample, tracer);
  return result;
}

/// The per-run construction RunHarness performs, as standalone calls on run
/// index 0: placement sampling and the replica index with its bucket grids.
void traced_construction(const SimulationContext& context,
                         const std::string& unit, Tracer& tracer) {
  const Clock::time_point begin = Clock::now();
  const Placement placement = materialize_placement(
      context.config(), context.topology(), context.popularity(), 0);
  const Clock::time_point sampled = Clock::now();
  const ReplicaIndex index(context.topology(), placement);
  const Clock::time_point end = Clock::now();
  tracer.record("catalog.placement", "", unit, begin, sampled);
  tracer.record("spatial.index_build", "", unit, sampled, end);
  std::size_t grids = 0;
  for (FileId j = 0; j < placement.num_files(); ++j) {
    grids += index.has_bucket_grid(j) ? 1 : 0;
  }
  tracer.count("spatial.bucket_grids", static_cast<double>(grids));
}

RunResult traced_sharded_run(const SimulationContext& context,
                             std::uint32_t threads, const std::string& unit,
                             Tracer& tracer) {
  const Clock::time_point begin = Clock::now();
  const ShardedRunner runner(
      context, ShardedRunOptions{.threads = threads, .batch = kShardBatch});
  ShardStats stats;
  RunResult result = runner.run(0, &stats);
  tracer.record("parallel.run", "", unit, begin, Clock::now());
  // fill, join and commit are main-thread stages inside the run; propose is
  // summed over the workers while the main thread fills and commits.
  tracer.add("parallel.fill", "parallel.run", stats.fill_seconds);
  tracer.add("parallel.join", "parallel.run", stats.join_seconds);
  tracer.add("parallel.commit", "parallel.run", stats.commit_seconds);
  tracer.add("parallel.propose", "parallel.run", stats.propose_seconds, 1,
             /*overlapped=*/true);
  tracer.count("parallel.batches", static_cast<double>(stats.batches));
  double busiest = 0.0;
  double busy = 0.0;
  for (const double seconds : stats.lane_seconds) {
    busiest = std::max(busiest, seconds);
    busy += seconds;
  }
  if (busy > 0.0) {
    tracer.count("parallel.lane_imbalance",
                 busiest * static_cast<double>(stats.lane_seconds.size()) /
                     busy);
    tracer.count("parallel.lane_runs", 1);
  }
  tracer.count("scenario.resampled", static_cast<double>(result.resampled));
  tracer.count("scenario.dropped", static_cast<double>(result.dropped));
  return result;
}

/// run_experiment's replications on the same pool, each replayed through
/// the traced serial loop on the worker that runs it.
Outcome traced_sweep(const SimulationContext& context, std::size_t runs,
                     ThreadPool& pool, const std::string& family,
                     const std::string& unit, Tracer& tracer) {
  struct Replication {
    RunResult result;
    Tracer tracer;
  };
  const Clock::time_point begin = Clock::now();
  std::vector<Replication> replications =
      parallel_map(pool, runs, [&](std::size_t i) {
        Tracer local(tracer.origin());
        const Clock::time_point start = Clock::now();
        RunResult result = traced_serial_run(context, i, family, unit,
                                             "parallel.replication", i == 0,
                                             local);
        local.record("parallel.replication", "parallel.experiment", unit,
                     start, Clock::now(), thread_lane(), /*overlapped=*/true);
        return Replication{std::move(result), std::move(local)};
      });
  const Clock::time_point end = Clock::now();
  tracer.record("parallel.experiment", "", unit, begin, end);
  std::vector<RunResult> results;
  double busy = 0.0;
  for (Replication& replication : replications) {
    busy += replication.tracer.totals("parallel.replication").total_s;
    tracer.merge(replication.tracer);
    results.push_back(std::move(replication.result));
  }
  tracer.count("parallel.replication_s", busy);
  tracer.count("parallel.pool_capacity_s",
               static_cast<double>(pool.size()) * seconds_between(begin, end));
  return check_experiment(aggregate_runs(results), runs, context.horizon(),
                          context.topology().size());
}

Outcome traced_dynamic(const DynamicConfig& config, const std::string& unit,
                       Tracer& tracer) {
  const Clock::time_point begin = Clock::now();
  const DynamicResult result = run_dynamic(config, config.network.seed);
  tracer.record("event.run_dynamic", "", unit, begin, Clock::now());
  tracer.count("event.events", static_cast<double>(result.events));
  tracer.count("event.admitted", static_cast<double>(result.admitted));
  tracer.count("event.hits", static_cast<double>(result.hits));
  tracer.count("event.misses", static_cast<double>(result.misses));
  tracer.count("event.evictions", static_cast<double>(result.evictions));
  tracer.peak("event.max_queue", static_cast<double>(result.queueing.max_queue));
  return check_dynamic(result);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One checked call into the library, repeated identically.
struct Unit {
  std::string key;     ///< fingerprint key, unique within the workload
  std::string family;  ///< one of kFamilies
  /// The timed call, on the state of copy `copy` (see Workload::copies).
  std::function<Outcome(std::size_t copy)> run;
  std::function<Outcome(Tracer&)> traced;  ///< the same call, traced
};

/// Set-up time samples of one config (seconds per build).
struct SetupSeries {
  std::function<void()> rebuild;  ///< one more build; null when expensive
  std::size_t batch = 1;          ///< builds per timed sample
  std::vector<double> samples;
};

struct Workload {
  std::vector<SetupSeries> setups;  ///< one per config
  std::vector<Unit> units;
  /// Identical copies of each timed call run side by side. Single-threaded
  /// workloads run one copy per core, each on state no other copy writes:
  /// on a shared host a lone thread's speed swings with the load of its
  /// core's neighbours far more than a full set of cores does.
  std::size_t copies = 1;
  // State the units point into.
  std::vector<std::unique_ptr<SimulationContext>> contexts;
  std::vector<std::unique_ptr<DynamicConfig>> dynamic_configs;
  std::unique_ptr<ThreadPool> pool;
  std::vector<const GraphTopology*> graphs;  ///< sparse-oracle topologies

  /// Σ over configs of the median seconds of one build.
  [[nodiscard]] double setup_s() const {
    double total = 0.0;
    for (const SetupSeries& series : setups) total += median(series.samples);
    return total;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 24301;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;  ///< tiny inputs, for the self-tests
  std::string trace_out;
};

/// Time `batch` builds; seconds per build.
double time_batch(const std::function<void()>& rebuild, std::size_t batch) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < batch; ++i) rebuild();
  return seconds_between(start, Clock::now()) / static_cast<double>(batch);
}

/// Build with `make()` (a lambda holding copies of its inputs) and record
/// the config's set-up time samples. A build that takes >= 0.1 s is timed
/// three times. A cheaper one is timed in batches lasting about two
/// milliseconds: five now, and more between the timed passes (`measure`),
/// because microsecond-scale builds drift with the load on the host.
/// Returns the last build.
template <typename Make>
auto timed_build(Make make, Workload& workload) {
  const Clock::time_point begin = Clock::now();
  auto built = make();
  SetupSeries series;
  series.samples = {seconds_between(begin, Clock::now())};
  if (series.samples[0] >= 0.1) {
    while (series.samples.size() < 3) {
      const Clock::time_point start = Clock::now();
      built = make();
      series.samples.push_back(seconds_between(start, Clock::now()));
    }
  } else {
    series.rebuild = [make] { (void)make(); };
    series.batch = static_cast<std::size_t>(
        std::ceil(2e-3 / std::max(series.samples[0], 1e-7)));
    while (series.samples.size() < 6) {
      series.samples.push_back(time_batch(series.rebuild, series.batch));
    }
  }
  workload.setups.push_back(std::move(series));
  return built;
}

const SimulationContext* keep(Workload& workload,
                              std::unique_ptr<SimulationContext> context) {
  workload.contexts.push_back(std::move(context));
  return workload.contexts.back().get();
}

struct FamilyCase {
  std::string family;
  std::string spec;
  std::size_t requests;  ///< per call; sized so one call takes ~0.1-0.2 s
};

/// torus-stream / torus-sharded: the paper's torus, one long streamed run
/// per strategy family on the serial or the sharded engine.
void build_torus(Workload& workload, const Options& options, bool sharded) {
  const std::uint32_t threads = sharded ? engine_threads() : 1;
  workload.copies = sharded ? 1 : pool_threads();
  const std::vector<FamilyCase> cases = {
      {"nearest", "nearest", 300'000},
      {"two-choice", "two-choice", 2'000'000},
      {"least-loaded", "least-loaded(r=8)", 500'000},
      {"prox-weighted", "prox-weighted(d=2, alpha=1)", 150'000}};
  for (const FamilyCase& c : cases) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=45)");
    config.num_files = 500;
    config.cache_size = 10;
    config.num_requests = options.small ? 4000 : c.requests;
    config.strategy_spec = parse_strategy_spec(c.spec);
    config.seed = options.seed;
    config.threads = threads;
    const SimulationContext* context = keep(
        workload,
        timed_build(
            [config] { return std::make_unique<SimulationContext>(config); },
            workload));
    const std::size_t horizon = context->horizon();
    const std::size_t nodes = context->topology().size();
    const std::string key = "torus(side=45)/" + c.spec;
    Unit unit{key, c.family, nullptr, nullptr};
    unit.run = [context, horizon, nodes](std::size_t) {
      return check_run(context->run(0), horizon, nodes);
    };
    if (sharded) {
      unit.traced = [context, threads, key, horizon, nodes](Tracer& tracer) {
        return check_run(traced_sharded_run(*context, threads, key, tracer),
                         horizon, nodes);
      };
    } else {
      unit.traced = [context, family = c.family, key, horizon,
                     nodes](Tracer& tracer) {
        traced_construction(*context, key, tracer);
        return check_run(traced_serial_run(*context, 0, family, key, "", true,
                                           tracer),
                         horizon, nodes);
      };
    }
    workload.units.push_back(std::move(unit));
  }
}

/// paper-sweep: the shape of bench/fig1-fig4 — run_experiment over torus
/// sizes x cache sizes (K = 2000, n requests per replication), many
/// replications per point on a pool of at most four workers.
void build_sweep(Workload& workload, const Options& options) {
  workload.pool = std::make_unique<ThreadPool>(pool_threads());
  ThreadPool* pool = workload.pool.get();
  // At side 150 and M = 100 every file has ~1100 replicas, so every file
  // gets a bucket grid on every replication, whatever the strategy.
  const std::vector<int> sides =
      options.small ? std::vector<int>{8, 12} : std::vector<int>{50, 100, 150};
  const std::vector<std::size_t> caches = {10, 100};
  const std::size_t runs = options.small ? 2 : 4;
  const std::vector<FamilyCase> cases = {
      {"nearest", "nearest", 0},
      {"two-choice", "two-choice", 0},
      {"least-loaded", "least-loaded(r=8)", 0},
      {"prox-weighted", "prox-weighted(d=2, alpha=1)", 0}};
  for (const int side : sides) {
    for (const std::size_t cache : caches) {
      for (const FamilyCase& c : cases) {
        ExperimentConfig config;
        config.topology_spec = parse_topology_spec(
            "torus(side=" + std::to_string(side) + ")");
        config.num_files = 2000;
        config.cache_size = cache;
        config.num_requests = 0;  // n requests per replication
        config.strategy_spec = parse_strategy_spec(c.spec);
        config.seed = options.seed;
        const SimulationContext* context = keep(
            workload,
            timed_build(
                [config] { return std::make_unique<SimulationContext>(config); },
                workload));
        const std::size_t horizon = context->horizon();
        const std::size_t nodes = context->topology().size();
        const std::string key = "torus(side=" + std::to_string(side) +
                                "),M=" + std::to_string(cache) + "/" + c.spec;
        Unit unit{key, c.family, nullptr, nullptr};
        unit.run = [context, runs, pool, horizon, nodes](std::size_t) {
          return check_experiment(run_experiment(*context, runs, pool), runs,
                                  horizon, nodes);
        };
        unit.traced = [context, runs, pool, family = c.family,
                       key](Tracer& tracer) {
          traced_construction(*context, key, tracer);
          return traced_sweep(*context, runs, *pool, family, key, tracer);
        };
        workload.units.push_back(std::move(unit));
      }
    }
  }
}

/// graph-sparse: rgg and hyperbolic graphs a few times above the distance
/// oracle's dense threshold, so every query runs the sparse oracle.
void build_graph(Workload& workload, const Options& options) {
  // The sparse oracle's row cache is mutex-guarded, so every copy gets its
  // own graph; only copy 0's build is timed as set-up. The graphs are fixed,
  // like the torus; --seed drives placement and requests (graphs drawn per
  // seed spread the rates too widely).
  workload.copies = pool_threads();
  const std::string seed = "1";
  const std::string n = options.small ? "6000" : "32768";
  struct GraphCase {
    std::string spec;
    std::vector<FamilyCase> cases;
  };
  const std::vector<GraphCase> graphs = {
      {"rgg(n=" + n + ", radius=" + (options.small ? "0.03" : "0.014") +
           ", seed=" + seed + ")",
       {{"nearest", "nearest", 20'000},
        {"two-choice", "two-choice(r=8)", 2'000},
        {"least-loaded", "least-loaded(r=8)", 2'000},
        {"prox-weighted", "prox-weighted(d=2, alpha=1)", 2'000}}},
      {"hyperbolic(n=" + n + ", degree=10, seed=" + seed + ")",
       {{"nearest", "nearest", 2'000},
        {"two-choice", "two-choice(r=8)", 2'000},
        {"least-loaded", "least-loaded(r=8)", 2'000},
        {"prox-weighted", "prox-weighted(d=2, alpha=1)", 2'000}}}};
  const ExperimentConfig base =
      ScenarioRegistry::built_ins().at("baseline-uniform").config;
  for (const GraphCase& graph : graphs) {
    ExperimentConfig config = base;
    config.topology_spec = parse_topology_spec(graph.spec);
    config.seed = options.seed;
    std::vector<std::shared_ptr<const Topology>> topologies = {timed_build(
        [config] { return materialize_topology(config); }, workload)};
    while (topologies.size() < workload.copies) {
      topologies.push_back(materialize_topology(config));
    }
    workload.graphs.push_back(
        dynamic_cast<const GraphTopology*>(topologies[0].get()));
    for (const FamilyCase& c : graph.cases) {
      ExperimentConfig family_config = config;
      family_config.strategy_spec = parse_strategy_spec(c.spec);
      family_config.num_requests = options.small ? 300 : c.requests;
      std::vector<const SimulationContext*> contexts;
      for (const std::shared_ptr<const Topology>& topology : topologies) {
        const auto make = [family_config, topology] {
          return std::make_unique<SimulationContext>(family_config, topology);
        };
        contexts.push_back(keep(
            workload, contexts.empty() ? timed_build(make, workload) : make()));
      }
      const SimulationContext* context = contexts[0];
      const std::size_t horizon = context->horizon();
      const std::size_t nodes = context->topology().size();
      const std::string key = graph.spec + "/" + c.spec;
      Unit unit{key, c.family, nullptr, nullptr};
      unit.run = [contexts, horizon, nodes](std::size_t copy) {
        return check_run(contexts[copy]->run(0), horizon, nodes);
      };
      unit.traced = [context, family = c.family, key, horizon,
                     nodes](Tracer& tracer) {
        traced_construction(*context, key, tracer);
        return check_run(traced_serial_run(*context, 0, family, key, "", true,
                                           tracer),
                         horizon, nodes);
      };
      workload.units.push_back(std::move(unit));
    }
  }
}

/// dynamic: the event engine on the torus under a flash crowd, with LRU
/// caches that churn (capacity below M) and hop latency on responses.
void build_dynamic(Workload& workload, const Options& options) {
  workload.copies = pool_threads();
  const std::vector<FamilyCase> cases = {
      {"nearest", "nearest", 0},
      {"two-choice", "two-choice", 0},
      {"least-loaded", "least-loaded(r=8)", 0},
      {"prox-weighted", "prox-weighted(d=2, alpha=1)", 0}};
  for (const FamilyCase& c : cases) {
    auto config = std::make_unique<DynamicConfig>();
    config->network = ScenarioRegistry::built_ins().at("flash-crowd").config;
    config->network.topology_spec = parse_topology_spec("torus(side=45)");
    config->network.trace.arrival_rate = 0.7;
    config->network.strategy_spec = parse_strategy_spec(c.spec);
    config->network.seed = options.seed;
    config->horizon = options.small ? 4.0 : 60.0;
    config->hop_latency = 0.1;
    config->cache_policy = parse_cache_policy_spec("lru(capacity=4)");
    // run_dynamic builds its topology and popularity inside the call; the
    // same per-config state, built standalone, stands in as its set-up.
    (void)timed_build(
        [network = config->network] {
          return std::make_unique<SimulationContext>(network);
        },
        workload);
    const DynamicConfig* dynamic = config.get();
    workload.dynamic_configs.push_back(std::move(config));
    const std::string key = "torus(side=45),flash-crowd,lru(capacity=4)/" +
                            c.spec;
    Unit unit{key, c.family, nullptr, nullptr};
    unit.run = [dynamic](std::size_t) {
      return check_dynamic(run_dynamic(*dynamic, dynamic->network.seed));
    };
    unit.traced = [dynamic, key](Tracer& tracer) {
      return traced_dynamic(*dynamic, key, tracer);
    };
    workload.units.push_back(std::move(unit));
  }
}

Workload build_workload(const Options& options) {
  Workload workload;
  if (options.workload == "torus-stream") {
    build_torus(workload, options, false);
  } else if (options.workload == "torus-sharded") {
    build_torus(workload, options, true);
  } else if (options.workload == "paper-sweep") {
    build_sweep(workload, options);
  } else if (options.workload == "graph-sparse") {
    build_graph(workload, options);
  } else if (options.workload == "dynamic") {
    build_dynamic(workload, options);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  return workload;
}

// ---------------------------------------------------------------------------
// Runs and reports
// ---------------------------------------------------------------------------

struct Report {
  std::uint64_t attempted = 0;
  std::vector<std::string> failed_runs;  ///< "<unit key>#<repetition>"
  std::vector<std::string> violations;   ///< what each failed run broke
  std::map<std::string, std::string> fingerprints;  ///< key -> warm-up result
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// Run `unit` once and check it; `reference` is null on the warm-up call,
/// which then becomes the reference. Returns false when the run failed.
bool checked_call(Report& report, const std::function<Outcome()>& call,
                  const std::string& key, std::size_t rep,
                  const Outcome* reference, Outcome& outcome) {
  ++report.attempted;
  std::vector<std::string> problems;
  try {
    outcome = call();
    problems = outcome.violations;
    if (reference != nullptr && outcome.identity != reference->identity) {
      problems.push_back("result differs from the unit's first run");
    }
  } catch (const std::exception& error) {
    problems.push_back(std::string("threw: ") + error.what());
  }
  if (problems.empty()) return true;
  const std::string id = key + "#" + std::to_string(rep);
  report.failed_runs.push_back(id);
  for (const std::string& problem : problems) {
    report.violations.push_back(id + ": " + problem);
  }
  return false;
}

/// Run `call` on `copies` threads at once, the calling thread included.
/// Returns the first copy's outcome, with a violation when another copy
/// threw or disagreed with it.
Outcome run_copies(const std::function<Outcome(std::size_t)>& call,
                   std::size_t copies) {
  if (copies <= 1) return call(0);
  std::vector<Outcome> outcomes(copies);
  std::vector<std::string> errors(copies);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 1; c < copies; ++c) {
      threads.emplace_back([&call, &outcomes, &errors, c] {
        try {
          outcomes[c] = call(c);
        } catch (const std::exception& error) {
          errors[c] = error.what();
        }
      });
    }
    outcomes[0] = call(0);
  }
  for (std::size_t c = 1; c < copies; ++c) {
    if (!errors[c].empty()) {
      outcomes[0].violations.push_back("a copy threw: " + errors[c]);
    } else if (outcomes[c].identity != outcomes[0].identity) {
      outcomes[0].violations.push_back("copies of one call disagree");
    }
  }
  return outcomes[0];
}

/// Warm-up pass: every unit once; each result becomes its unit's reference.
std::vector<Outcome> warm_up(const Workload& workload, Report& report) {
  std::vector<Outcome> references(workload.units.size());
  for (std::size_t i = 0; i < workload.units.size(); ++i) {
    const Unit& unit = workload.units[i];
    checked_call(
        report, [&unit] { return unit.run(0); }, unit.key, 0, nullptr,
        references[i]);
    report.fingerprints[unit.key] = references[i].fingerprint;
  }
  return references;
}

/// Timed mode: round-robin passes over the units until `budget_s` has
/// passed and every unit has kMinReps timed calls. Rates use each unit's
/// median call time. Cheap set-ups are sampled again after every pass.
void measure(Workload& workload, double budget_s, Report& report) {
  const std::vector<Outcome> references = warm_up(workload, report);
  std::vector<std::vector<double>> seconds(workload.units.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 1;; ++rep) {
    for (std::size_t i = 0; i < workload.units.size(); ++i) {
      const Unit& unit = workload.units[i];
      Outcome outcome;
      const Clock::time_point begin = Clock::now();
      const bool ok = checked_call(
          report, [&] { return run_copies(unit.run, workload.copies); },
          unit.key, rep, &references[i], outcome);
      const double elapsed = seconds_between(begin, Clock::now());
      if (ok) seconds[i].push_back(elapsed);
    }
    for (SetupSeries& series : workload.setups) {
      if (!series.rebuild) continue;
      for (int k = 0; k < 2; ++k) {
        series.samples.push_back(time_batch(series.rebuild, series.batch));
      }
    }
    if (rep >= kMinReps && seconds_between(start, Clock::now()) >= budget_s) {
      break;
    }
  }

  std::map<std::string, std::pair<double, double>> by_family;  // req, s
  double all_requests = 0.0;
  double all_seconds = 0.0;
  std::cout << "\nunit medians:\n";
  for (std::size_t i = 0; i < workload.units.size(); ++i) {
    if (seconds[i].empty()) continue;
    const double unit_s = median(seconds[i]);
    const auto requests =
        static_cast<double>(references[i].requests * workload.copies);
    by_family[workload.units[i].family].first += requests;
    by_family[workload.units[i].family].second += unit_s;
    all_requests += requests;
    all_seconds += unit_s;
    std::printf("  %-62s %9.4f s %13.0f req/s (min %.4f max %.4f s, %zu calls)\n",
                workload.units[i].key.c_str(), unit_s, requests / unit_s,
                *std::min_element(seconds[i].begin(), seconds[i].end()),
                *std::max_element(seconds[i].begin(), seconds[i].end()),
                seconds[i].size());
  }
  report.metric("setup_s", workload.setup_s(), "s");
  report.metric("req_per_s", all_seconds > 0 ? all_requests / all_seconds : 0,
                "req/s");
  for (const std::string& family : kFamilies) {
    const auto [requests, unit_s] = by_family[family];
    report.metric("req_per_s." + family, unit_s > 0 ? requests / unit_s : 0,
                  "req/s");
  }
  report.metric("peak_rss_mb",
                static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
                "MiB");
}

DistanceOracle::Stats oracle_totals(const Workload& workload) {
  DistanceOracle::Stats sum;
  for (const GraphTopology* graph : workload.graphs) {
    const DistanceOracle::Stats stats = graph->oracle().stats();
    sum.rows_built += stats.rows_built;
    sum.rows_evicted += stats.rows_evicted;
    sum.exact_answers += stats.exact_answers;
    sum.landmark_answers += stats.landmark_answers;
  }
  return sum;
}

/// Traced mode: after a warm-up pass, alternate an untraced and a traced
/// pass over all units until `options.seconds` have passed (at least one
/// pair). Both passes must reproduce the warm-up results exactly.
void trace_workload(const Workload& workload, const Options& options,
                    Report& report) {
  const std::vector<Outcome> references = warm_up(workload, report);
  Tracer tracer(Clock::now());
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  DistanceOracle::Stats oracle_delta;
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 1;; ++rep) {
    const Clock::time_point untraced_begin = Clock::now();
    for (std::size_t i = 0; i < workload.units.size(); ++i) {
      const Unit& unit = workload.units[i];
      Outcome outcome;
      checked_call(
          report, [&unit] { return unit.run(0); }, unit.key, 2 * rep - 1,
          &references[i], outcome);
    }
    untraced_walls.push_back(seconds_between(untraced_begin, Clock::now()));

    const DistanceOracle::Stats before = oracle_totals(workload);
    const Clock::time_point traced_begin = Clock::now();
    for (std::size_t i = 0; i < workload.units.size(); ++i) {
      const Unit& unit = workload.units[i];
      Outcome outcome;
      checked_call(
          report, [&] { return unit.traced(tracer); }, unit.key, 2 * rep,
          &references[i], outcome);
    }
    traced_walls.push_back(seconds_between(traced_begin, Clock::now()));
    const DistanceOracle::Stats after = oracle_totals(workload);
    oracle_delta.rows_built += after.rows_built - before.rows_built;
    oracle_delta.rows_evicted += after.rows_evicted - before.rows_evicted;
    oracle_delta.exact_answers += after.exact_answers - before.exact_answers;
    oracle_delta.landmark_answers +=
        after.landmark_answers - before.landmark_answers;
    if (seconds_between(start, Clock::now()) >= options.seconds) break;
  }

  const auto passes = static_cast<double>(traced_walls.size());
  const auto per_pass = [&](double value) { return value / passes; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto T = [&](const std::string& name) { return tracer.totals(name); };
  const auto C = [&](const std::string& name) { return tracer.counter(name); };

  report.metric("scenario.next_ns", T("scenario.next").mean_ns(), "ns");
  report.metric("scenario.resampled", per_pass(C("scenario.resampled")),
                "count");
  report.metric("scenario.dropped", per_pass(C("scenario.dropped")), "count");
  for (const std::string& family : kFamilies) {
    const std::string prefix = "strategy." + family;
    const auto proposals = static_cast<double>(T(prefix + ".propose").count);
    report.metric(prefix + ".propose_ns", T(prefix + ".propose").mean_ns(),
                  "ns");
    report.metric(prefix + ".choose_ns", T(prefix + ".choose").mean_ns(), "ns");
    report.metric(prefix + ".candidates",
                  ratio(C(prefix + ".candidates"), proposals), "count");
    report.metric(prefix + ".decided_share",
                  ratio(C(prefix + ".decided"), proposals), "share");
    report.metric(prefix + ".fallbacks", per_pass(C(prefix + ".fallbacks")),
                  "count");
  }
  report.metric("core.commit_ns", T("core.commit").mean_ns(), "ns");
  report.metric("core.harness_build_s", T("core.harness_build").mean_s(), "s");
  report.metric("core.finalize_s", T("core.finalize").mean_s(), "s");
  report.metric("catalog.placement_s", T("catalog.placement").mean_s(), "s");
  report.metric("spatial.index_build_s", T("spatial.index_build").mean_s(),
                "s");
  report.metric("spatial.bucket_grids",
                ratio(C("spatial.bucket_grids"),
                      static_cast<double>(T("spatial.index_build").count)),
                "count");
  for (const std::string path : {"shell_scan", "bucket_grid", "ball_walk"}) {
    double taken = 0.0;
    for (const std::string& family : kFamilies) {
      taken += C("spatial." + family + "." + path);
    }
    report.metric("spatial." + path + "_share",
                  ratio(taken, C("spatial.sampled")), "share");
  }
  report.metric("graph.rows_built",
                per_pass(static_cast<double>(oracle_delta.rows_built) -
                         C("graph.excluded.rows_built")),
                "count");
  report.metric("graph.rows_evicted",
                per_pass(static_cast<double>(oracle_delta.rows_evicted) -
                         C("graph.excluded.rows_evicted")),
                "count");
  report.metric("graph.exact_answers",
                per_pass(static_cast<double>(oracle_delta.exact_answers) -
                         C("graph.excluded.exact_answers")),
                "count");
  report.metric("graph.landmark_answers",
                per_pass(static_cast<double>(oracle_delta.landmark_answers) -
                         C("graph.excluded.landmark_answers")),
                "count");
  double cached = 0.0;
  double exact_diameters = 0.0;
  for (const GraphTopology* graph : workload.graphs) {
    cached += static_cast<double>(graph->oracle().cached_entries());
    exact_diameters += graph->oracle().diameter_is_exact() ? 1.0 : 0.0;
  }
  report.metric("graph.cached_entries", cached, "count");
  report.metric("graph.diameter_exact", exact_diameters, "count");
  report.metric("parallel.fill_s", per_pass(T("parallel.fill").total_s), "s");
  report.metric("parallel.propose_s", per_pass(T("parallel.propose").total_s),
                "s");
  report.metric("parallel.join_s", per_pass(T("parallel.join").total_s), "s");
  report.metric("parallel.commit_s", per_pass(T("parallel.commit").total_s),
                "s");
  report.metric("parallel.batches", per_pass(C("parallel.batches")), "count");
  report.metric("parallel.lane_imbalance",
                ratio(C("parallel.lane_imbalance"), C("parallel.lane_runs")),
                "ratio");
  report.metric("parallel.pool_efficiency",
                ratio(C("parallel.replication_s"), C("parallel.pool_capacity_s")),
                "share");
  report.metric("event.events", per_pass(C("event.events")), "count");
  report.metric("event.events_per_request",
                ratio(C("event.events"), C("event.admitted")), "ratio");
  report.metric("event.hits", per_pass(C("event.hits")), "count");
  report.metric("event.misses", per_pass(C("event.misses")), "count");
  report.metric("event.evictions", per_pass(C("event.evictions")), "count");
  report.metric("event.max_queue", tracer.peak_value("event.max_queue"),
                "count");
  for (const std::string& layer : kSpanLayers) {
    report.metric(layer + ".self_s", per_pass(tracer.layer_self_s(layer)), "s");
  }
  double traced_total = 0.0;
  std::vector<double> overheads;
  for (std::size_t i = 0; i < traced_walls.size(); ++i) {
    traced_total += traced_walls[i];
    overheads.push_back(traced_walls[i] - untraced_walls[i]);
  }
  double untraced_total = 0.0;
  for (const double wall : untraced_walls) untraced_total += wall;
  report.metric("trace.wall_s", per_pass(traced_total), "s");
  report.metric("trace.untraced_s", per_pass(untraced_total), "s");
  report.metric("trace.overhead_s", median(overheads), "s");
  report.metric("trace.uncovered_s",
                per_pass(traced_total - tracer.top_level_s()), "s");

  std::cout << "\nspans per traced pass (" << traced_walls.size()
            << " passes; self time = total minus child spans):\n";
  for (const auto& [name, totals] : tracer.all()) {
    std::printf("  %-34s %12.0f calls %12.6f s total %12.6f s self\n",
                name.c_str(), per_pass(static_cast<double>(totals.count)),
                per_pass(totals.total_s), per_pass(totals.self_s()));
  }
  std::cout << "per serial-engine unit: propose ns and distance-oracle work "
               "per request; replica-query paths of sampled requests "
               "(list scan / shell scan / bucket grid / ball walk)\n";
  for (const Unit& unit : workload.units) {
    const std::string per_unit = "unit:" + unit.key + ":";
    const double requests = C(per_unit + "requests");
    if (requests == 0.0) continue;
    double sampled = 0.0;
    for (const std::string path :
         {"list_scan", "shell_scan", "bucket_grid", "ball_walk"}) {
      sampled += C(per_unit + path);
    }
    std::printf(
        "  %-62s %9.0f ns  rows %.3f  exact %.1f  landmark %.1f  paths "
        "%.0f/%.0f/%.0f/%.0f%%\n",
        unit.key.c_str(), 1e9 * C(per_unit + "propose_s") / requests,
        C(per_unit + "rows_built") / requests,
        C(per_unit + "exact_answers") / requests,
        C(per_unit + "landmark_answers") / requests,
        100.0 * ratio(C(per_unit + "list_scan"), sampled),
        100.0 * ratio(C(per_unit + "shell_scan"), sampled),
        100.0 * ratio(C(per_unit + "bucket_grid"), sampled),
        100.0 * ratio(C(per_unit + "ball_walk"), sampled));
  }

  if (!options.trace_out.empty()) {
    std::ostringstream metadata;
    metadata << "{\"workload\": " << json_string(options.workload)
             << ", \"seed\": " << options.seed
             << ", \"traced_passes\": " << traced_walls.size() << "}";
    if (!tracer.write(options.trace_out, metadata.str())) {
      throw std::runtime_error("cannot write " + options.trace_out);
    }
    std::cout << "trace written to " << options.trace_out << '\n';
  }
}

void print_report(const Report& report, const Options& options) {
  std::cout << '\n';
  for (const auto& [name, value] : report.metrics) {
    std::printf("%-34s %.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  for (const std::string& violation : report.violations) {
    std::cout << "FAILED " << violation << '\n';
  }
  std::ostringstream os;
  os << "{\"workload\": " << json_string(options.workload)
     << ", \"seed\": " << options.seed
     << ", \"scale\": " << json_string(options.small ? "small" : "full")
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"attempted\": " << report.attempted << ", \"failed_runs\": [";
  for (std::size_t i = 0; i < report.failed_runs.size(); ++i) {
    os << (i ? ", " : "") << json_string(report.failed_runs[i]);
  }
  os << "], \"fingerprints\": {";
  bool first = true;
  for (const auto& [key, fingerprint] : report.fingerprints) {
    os << (first ? "" : ", ") << json_string(key) << ": "
       << json_string(fingerprint);
    first = false;
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, value] : report.metrics) {
    const double number = std::isfinite(value.first) ? value.first : 0.0;
    os << (first ? "" : ", ") << json_string(name)
       << ": {\"value\": " << exact(number)
       << ", \"unit\": " << json_string(value.second) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << '\n';
    if (!ok) ++failures;
  };

  // The traced loops reproduce SimulationContext::run bit for bit.
  for (const std::string& name : kWorkloads) {
    if (name == "dynamic") continue;  // traced by one span around the call
    Options options;
    options.workload = name;
    options.small = true;
    const Workload workload = build_workload(options);
    Tracer tracer(Clock::now());
    for (const auto& context : workload.contexts) {
      const std::size_t horizon = context->horizon();
      const std::size_t nodes = context->topology().size();
      const RunResult plain = context->run(1);
      const RunResult traced =
          context->config().threads >= 2
              ? traced_sharded_run(*context, context->config().threads,
                                   "self-test", tracer)
              : traced_serial_run(*context, 1, "self-test", "self-test", "",
                                  true, tracer);
      const Outcome a = check_run(plain, horizon, nodes);
      const Outcome b = check_run(traced, horizon, nodes);
      // The sharded traced call runs index 0; compare it with run(0).
      const Outcome reference =
          context->config().threads >= 2
              ? check_run(context->run(0), horizon, nodes)
              : a;
      expect(b.identity == reference.identity && a.violations.empty(),
             name + ": traced " + context->config().resolved_strategy().name +
                 " on " + context->topology().describe() +
                 " reproduces SimulationContext::run");
    }
  }

  // A perturbed result is reported as a failed run, and the others pass.
  Workload fake;
  int calls = 0;
  fake.units.push_back({"steady", "nearest",
                        [](std::size_t) { return Outcome{1, "f", "f", {}}; },
                        nullptr});
  fake.units.push_back({"perturbed", "nearest",
                        [&calls](std::size_t) {
                          ++calls;
                          return Outcome{1, "f", calls == 3 ? "g" : "f", {}};
                        },
                        nullptr});
  fake.units.push_back(
      {"broken", "nearest",
       [](std::size_t) { return Outcome{1, "f", "f", {"invariant"}}; },
       nullptr});
  Report report;
  measure(fake, 0.0, report);
  expect(report.attempted == 3 * (kMinReps + 1),
         "every call of every unit is attempted");
  const std::vector<std::string> expected_failures = {
      "broken#0", "broken#1", "perturbed#2", "broken#2", "broken#3"};
  expect(report.failed_runs == expected_failures,
         "a perturbed result and a broken invariant count as failed runs");

  RunResult corrupt;
  corrupt.requests = 5;
  corrupt.load_histogram.add(2, 3);  // 3 servers, 6 requests
  expect(check_run(corrupt, 5, 4).violations.size() == 2,
         "histogram invariants flag a corrupted result");

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << '\n';
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  (void)thread_lane();  // the main thread is lane 0 in span records
  ArgParser args("perfbench", "proxcache benchmark workloads");
  args.add_string("workload", "torus-stream",
                  "torus-stream | torus-sharded | paper-sweep | graph-sparse "
                  "| dynamic");
  args.add_int("seed", 24301, "workload seed (the configs' root seed)");
  args.add_double("seconds", 10.0, "measuring time per run");
  args.add_int("trace", 0, "0 = timed run, 1 = traced run");
  args.add_string("scale", "full", "full | small (self-test inputs)");
  args.add_string("trace-out", "", "--trace 1: Chrome trace file to write");
  args.add_flag("self-test", "run the benchmark's own tests");
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
  if (args.get_flag("self-test")) return self_test();

  Options options;
  options.workload = args.get_string("workload");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  options.seconds = args.get_double("seconds");
  options.trace = args.get_int("trace") != 0;
  options.small = args.get_string("scale") == "small";
  options.trace_out = args.get_string("trace-out");
  try {
    std::cout << "workload " << options.workload << ", seed " << options.seed
              << ", " << options.seconds << " s, "
              << (options.trace ? "traced" : "timed") << '\n';
    Workload workload = build_workload(options);
    std::cout << workload.units.size() << " units, " << workload.setups.size()
              << " configs\n";
    Report report;
    if (options.trace) {
      trace_workload(workload, options, report);
    } else {
      measure(workload, options.seconds, report);
    }
    print_report(report, options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
