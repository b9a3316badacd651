// Differential regression suite for the supermarket model: the event
// engine at its supermarket special case (static policy, zero hop latency,
// uniform origins, static trace) must match the pre-engine supermarket
// loop (`run_supermarket_reference`, kept below as the oracle) bit-for-bit
// on every queueing field, across strategies, topologies, popularity laws
// and load levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "core/request.hpp"
#include "event/engine.hpp"
#include "random/alias_sampler.hpp"
#include "random/seeding.hpp"
#include "spatial/replica_index.hpp"
#include "strategy/queue_view.hpp"
#include "strategy/registry.hpp"
#include "topology/registry.hpp"
#include "util/contracts.hpp"

namespace proxcache {
namespace {

struct Event {
  double time;
  enum class Kind : std::uint8_t { Arrival, Departure } kind;
  NodeId server;  // departures only

  bool operator>(const Event& other) const { return time > other.time; }
};

double exponential(Rng& rng, double rate) {
  // Inverse CDF; uniform() < 1 so log argument is in (0, 1].
  return -std::log(1.0 - rng.uniform()) / rate;
}

/// The supermarket loop as it stood before the event engine: Poisson
/// arrivals at `n·λ`, uniform origins, popularity-drawn files, FIFO
/// exponential service, strategies comparing live queue lengths. Reads the
/// network, λ, μ, horizon and warmup from `config`; every other
/// DynamicConfig field is the engine's and is ignored here.
QueueingResult run_supermarket_reference(const DynamicConfig& config,
                                         std::uint64_t seed) {
  const double arrival_rate = config.network.trace.arrival_rate;
  config.network.validate();
  PROXCACHE_REQUIRE(arrival_rate > 0.0, "arrival rate must be > 0");
  PROXCACHE_REQUIRE(config.service_rate > 0.0, "service rate must be > 0");
  PROXCACHE_REQUIRE(config.horizon > 0.0, "horizon must be > 0");
  PROXCACHE_REQUIRE(
      config.warmup_fraction >= 0.0 && config.warmup_fraction < 1.0,
      "warmup fraction must be in [0, 1)");

  const auto& net = config.network;
  const std::shared_ptr<const Topology> topology =
      TopologyRegistry::global().make(net.resolved_topology());
  const Popularity popularity = net.popularity.materialize(net.num_files);

  Rng placement_rng(derive_seed(seed, {0, seed_phase::kPlacement}));
  const Placement placement = Placement::generate(
      topology->size(), popularity, net.cache_size, net.placement_mode,
      placement_rng);
  const ReplicaIndex index(*topology, placement);

  const StrategyRegistry& registry = StrategyRegistry::global();
  const StrategySpec spec = registry.with_defaults(net.resolved_strategy());
  PROXCACHE_REQUIRE(spec.get_or("stale", 1.0) == 1.0,
                    "the queueing model compares live queue lengths; "
                    "'stale' is a batch-simulator parameter (drop it or set "
                    "stale=1)");
  const std::unique_ptr<Strategy> strategy =
      registry.at(spec.name).factory(spec, index, *topology, net);

  Rng rng(derive_seed(seed, {0, seed_phase::kQueueing}));
  const AliasSampler file_sampler(popularity.pmf());

  const std::size_t n = topology->size();
  const double aggregate_rate = arrival_rate * static_cast<double>(n);
  const double warmup = config.horizon * config.warmup_fraction;

  QueueLoadView queues(n);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  events.push({exponential(rng, aggregate_rate), Event::Kind::Arrival, 0});

  std::vector<std::queue<double>> admission_times(n);  // FIFO per server
  double total_sojourn = 0.0;
  std::uint64_t completed = 0;
  double queue_integral = 0.0;   // ∫ Σ_u q_u(t) dt after warmup
  double busy_integral = 0.0;    // ∫ #busy(t) dt after warmup
  double last_time = 0.0;
  Load max_queue = 0;
  std::uint64_t admitted = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t busy_servers = 0;
  std::uint64_t total_queued = 0;

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    if (event.time > config.horizon) break;

    // Accumulate time-weighted statistics for the elapsed interval.
    if (event.time > warmup) {
      const double from = std::max(last_time, warmup);
      const double dt = event.time - from;
      queue_integral += dt * static_cast<double>(total_queued);
      busy_integral += dt * static_cast<double>(busy_servers);
    }
    last_time = event.time;

    if (event.kind == Event::Kind::Arrival) {
      // Schedule the next arrival first (Poisson process).
      events.push({event.time + exponential(rng, aggregate_rate),
                   Event::Kind::Arrival, 0});

      Request request;
      request.origin = static_cast<NodeId>(rng.below(n));
      request.file = file_sampler.sample(rng);
      if (placement.replica_count(request.file) == 0) {
        continue;  // uncached file: lost arrival (counted nowhere; rare)
      }
      Assignment assignment = strategy->assign(request, queues, rng);
      if (assignment.server == kInvalidNode) continue;

      const NodeId server = assignment.server;
      if (queues.length(server) == 0) ++busy_servers;
      queues.push(server);
      ++total_queued;
      max_queue = std::max(max_queue, queues.length(server));
      admission_times[server].push(event.time);
      ++admitted;
      total_hops += assignment.hops;
      if (queues.length(server) == 1) {
        events.push({event.time + exponential(rng, config.service_rate),
                     Event::Kind::Departure, server});
      }
    } else {
      const NodeId server = event.server;
      queues.pop(server);
      --total_queued;
      const double admitted_at = admission_times[server].front();
      admission_times[server].pop();
      if (event.time > warmup) {
        total_sojourn += event.time - admitted_at;
        ++completed;
      }
      if (queues.length(server) > 0) {
        events.push({event.time + exponential(rng, config.service_rate),
                     Event::Kind::Departure, server});
      } else {
        --busy_servers;
      }
    }
  }

  QueueingResult result;
  const double measured = config.horizon - warmup;
  result.completed = completed;
  result.max_queue = max_queue;
  if (completed > 0) {
    result.mean_sojourn = total_sojourn / static_cast<double>(completed);
  }
  if (measured > 0.0) {
    result.mean_queue =
        queue_integral / measured / static_cast<double>(n);
    result.utilization =
        busy_integral / measured / static_cast<double>(n);
  }
  if (admitted > 0) {
    result.mean_hops =
        static_cast<double>(total_hops) / static_cast<double>(admitted);
  }
  return result;
}

DynamicConfig base_config() {
  DynamicConfig config;
  config.network.topology_spec = parse_topology_spec("torus(side=10)");
  config.network.num_files = 20;
  config.network.cache_size = 5;
  config.network.seed = 5;
  config.network.strategy_spec = parse_strategy_spec("two-choice");
  config.network.trace.arrival_rate = 0.5;
  config.service_rate = 1.0;
  config.horizon = 300.0;
  config.warmup_fraction = 0.25;
  return config;
}

void expect_bit_identical(const DynamicConfig& config, std::uint64_t seed) {
  const QueueingResult engine = run_dynamic(config, seed).queueing;
  const QueueingResult reference = run_supermarket_reference(config, seed);
  EXPECT_EQ(engine.completed, reference.completed);
  EXPECT_EQ(engine.max_queue, reference.max_queue);
  // Exact double equality on purpose: the engine replays the reference
  // loop's draw and accumulation order, so these are the same bits, not
  // merely close values.
  EXPECT_EQ(engine.mean_sojourn, reference.mean_sojourn);
  EXPECT_EQ(engine.mean_queue, reference.mean_queue);
  EXPECT_EQ(engine.mean_hops, reference.mean_hops);
  EXPECT_EQ(engine.utilization, reference.utilization);
}

TEST(EventSupermarket, MatchesReferenceTwoChoice) {
  expect_bit_identical(base_config(), 3);
}

TEST(EventSupermarket, MatchesReferenceAcrossStrategies) {
  for (const char* strategy :
       {"nearest", "two-choice(d=2, r=8)", "least-loaded(r=8)",
        "prox-weighted(d=2, alpha=1)"}) {
    DynamicConfig config = base_config();
    config.network.strategy_spec = parse_strategy_spec(strategy);
    SCOPED_TRACE(strategy);
    expect_bit_identical(config, 11);
  }
}

TEST(EventSupermarket, MatchesReferenceAcrossTopologies) {
  for (const char* topology :
       {"ring(n=100)", "tree(branching=3, depth=4)",
        "rgg(n=100, radius=0.2, seed=7)"}) {
    DynamicConfig config = base_config();
    config.network.topology_spec = parse_topology_spec(topology);
    SCOPED_TRACE(topology);
    expect_bit_identical(config, 17);
  }
}

TEST(EventSupermarket, MatchesReferenceUnderHighLoadAndZipf) {
  DynamicConfig config = base_config();
  config.network.trace.arrival_rate = 0.9;
  config.network.popularity.kind = PopularityKind::Zipf;
  config.network.popularity.gamma = 0.8;
  expect_bit_identical(config, 23);
}

TEST(EventSupermarket, MatchesReferenceWithSparsePlacement) {
  // A small cache over a larger library leaves files with few (or zero)
  // replicas, exercising the lost-arrival path on both sides.
  DynamicConfig config = base_config();
  config.network.num_files = 200;
  config.network.cache_size = 2;
  expect_bit_identical(config, 29);
}

TEST(EventSupermarket, StaticPolicyReportsAllHits) {
  // The same special case through the engine's cache counters: static
  // policy at zero latency serves every completion from the frozen
  // placement.
  DynamicConfig config = base_config();
  config.horizon = 100.0;
  const DynamicResult result = run_dynamic(config, 3);
  EXPECT_GT(result.hits, 0u);
  EXPECT_EQ(result.misses, 0u);
  EXPECT_EQ(result.hit_rate, 1.0);
  EXPECT_EQ(result.inserts, 0u);
  EXPECT_EQ(result.evictions, 0u);
}

}  // namespace
}  // namespace proxcache
