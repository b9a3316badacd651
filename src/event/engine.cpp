#include "event/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <vector>

#include "catalog/cache_state.hpp"
#include "core/metrics.hpp"
#include "core/request.hpp"
#include "random/seeding.hpp"
#include "scenario/trace_source.hpp"
#include "spatial/replica_index.hpp"
#include "strategy/queue_view.hpp"
#include "strategy/registry.hpp"
#include "tier/materialize.hpp"
#include "tier/tier_set.hpp"
#include "tier/tiered_topology.hpp"
#include "util/contracts.hpp"

namespace proxcache {

namespace {

/// A request in flight: born at `born` at `origin`, assigned over `hops`
/// hops. Carried through Enqueue (forward latency) and Response (return
/// latency) events and through the per-server FIFO.
struct Job {
  double born;
  NodeId origin;
  FileId file;
  Hop hops;
};

struct Event {
  double time;
  std::uint64_t seq;  ///< insertion order: the stable tie-break
  enum class Kind : std::uint8_t { Arrival, Enqueue, Departure, Response };
  Kind kind;
  NodeId server;
  Job job;  // Enqueue / Response payload

  /// Min-heap order: earliest time first; equal times resolve by insertion
  /// sequence so the schedule never depends on heap internals.
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

double exponential(Rng& rng, double rate) {
  // Inverse CDF; uniform() < 1 so log argument is in (0, 1].
  return -std::log(1.0 - rng.uniform()) / rate;
}

}  // namespace

DynamicResult run_dynamic(const DynamicConfig& config, std::uint64_t seed) {
  config.network.validate();
  PROXCACHE_REQUIRE(config.service_rate > 0.0, "service rate must be > 0");
  PROXCACHE_REQUIRE(config.horizon > 0.0, "horizon must be > 0");
  PROXCACHE_REQUIRE(
      config.warmup_fraction >= 0.0 && config.warmup_fraction < 1.0,
      "warmup fraction must be in [0, 1)");
  PROXCACHE_REQUIRE(config.hop_latency >= 0.0, "hop latency must be >= 0");
  PROXCACHE_REQUIRE(config.metric_windows >= 1 &&
                        config.metric_windows <= kMaxMetricWindows,
                    "metric windows must be in [1, " +
                        std::to_string(kMaxMetricWindows) + "], got " +
                        std::to_string(config.metric_windows));

  const auto& net = config.network;
  const std::shared_ptr<const Topology> topology = materialize_topology(net);
  const Popularity popularity = net.popularity.materialize(net.num_files);

  // The dynamic engine's root seed is its own parameter, not the config
  // knob; rebase the config copy so the shared materialize path derives
  // the placement streams from it (flat path: bit-identical to the
  // historical inline `{0, kPlacement}` draw).
  ExperimentConfig seeded = net;
  seeded.seed = seed;
  const Placement placement =
      materialize_placement(seeded, *topology, popularity, /*run_index=*/0);
  const TieredTopology* tiered = topology->as_tiered();

  // Strategies see live queue lengths, so a stale-information request
  // cannot be honored — reject it loudly rather than silently simulating a
  // different model than the spec claims (same contract as the historical
  // supermarket loop).
  const StrategyRegistry& registry = StrategyRegistry::global();
  const StrategySpec spec = registry.with_defaults(net.resolved_strategy());
  PROXCACHE_REQUIRE(spec.get_or("stale", 1.0) == 1.0,
                    "the queueing model compares live queue lengths; "
                    "'stale' is a batch-simulator parameter (drop it or set "
                    "stale=1)");
  const ReplicaIndex index(*topology, placement,
                           index_plan(spec, *topology, registry));
  const std::unique_ptr<Strategy> strategy =
      registry.at(spec.name).factory(spec, index, *topology, net);

  // Replacement policy: `static` freezes the seeded placement (the engine
  // skips all policy bookkeeping); everything else gets one policy
  // instance per node, seeded from the placement and trimmed to capacity.
  const CachePolicyRegistry& policies = CachePolicyRegistry::global();
  CachePolicySpec policy_spec = config.cache_policy;
  if (policy_spec.empty()) policy_spec.name = "static";
  policy_spec = policies.with_defaults(policy_spec);
  const bool evolving = policies.at(policy_spec.name).mutable_contents;

  const std::size_t n = topology->size();
  CacheState cache(placement);
  DynamicResult result;

  // Per-node policy capacity: flat runs use the config knob everywhere;
  // tiered runs use each tier's resolved capacity, and origin nodes hold
  // the full catalog (they never evict — the origin *is* the library).
  const auto node_capacity = [&](NodeId u) -> std::size_t {
    if (tiered == nullptr) return net.cache_size;
    const TierLevel& level =
        tiered->tier_set().levels()[tiered->tier_set().locate(u).tier];
    return level.is_origin() ? net.num_files : level.cache_size;
  };

  std::vector<std::unique_ptr<CachePolicy>> node_policy;
  if (evolving) {
    node_policy.reserve(n);
    for (NodeId u = 0; u < n; ++u) {
      node_policy.push_back(policies.make(policy_spec, node_capacity(u)));
      CachePolicy& policy = *node_policy.back();
      for (const FileId f : cache.files_of(u)) policy.seed(f);
      // A capacity below the placement's per-node footprint trims the
      // seeded contents immediately (startup churn is part of the model).
      while (cache.size(u) > policy.capacity()) {
        const FileId victim = policy.victim(0.0);
        cache.erase(u, victim);
        policy.on_evict(victim);
        ++result.evictions;
      }
    }
  }

  // One stream drives the whole event loop; the trace source draws the
  // per-request content (origin, file) from it in the exact order the
  // historical supermarket loop drew them inline.
  Rng rng(derive_seed(seed, {0, seed_phase::kQueueing}));
  const double aggregate_rate =
      net.trace.arrival_rate * static_cast<double>(n);
  const double warmup = config.horizon * config.warmup_fraction;
  // Time-varying trace processes scale their schedules (pulse window,
  // cycles, epochs) to a request count; use the expected arrivals over the
  // horizon so e.g. the flash-crowd pulse covers the configured fraction
  // of simulated *time*.
  const auto request_horizon = static_cast<std::size_t>(std::max<long long>(
      1, std::llround(aggregate_rate * config.horizon)));
  const std::unique_ptr<TraceSource> source =
      make_trace_source(net, *topology, popularity, request_horizon);

  QueueLoadView queues(n);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t next_seq = 0;
  const auto schedule = [&](double time, Event::Kind kind, NodeId server,
                            Job job = {}) {
    events.push(Event{time, next_seq++, kind, server, job});
  };
  schedule(exponential(rng, aggregate_rate), Event::Kind::Arrival, 0);

  std::vector<std::queue<Job>> fifo(n);
  WindowedCollector collector(config.horizon, config.metric_windows);
  std::vector<double> measured_sojourns;  // post-warmup, for the overall p99

  double total_sojourn = 0.0;
  std::uint64_t completed = 0;
  double queue_integral = 0.0;  // ∫ Σ_u q_u(t) dt after warmup
  double busy_integral = 0.0;   // ∫ #busy(t) dt after warmup
  double last_time = 0.0;
  Load max_queue = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t busy_servers = 0;
  std::uint64_t total_queued = 0;

  if (tiered != nullptr) {
    for (const TierLevel& level : tiered->tier_set().levels()) {
      result.tier_queues.push_back({level.spec.role, 0, 0});
    }
  }

  // Admit `job` into `server`'s queue at time `now`; schedules the service
  // completion when the server was idle.
  const auto admit = [&](const Job& job, NodeId server, double now) {
    if (queues.length(server) == 0) ++busy_servers;
    queues.push(server);
    ++total_queued;
    max_queue = std::max(max_queue, queues.length(server));
    collector.record_queue_peak(now, queues.length(server));
    collector.record_arrival(now);
    fifo[server].push(job);
    ++result.admitted;
    if (tiered != nullptr) {
      auto& slice =
          result.tier_queues[tiered->tier_set().locate(server).tier];
      ++slice.admitted;
      slice.max_queue = std::max(slice.max_queue, queues.length(server));
    }
    total_hops += job.hops;
    if (queues.length(server) == 1) {
      schedule(now + exponential(rng, config.service_rate),
               Event::Kind::Departure, server);
    }
  };

  // Insert `file` at `node` under the replacement policy, evicting first
  // when the cache is full.
  const auto insert_under_policy = [&](NodeId node, FileId file, double now) {
    CachePolicy& policy = *node_policy[node];
    while (cache.size(node) >= policy.capacity()) {
      const FileId victim = policy.victim(now);
      cache.erase(node, victim);
      policy.on_evict(victim);
      ++result.evictions;
    }
    cache.insert(node, file);
    policy.on_insert(file, now);
    ++result.inserts;
  };

  // A completed job's response arrived back at its origin: account the
  // sojourn (post-warmup only, like the supermarket loop) and optionally
  // cache the file along the return path.
  const auto complete = [&](const Job& job, double now) {
    const double sojourn = now - job.born;
    collector.record_completion(now, sojourn);
    if (now > warmup) {
      total_sojourn += sojourn;
      ++completed;
      measured_sojourns.push_back(sojourn);
    }
  };

  while (!events.empty()) {
    const Event event = events.top();
    events.pop();
    if (event.time > config.horizon) break;
    ++result.events;

    // Accumulate time-weighted statistics for the elapsed interval.
    if (event.time > warmup) {
      const double from = std::max(last_time, warmup);
      const double dt = event.time - from;
      queue_integral += dt * static_cast<double>(total_queued);
      busy_integral += dt * static_cast<double>(busy_servers);
    }
    last_time = event.time;

    switch (event.kind) {
      case Event::Kind::Arrival: {
        // Schedule the next arrival first (Poisson process).
        schedule(event.time + exponential(rng, aggregate_rate),
                 Event::Kind::Arrival, 0);

        const Request request = source->next(rng);
        if (placement.replica_count(request.file) == 0) {
          ++result.lost;  // no replica anywhere: the strategy cannot route
          continue;
        }
        const Assignment assignment = strategy->assign(request, queues, rng);
        if (assignment.server == kInvalidNode) {
          ++result.dropped;
          continue;
        }
        const Job job{event.time, request.origin, request.file,
                      assignment.hops};
        if (config.hop_latency == 0.0) {
          admit(job, assignment.server, event.time);
        } else {
          schedule(event.time + static_cast<double>(job.hops) *
                                    config.hop_latency,
                   Event::Kind::Enqueue, assignment.server, job);
        }
        break;
      }

      case Event::Kind::Enqueue: {
        admit(event.job, event.server, event.time);
        break;
      }

      case Event::Kind::Departure: {
        const NodeId server = event.server;
        queues.pop(server);
        --total_queued;
        const Job job = fifo[server].front();
        fifo[server].pop();

        // Service done: consult the live cache. A miss fetches from the
        // nearest *current* replica (round trip on the return latency) and
        // fills under the replacement policy.
        double response_delay =
            static_cast<double>(job.hops) * config.hop_latency;
        const bool hit = cache.caches(server, job.file);
        ++(hit ? result.hits : result.misses);
        collector.record_lookup(event.time, hit);
        if (hit) {
          if (evolving) node_policy[server]->on_access(job.file, event.time);
        } else {
          Hop fetch = topology->diameter();  // no replica: worst case
          bool from_origin = tiered != nullptr;
          if (tiered == nullptr) {
            fetch = std::min(fetch, detail::min_distance_from(
                                        *topology, server,
                                        cache.replicas(job.file)));
          } else {
            // Walk *down* the hierarchy: the server's own cluster first
            // (local peers are the cheap fetch), then each deeper tier,
            // finally sideways to any live replica. The fetch is an origin
            // fetch when the first scope holding the file is an origin
            // tier — or when nothing holds it and the worst case stands.
            const TierSet& set = tiered->tier_set();
            const TierSet::Location loc = set.locate(server);
            const auto holders = cache.replicas(job.file);
            const auto nearest_between =
                [&](NodeId lo, NodeId hi) -> Hop {
              const auto first =
                  std::lower_bound(holders.begin(), holders.end(), lo);
              const auto last = std::lower_bound(first, holders.end(), hi);
              return detail::min_distance_from(*topology, server,
                                               {first, last});
            };
            const TierLevel& own = set.levels()[loc.tier];
            const NodeId cluster_base =
                own.base + loc.cluster * own.cluster_nodes;
            Hop found =
                nearest_between(cluster_base, cluster_base + own.cluster_nodes);
            bool origin_scope = own.is_origin();
            if (found == kUnboundedRadius) {
              for (std::uint32_t t = loc.tier + 1; t < set.num_tiers(); ++t) {
                const TierLevel& level = set.levels()[t];
                found = nearest_between(level.base, level.base + level.nodes);
                if (found != kUnboundedRadius) {
                  origin_scope = level.is_origin();
                  break;
                }
              }
            }
            if (found == kUnboundedRadius && !holders.empty()) {
              found = nearest_between(0, static_cast<NodeId>(n));
              origin_scope = false;  // sideways peer fetch, not an origin hit
            }
            if (found != kUnboundedRadius) {
              fetch = found;
              from_origin = origin_scope;
            }
          }
          if (from_origin) ++result.origin_fetches;
          response_delay +=
              2.0 * static_cast<double>(fetch) * config.hop_latency;
          if (evolving) insert_under_policy(server, job.file, event.time);
        }

        if (config.hop_latency == 0.0) {
          complete(job, event.time);
          if (evolving && config.cache_on_path && job.origin != server &&
              !cache.caches(job.origin, job.file)) {
            insert_under_policy(job.origin, job.file, event.time);
          }
        } else {
          schedule(event.time + response_delay, Event::Kind::Response, server,
                   job);
        }

        if (queues.length(server) > 0) {
          schedule(event.time + exponential(rng, config.service_rate),
                   Event::Kind::Departure, server);
        } else {
          --busy_servers;
        }
        break;
      }

      case Event::Kind::Response: {
        complete(event.job, event.time);
        if (evolving && config.cache_on_path &&
            event.job.origin != event.server &&
            !cache.caches(event.job.origin, event.job.file)) {
          insert_under_policy(event.job.origin, event.job.file, event.time);
        }
        break;
      }
    }
  }

  const double measured = config.horizon - warmup;
  result.queueing.completed = completed;
  result.queueing.max_queue = max_queue;
  if (completed > 0) {
    result.queueing.mean_sojourn =
        total_sojourn / static_cast<double>(completed);
  }
  if (measured > 0.0) {
    result.queueing.mean_queue =
        queue_integral / measured / static_cast<double>(n);
    result.queueing.utilization =
        busy_integral / measured / static_cast<double>(n);
  }
  if (result.admitted > 0) {
    result.queueing.mean_hops =
        static_cast<double>(total_hops) / static_cast<double>(result.admitted);
  }
  const std::uint64_t lookups = result.hits + result.misses;
  if (lookups > 0) {
    result.hit_rate =
        static_cast<double>(result.hits) / static_cast<double>(lookups);
  }
  result.p99_sojourn = sample_quantile(measured_sojourns, 0.99);
  result.windows = collector.finalize();
  return result;
}

}  // namespace proxcache
