#pragma once
/// \file engine.hpp
/// The discrete-event dynamic engine: requests arrive over continuous time
/// (Poisson with per-node rate `trace.arrival_rate`), are routed by the
/// same `StrategyRegistry` policies as the batch simulator — comparing
/// *live queue lengths* through `QueueLoadView` — queue FIFO at the chosen
/// server (exponential service), and propagate their response back over
/// the topology at `hop_latency` time units per hop. Cache contents are
/// mutable state (`CacheState` + per-node `CachePolicy`): a completion
/// consults the server's *current* cache, and a miss fetches from the
/// nearest current replica (round trip added to the response latency) and
/// inserts under the replacement policy, optionally caching along the
/// return path at the request's origin.
///
/// Determinism contract: one RNG stream seeded `derive_seed(seed,
/// {0, kQueueing})` drives the whole event loop (placement comes from
/// `{0, kPlacement}`, exactly like the historical supermarket loop); the
/// event queue is a binary heap ordered by (time, insertion sequence), so
/// equal-time events resolve by insertion order, never by heap internals.
/// With the `static` policy, zero hop latency, uniform origins and a
/// static trace — the supermarket model of paper §VI — the engine replays
/// that loop's draw sequence bit-for-bit, locked by a differential suite
/// against a reference copy of the loop (test_event_supermarket).

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "event/cache_policy.hpp"
#include "stats/windowed.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Largest accepted `DynamicConfig::metric_windows`. The windowed collector
/// sizes its per-window series (~100 B a window) before the first event,
/// so the count is bounded to what memory can meet.
inline constexpr std::uint32_t kMaxMetricWindows = 65536;

/// Dynamic experiment description. The network model (topology, library,
/// placement, strategy, origins, trace process) comes from
/// `ExperimentConfig`; arrivals are timed by `network.trace.arrival_rate`.
struct DynamicConfig {
  ExperimentConfig network;
  double service_rate = 1.0;      ///< μ, per server
  double horizon = 200.0;         ///< simulated time units
  double warmup_fraction = 0.25;  ///< horizon fraction excluded from aggregates
  /// Response propagation cost: time units per topology hop. 0 (the
  /// default) makes responses instantaneous — the supermarket model.
  double hop_latency = 0.0;
  /// Replacement policy; empty = `static` (frozen placement).
  CachePolicySpec cache_policy;
  /// Also insert a missed file at the request's origin when the response
  /// arrives there (no-op under `static`, or when origin == server).
  bool cache_on_path = false;
  /// Time windows for the windowed metric series, in
  /// [1, kMaxMetricWindows].
  std::uint32_t metric_windows = 8;
};

/// Steady-state queueing estimates from one dynamic run.
struct QueueingResult {
  double mean_sojourn = 0.0;    ///< mean time in system of completed jobs
  double mean_queue = 0.0;      ///< time-average queue length per server
  Load max_queue = 0;           ///< max instantaneous queue length observed
  std::uint64_t completed = 0;  ///< jobs completed after warmup
  double mean_hops = 0.0;       ///< communication cost of admitted jobs
  double utilization = 0.0;     ///< busy-time fraction per server
};

/// One dynamic run's output: the aggregate queueing estimates plus
/// cache-dynamics counters and the time-windowed series.
struct DynamicResult {
  QueueingResult queueing;

  std::uint64_t events = 0;     ///< events processed (the engine's work unit)
  std::uint64_t admitted = 0;   ///< requests that entered a service queue
  std::uint64_t lost = 0;       ///< files with no placement replica (unroutable)
  std::uint64_t dropped = 0;    ///< strategy declined (fallback=drop)
  std::uint64_t hits = 0;       ///< completions served from the live cache
  std::uint64_t misses = 0;     ///< completions that fetched from a replica
  std::uint64_t inserts = 0;    ///< policy insertions (miss fills + on-path)
  std::uint64_t evictions = 0;  ///< policy evictions (incl. startup trims)
  double hit_rate = 0.0;        ///< hits / (hits + misses); 1 under `static`
  double p99_sojourn = 0.0;     ///< p99 sojourn of post-warmup completions
  /// Misses whose fetch fell through every cache tier to the origin (or,
  /// with no origin tier and no live replica, paid the worst-case
  /// diameter). Always 0 on flat topologies.
  std::uint64_t origin_fetches = 0;
  std::vector<WindowMetrics> windows;  ///< per-window series over the horizon

  /// Per-tier queueing slice (tiered runs only; empty flat).
  struct TierQueueStats {
    std::string role;
    std::uint64_t admitted = 0;  ///< jobs queued at this tier's servers
    Load max_queue = 0;          ///< peak queue length within the tier
  };
  std::vector<TierQueueStats> tier_queues;
};

/// Run the event-driven simulation. Deterministic in (config, seed).
DynamicResult run_dynamic(const DynamicConfig& config, std::uint64_t seed);

}  // namespace proxcache
