#pragma once
/// \file simulation.hpp
/// One complete simulated time block (paper §II-B): cache placement →
/// trace source (scenario/trace_source.hpp) → streaming sanitize →
/// sequential assignment → metrics. A run is a pure function of
/// (config, run_index): all randomness derives from
/// `derive_seed(config.seed, {run_index, phase})`.
///
/// The request loop *streams*: requests are drawn, sanitized, and assigned
/// one at a time, so peak memory is O(n) regardless of
/// `effective_requests()` — traces of tens of millions of requests run in
/// constant space. `SimulationContext` factors out the per-config state
/// (lattice, materialized popularity) so replications share it instead of
/// rebuilding it per run.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "stats/histogram.hpp"
#include "topology/topology.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Per-tier slice of one run's load metrics (tiered runs only; flat runs
/// leave `RunResult::tier_loads` empty). Sliced by RunHarness::finalize
/// from the one global LoadTracker — the engines never track tiers.
struct TierLoadStats {
  std::string role;            ///< tier role ("front", "back", "origin"…)
  std::uint64_t served = 0;    ///< requests served by this tier's nodes
  Load max_load = 0;           ///< max per-node load within the tier
  Load tail_p99 = 0;           ///< 99th-percentile per-node load in the tier
};

/// Metrics of one simulation run.
struct RunResult {
  Load max_load = 0;           ///< L = max_i T_i
  double comm_cost = 0.0;      ///< C = mean hops per served request
  std::uint64_t requests = 0;  ///< served requests
  std::uint64_t fallbacks = 0; ///< Strategy II fallback events
  std::uint64_t resampled = 0; ///< trace repairs (missing-file policy)
  std::uint64_t dropped = 0;   ///< dropped requests (Drop policies)
  Histogram load_histogram;    ///< #servers with load = k
  /// Placement-side observables (cheap; always collected).
  std::size_t placement_min_distinct = 0;  ///< min_u t(u)
  std::size_t files_with_replicas = 0;
  /// Per-tier load slices, one entry per tier in hierarchy order (empty on
  /// flat runs).
  std::vector<TierLoadStats> tier_loads;

  /// Requests the origin tier absorbed (0 when no origin tier exists).
  [[nodiscard]] std::uint64_t origin_hits() const;
  /// Fraction of served requests the cache tiers kept *off* the origin:
  /// `1 - origin_hits / requests` (1.0 when nothing reached the origin or
  /// no origin tier exists).
  [[nodiscard]] double origin_offload() const;
};

/// Immutable per-config state shared by every replication of one
/// experiment: the validated config plus the materialized topology and
/// popularity profile. Construct once, then call `run` from any thread —
/// `run` is const and builds only per-run state (placement, replica index,
/// strategy, tracker), all sized by the network, never by the trace.
///
/// The topology is built once through the TopologyRegistry (which can be
/// expensive — all-pairs BFS for graph topologies) and shared by reference
/// with rebound contexts; per-run state is sized by `topology().size()`.
class SimulationContext {
 public:
  /// Validates `config` (throws std::invalid_argument when inconsistent)
  /// and materializes the shared state once.
  explicit SimulationContext(const ExperimentConfig& config);

  /// Rebind `base`'s experiment to a different assignment strategy without
  /// rebuilding the topology or popularity profile — the scenario ×
  /// strategy matrix fast path (the shared state is strategy-independent).
  /// Validates the resulting config.
  SimulationContext(const SimulationContext& base, StrategySpec strategy);

  /// Build a context for `config` reusing an already-materialized
  /// `topology` — the matrix fast path along the *scenario* axis, where
  /// many configs share one (potentially O(n²)-construction) topology.
  /// `topology` must be the one `config.resolved_topology()` describes;
  /// enforced by a node-count check plus the registry's validation.
  SimulationContext(const ExperimentConfig& config,
                    std::shared_ptr<const Topology> topology);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] const Popularity& popularity() const { return popularity_; }
  /// `config().effective_requests()`, resolved once at construction.
  [[nodiscard]] std::size_t horizon() const { return horizon_; }

  /// Execute replication `run_index` with the streaming request loop.
  /// `config().threads == 1`: the historical serial loop, bit-identical to
  /// the materialize-then-iterate pipeline. `threads >= 2`: dispatches to
  /// the sharded split-phase engine (src/parallel/sharded_runner.hpp),
  /// deterministic across thread counts under its own seed contract.
  [[nodiscard]] RunResult run(std::uint64_t run_index) const;

 private:
  ExperimentConfig config_;
  std::shared_ptr<const Topology> topology_;
  Popularity popularity_;
  /// `config().effective_requests()`, resolved once at construction so
  /// replications never re-resolve the topology spec.
  std::size_t horizon_ = 0;
};

/// Execute one run of the configured experiment. One-shot convenience over
/// `SimulationContext`; loops over replications should construct the
/// context once instead.
RunResult run_simulation(const ExperimentConfig& config,
                         std::uint64_t run_index);

}  // namespace proxcache
