#pragma once
/// \file config.hpp
/// Declarative configuration of one cache-network experiment (paper §II).
/// An `ExperimentConfig` pins every model knob — topology, library,
/// popularity, placement, request volume, assignment strategy, and the
/// policies that close the paper's model gaps (see docs/architecture.md;
/// the placement-mode ablation is bench/ablation_placement.cpp) — plus the
/// root seed, so a run is a pure function of its config and run index.

#include <cstdint>
#include <string>

#include "catalog/placement.hpp"
#include "catalog/popularity.hpp"
#include "scenario/trace_spec.hpp"
#include "strategy/spec.hpp"
#include "tier/spec.hpp"
#include "topology/spec.hpp"
#include "util/types.hpp"

namespace proxcache {

/// What to do when a requested file has no replica anywhere (possible under
/// i.i.d. placement; the paper's analysis conditions on cached files).
enum class MissingFilePolicy : std::uint8_t {
  Resample,  ///< redraw the request's file from P until cached (default)
  Drop,      ///< discard the request (counted)
  Strict,    ///< treat as an error (throw)
};

/// What Strategy II does when fewer than `num_choices` candidates exist
/// within radius `r` (a single candidate is always used directly).
enum class FallbackPolicy : std::uint8_t {
  ExpandRadius,     ///< double r until candidates appear (default)
  NearestReplica,   ///< fall back to Strategy I for this request
  Drop,             ///< discard the request (counted)
};

/// Spatial distribution of request origins. The paper assumes uniform
/// origins; the Hotspot extension concentrates a fraction of the demand in
/// a disc, stressing the proximity constraint (servers near the hotspot
/// are the only in-radius candidates).
enum class OriginKind : std::uint8_t {
  Uniform,  ///< paper model: origin uniform over the n servers
  Hotspot,  ///< mixture: with prob `fraction`, uniform in B_radius(center)
};

/// Origin-distribution spec (materialized per run).
struct OriginSpec {
  OriginKind kind = OriginKind::Uniform;
  /// Fraction of requests born inside the hotspot (Hotspot only).
  double hotspot_fraction = 0.5;
  /// Hotspot disc radius (Hotspot only). The disc is `B_radius` around the
  /// topology's `central_node()`.
  Hop hotspot_radius = 5;
};

/// Popularity profile spec (materialized per run).
struct PopularitySpec {
  PopularityKind kind = PopularityKind::Uniform;
  double gamma = 0.8;  ///< Zipf parameter; ignored for Uniform

  [[nodiscard]] Popularity materialize(std::size_t num_files) const {
    return kind == PopularityKind::Uniform
               ? Popularity::uniform(num_files)
               : Popularity::zipf(num_files, gamma);
  }
};

/// Full experiment description.
struct ExperimentConfig {
  /// Which network topology the servers form, as a registry spec
  /// (topology/registry.hpp), e.g. `parse_topology_spec("ring(n=4096)")`.
  /// When empty (the default) and no `tier_spec` is set, the paper's
  /// `torus(side=45)` (n = 2025) applies.
  TopologySpec topology_spec;
  /// Optional cache hierarchy (tier/spec.hpp): compose registered
  /// topologies into front/mid/back/origin tiers, e.g.
  /// `parse_tier_spec("front=torus(side=8)x8, back=ring(n=64), origin=1")`.
  /// Empty (the default) keeps the flat single-tier engine; a *degenerate*
  /// spec (one cache tier, one cluster, no capacity override) resolves to
  /// its inner topology and runs the flat path bit-identically. Mutually
  /// exclusive with `topology_spec`.
  TierSpec tier_spec;
  std::size_t num_files = 500;   ///< K
  std::size_t cache_size = 10;   ///< M
  PlacementMode placement_mode = PlacementMode::ProportionalWithReplacement;
  PopularitySpec popularity;
  OriginSpec origins;
  /// Which trace process generates the request stream. `Static` (default)
  /// is the paper's model driven by `origins` + `popularity`; other kinds
  /// (scenario/trace_spec.hpp) open time-varying and adversarial workloads.
  TraceSpec trace;
  /// Number of sequential requests; 0 means "n requests" (paper default).
  std::size_t num_requests = 0;
  MissingFilePolicy missing = MissingFilePolicy::Resample;
  /// Which assignment strategy serves requests, as a registry spec
  /// (strategy/registry.hpp), e.g. `parse_strategy_spec("least-loaded(r=8)")`.
  /// When empty (the default) the paper's two-choice strategy with registry
  /// defaults applies.
  StrategySpec strategy_spec;
  std::uint64_t seed = 0x5EED;
  /// Execution engine selector. `1` (default) runs the historical serial
  /// request loop; `>= 2` runs the sharded engine
  /// (src/parallel/sharded_runner.hpp): `propose` on `threads - 1` pool
  /// workers, `choose` and commit in request order on the caller. The two
  /// engines are *each* fully deterministic but follow different
  /// strategy-randomness contracts: the serial loop draws one sequential
  /// strategy stream, while the sharded engine pins an independent stream
  /// per request (`derive_seed(seed, {run, kStrategy, request_index})`) so
  /// proposals can run on any thread. Consequently every `threads >= 2`
  /// value (and every `shard_batch`) yields bit-identical results to every
  /// other, but not to `threads = 1`.
  std::uint32_t threads = 1;
  /// Requests per pipeline batch of the sharded engine (`threads >= 2`).
  /// Pure throughput/memory dial — results are bit-identical across all
  /// values (locked by tests/test_sharded_equivalence.cpp).
  std::size_t shard_batch = 4096;

  /// True when the experiment runs the composed multi-tier hierarchy
  /// (tier/tier_set.hpp). Degenerate single-tier specs do not count: they
  /// resolve to their inner topology and take the flat path.
  [[nodiscard]] bool tiered() const {
    return !tier_spec.empty() && !tier_spec.degenerate();
  }

  /// The node count actually in effect: the composed tier total when
  /// `tier_spec` is set, otherwise the topology registry's count for
  /// `resolved_topology()`.
  [[nodiscard]] std::size_t resolved_nodes() const;

  [[nodiscard]] std::size_t effective_requests() const {
    return num_requests == 0 ? resolved_nodes() : num_requests;
  }

  /// The topology actually in effect for the *flat* path: `topology_spec`
  /// when set, a degenerate `tier_spec`'s inner topology, otherwise
  /// `torus(side=45)`. This is what the simulator hands to
  /// TopologyRegistry::make. Throws when the config is tiered — a composed
  /// hierarchy has no single registry spec; tiered callers materialize
  /// through tier/materialize.hpp instead.
  [[nodiscard]] TopologySpec resolved_topology() const;

  /// The strategy actually in effect: `strategy_spec` when set, otherwise
  /// the registry-default two-choice strategy. This is what the simulator
  /// hands to StrategyRegistry::make.
  [[nodiscard]] StrategySpec resolved_strategy() const;

  /// Throws std::invalid_argument when inconsistent (unknown topology,
  /// M < 1…).
  void validate() const;

  /// One-line description for logs/tables.
  [[nodiscard]] std::string describe() const;
};

}  // namespace proxcache
