#pragma once
/// \file registry.hpp
/// Open strategy catalog: binds spec names to factories and per-parameter
/// validation rules, mirroring scenario/registry.hpp on the workload side.
/// The simulator asks the registry — never an enum switch — to build the
/// `Strategy` for a run, so adding a policy is: implement `Strategy`,
/// append one `StrategyEntry`, done. No core file changes, and every CLI
/// (`--strategy <spec>`), bench, and the queueing extension pick it up
/// automatically.
///
/// Every entry declares the parameter keys it accepts with inclusive
/// ranges and defaults (`ParamRule`); the shared `SpecRegistry` rejects
/// unknown names, unknown keys and out-of-range values with precise
/// messages, and `make` validates before constructing. The universal key
/// `stale` (load-snapshot refresh period, core/stale_view.hpp) is accepted
/// by every strategy because the staleness model wraps the LoadView outside
/// the strategy proper.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/strategy.hpp"
#include "spatial/replica_index.hpp"
#include "strategy/spec.hpp"
#include "topology/topology.hpp"
#include "util/spec_registry.hpp"

namespace proxcache {

/// Builds a ready-to-run Strategy for one request stream. The index is the
/// per-run spatial query layer; the topology and config carry the shared
/// experiment state for strategies that need more context.
using StrategyFactory = std::function<std::unique_ptr<Strategy>(
    const StrategySpec&, const ReplicaIndex&, const Topology&,
    const ExperimentConfig&)>;

/// The smallest radius a strategy passes to
/// `ReplicaIndex::for_each_replica_within`, from its spec
/// (`kUnboundedRadius`: it never asks for a radius). The spec may lack the
/// registry's defaults, so read a parameter with `get_or` and its rule's
/// default.
using QueryRadius = std::function<Hop(const StrategySpec&)>;

/// One registered strategy.
struct StrategyEntry {
  using Spec = StrategySpec;

  std::string name;     ///< registry key, canonical lowercase
  std::string summary;  ///< one-line description for --list output
  std::vector<ParamRule> params;
  StrategyFactory factory;
  /// Cross-tier strategies (tier/strategies.hpp) read the hierarchy through
  /// `Topology::as_tiered()` and refuse flat topologies; declaring it here
  /// lets `ExperimentConfig::validate` reject the mismatch before a run
  /// starts instead of deep inside the factory.
  bool requires_tiers = false;
  /// Only a radius below the diameter reads a bucket grid, so a run whose
  /// declared radius reaches the diameter builds none. An entry that
  /// declares nothing may query any radius and keeps its grids.
  QueryRadius query_radius = nullptr;
};

/// Catalog of strategy entries (util/spec_registry.hpp). `built_ins()` is
/// the immutable default set (paper strategies + extensions); `global()` is
/// what `ExperimentConfig::validate`, `SimulationContext::run` and
/// `run_dynamic` consult. `make(spec, index, topology, config)` validates
/// and builds.
using StrategyRegistry = SpecRegistry<StrategyEntry>;

template <>
const StrategyRegistry& StrategyRegistry::built_ins();

/// The `ReplicaIndex` bucket threshold for a run of `spec` (validated;
/// defaults filled or not) on `topology`: 0 (no grids) when the entry's
/// declared radius reaches the diameter, the index's default otherwise.
[[nodiscard]] std::size_t bucket_threshold(
    const StrategySpec& spec, const Topology& topology,
    const StrategyRegistry& registry = StrategyRegistry::global());

/// FallbackPolicy <-> spec parameter code conversions (see spec.hpp for the
/// symbolic keyword table).
[[nodiscard]] double fallback_param(FallbackPolicy policy);
[[nodiscard]] FallbackPolicy fallback_policy_from_param(double code);

/// `registry.parse_validated(texts)` for repeated `--strategy` flags.
[[nodiscard]] inline std::vector<StrategySpec> parse_validated_specs(
    const std::vector<std::string>& texts,
    const StrategyRegistry& registry = StrategyRegistry::global()) {
  return registry.parse_validated(texts);
}

}  // namespace proxcache
