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

/// The `ReplicaIndex` passes a strategy's queries run. `index_plan` turns
/// them into what the index builds, so a run builds only what it reads.
struct IndexPasses {
  /// Asks `nearest()`, whose list scan and list replay read the files with
  /// `|S_j|² <= ReplicaIndex::kReplayDensity·n`.
  bool nearest = false;
  /// Smallest radius it streams with `for_each_replica_within`. One below
  /// the diameter reads bucket grids and the lists of files without one;
  /// one reaching it reads whole lists, which only `whole_lists` declares
  /// (`two-choice` samples the list there instead).
  Hop stream_radius = kUnboundedRadius;
  /// Streams whole replica lists: through `for_each_distance_chunk`, or
  /// with a radius reaching the diameter.
  bool whole_lists = false;
};

/// A strategy's passes, from its spec. The spec may lack the registry's
/// defaults, so read a parameter with `get_or` and its rule's default.
using DeclarePasses = std::function<IndexPasses(const StrategySpec&)>;

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
  /// The index passes its queries run. An entry that declares nothing may
  /// run any pass and gets the default plan.
  DeclarePasses passes = nullptr;
};

/// Catalog of strategy entries (util/spec_registry.hpp). `built_ins()` is
/// the immutable default set (paper strategies + extensions); `global()` is
/// what `ExperimentConfig::validate`, `SimulationContext::run` and
/// `run_dynamic` consult. `make(spec, index, topology, config)` validates
/// and builds.
using StrategyRegistry = SpecRegistry<StrategyEntry>;

template <>
const StrategyRegistry& StrategyRegistry::built_ins();

/// The `ReplicaIndex` build plan for a run of `spec` (validated; defaults
/// filled or not) on `topology`, from the passes its entry declares:
/// bucket grids only for a streamed radius below the diameter; packed
/// coordinates for every file without a grid when it streams lists, for
/// the in-band files when it only asks `nearest()`, none when it only
/// samples; the default plan for an entry that declares nothing.
[[nodiscard]] ReplicaIndex::Plan index_plan(
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
