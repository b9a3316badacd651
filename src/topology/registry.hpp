#pragma once
/// \file registry.hpp
/// Open topology catalog: binds spec names to factories and per-parameter
/// validation rules, mirroring strategy/registry.hpp on the network side.
/// The simulator asks the registry — never `Lattice` directly — to build
/// the `Topology` for a run, so adding a network shape is: implement
/// `Topology`, append one `TopologyEntry`, done. Every CLI
/// (`--topology <spec>`), bench and golden-master harness picks it up
/// automatically.
///
/// Built-ins: `torus(side)` and `grid(side)` (the paper's lattice, exact
/// legacy behavior), `ring(n)`, `tree(branching, depth)` and
/// `rgg(n, radius, seed)` (graph-backed via src/graph/compact_graph with
/// BFS distances).
///
/// Entries also declare a cheap `node_count(spec)` so configs can resolve
/// `n` (request horizons, placement sizing) without materializing the
/// topology — materialization can be expensive (all-pairs BFS for graph
/// topologies) and happens once per SimulationContext.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "topology/lattice.hpp"
#include "topology/spec.hpp"
#include "topology/topology.hpp"
#include "util/spec_registry.hpp"

namespace proxcache {

/// Builds a ready-to-query Topology from a defaults-filled spec. Returned
/// as shared_ptr so contexts can share one materialized topology across a
/// scenario × strategy matrix (graph topologies carry O(n²) distance
/// tables).
using TopologyFactory =
    std::function<std::shared_ptr<const Topology>(const TopologySpec&)>;

/// One registered topology.
struct TopologyEntry {
  using Spec = TopologySpec;

  std::string name;     ///< registry key, canonical lowercase
  std::string summary;  ///< one-line description for --list output
  std::vector<ParamRule> params;
  /// Node count implied by a defaults-filled spec (cheap, no
  /// materialization). Must agree with `factory(spec)->size()`; a count
  /// past the NodeId space may saturate at any larger value.
  std::function<std::size_t(const TopologySpec&)> node_count;
  TopologyFactory factory;

  /// "node_count" when the entry has none (`SpecRegistry::add` refuses it).
  [[nodiscard]] const char* missing() const {
    return node_count ? nullptr : "node_count";
  }

  /// Cross-parameter rule: the id space must hold the node count a
  /// defaults-filled spec implies (e.g. tree(branching=64, depth=20) passes
  /// the per-key ranges but not this). Throws std::invalid_argument.
  void check(const TopologySpec& filled) const;
};

/// Catalog of topology entries (util/spec_registry.hpp). `built_ins()` is
/// the immutable default set; `global()` is what `ExperimentConfig` and
/// `SimulationContext` consult. `make(spec)` validates and builds.
using TopologyRegistry = SpecRegistry<TopologyEntry>;

template <>
const TopologyRegistry& TopologyRegistry::built_ins();

/// Node count implied by `spec` after validation + defaults (no
/// materialization).
[[nodiscard]] std::size_t node_count(const TopologyRegistry& registry,
                                     const TopologySpec& spec);

/// The lattice spec of `num_nodes` servers — `torus(side=√n)` or
/// `grid(side=√n)`, as `wrap` says. Throws std::invalid_argument when
/// `num_nodes` is not a perfect square. For callers that size a lattice by
/// its node count: benches sweeping n and the runners' `--n`.
[[nodiscard]] TopologySpec topology_spec_from_lattice(std::size_t num_nodes,
                                                      Wrap wrap);

/// `registry.parse_validated(texts)` for repeated `--topology` flags.
[[nodiscard]] inline std::vector<TopologySpec> parse_validated_topology_specs(
    const std::vector<std::string>& texts,
    const TopologyRegistry& registry = TopologyRegistry::global()) {
  return registry.parse_validated(texts);
}

}  // namespace proxcache
