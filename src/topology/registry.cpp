#include "topology/registry.hpp"

#include <stdexcept>
#include <string>

#include "topology/clique.hpp"
#include "topology/graph_topology.hpp"
#include "topology/hyperbolic.hpp"
#include "topology/ring.hpp"
#include "topology/tree.hpp"

namespace proxcache {

namespace {

/// Hard ceiling on materialized node counts: keeps accidental
/// `ring(n=1e18)` specs from being accepted by validation. Graph-backed
/// topologies scale past the old dense-matrix wall through the sparse
/// distance oracle (graph/distance_oracle.hpp), so the ceiling is now a
/// memory-sanity bound rather than an n² one; entries whose *construction*
/// is the bottleneck (rgg point stitching, hyperbolic edge scans) declare
/// tighter per-entry ranges.
constexpr std::size_t kMaxNodes = std::size_t{1} << 27;

}  // namespace

void TopologyEntry::check(const TopologySpec& filled) const {
  const std::size_t nodes = node_count(filled);
  if (nodes >= 1 && nodes <= kMaxNodes) return;
  const auto ids = static_cast<std::size_t>(kInvalidNode);
  const std::string count =
      nodes > ids ? "more than " + std::to_string(ids) +
                        " nodes (overflows the node id space)"
                  : std::to_string(nodes) + " nodes";
  throw std::invalid_argument("topology '" + filled.name + "' implies " +
                              count + ", outside [1, " +
                              std::to_string(kMaxNodes) + "]");
}

std::size_t node_count(const TopologyRegistry& registry,
                       const TopologySpec& spec) {
  const TopologySpec filled = registry.with_defaults(spec);
  return registry.at(spec.name).node_count(filled);
}

template <>
const TopologyRegistry& TopologyRegistry::built_ins() {
  static const TopologyRegistry registry = [] {
    // side_max² <= kMaxNodes keeps the declared per-key range satisfiable —
    // any in-range side also passes the node-count cross-check. 8192² is
    // 2^26 nodes: million-node tori (side=1000) are now well inside range.
    const double side_max = 8192.0;
    TopologyRegistry r;
    const auto lattice_nodes = [](const TopologySpec& spec) {
      const auto side = static_cast<std::size_t>(spec.get_or("side", 45.0));
      return side * side;
    };
    r.add({"torus",
           "side x side lattice, wraparound edges (the paper's model)",
           {{"side", 1.0, side_max, 45.0, "lattice side length",
             /*integral=*/true}},
           lattice_nodes,
           [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
             return std::make_shared<Lattice>(
                 static_cast<std::int32_t>(spec.get_or("side", 45.0)),
                 Wrap::Torus);
           }});
    r.add({"grid",
           "side x side bounded lattice with true boundaries",
           {{"side", 1.0, side_max, 45.0, "lattice side length",
             /*integral=*/true}},
           lattice_nodes,
           [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
             return std::make_shared<Lattice>(
                 static_cast<std::int32_t>(spec.get_or("side", 45.0)),
                 Wrap::Grid);
           }});
    r.add({"ring",
           "cycle of n servers (1-D torus; high diameter, tight "
           "neighborhoods)",
           {{"n", 1.0, static_cast<double>(kMaxNodes), 4096.0,
             "number of servers", /*integral=*/true}},
           [](const TopologySpec& spec) {
             return static_cast<std::size_t>(spec.get_or("n", 4096.0));
           },
           [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
             return std::make_shared<RingTopology>(
                 static_cast<std::size_t>(spec.get_or("n", 4096.0)));
           }});
    r.add({"clique",
           "complete graph K_n, every pair one hop apart (interchangeable "
           "origin/partition pools; the tier grammar's bare-count form)",
           {{"n", 1.0, 1048576.0, 16.0, "number of servers",
             /*integral=*/true}},
           [](const TopologySpec& spec) {
             return static_cast<std::size_t>(spec.get_or("n", 16.0));
           },
           [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
             return std::make_shared<CliqueTopology>(
                 static_cast<std::size_t>(spec.get_or("n", 16.0)));
           }});
    r.add({"tree",
           "complete b-ary tree (hierarchical cache tiers)",
           {{"branching", 1.0, 64.0, 4.0, "children per inner node",
             /*integral=*/true},
            {"depth", 0.0, 24.0, 6.0, "levels below the root",
             /*integral=*/true}},
           [](const TopologySpec& spec) {
             return TreeTopology::node_count(
                 static_cast<std::uint32_t>(spec.get_or("branching", 4.0)),
                 static_cast<std::uint32_t>(spec.get_or("depth", 6.0)));
           },
           [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
             return std::make_shared<TreeTopology>(
                 static_cast<std::uint32_t>(spec.get_or("branching", 4.0)),
                 static_cast<std::uint32_t>(spec.get_or("depth", 6.0)));
           }});
    r.add({"rgg",
           "random geometric graph in the unit square (BFS hop distances, "
           "deterministic in seed)",
           {{"n", 2.0, 16777216.0, 4096.0,
             "number of servers (dense distance table up to the oracle "
             "threshold, sparse BFS + landmarks beyond)",
             /*integral=*/true},
            {"radius", 1e-9, 1.5, 0.03, "Euclidean connection radius"},
            {"seed", 0.0, 9007199254740992.0, 1.0,
             "point-process seed", /*integral=*/true}},
           [](const TopologySpec& spec) {
             return static_cast<std::size_t>(spec.get_or("n", 4096.0));
           },
           [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
             return make_rgg_topology(
                 static_cast<std::size_t>(spec.get_or("n", 4096.0)),
                 spec.get_or("radius", 0.03),
                 static_cast<std::uint64_t>(spec.get_or("seed", 1.0)));
           }});
    r.add({"hyperbolic",
           "hyperbolic random graph in the Poincare disk (scale-free "
           "degrees, gamma = 2*alpha + 1; deterministic in seed)",
           {{"n", 1.0, 1048576.0, 4096.0, "number of servers",
             /*integral=*/true},
            {"degree", 1.0, 1024.0, 10.0, "target average degree"},
            {"alpha", 0.51, 8.0, 0.75, "radial dispersion (> 0.5)"},
            {"seed", 0.0, 9007199254740992.0, 1.0,
             "point-process seed", /*integral=*/true}},
           [](const TopologySpec& spec) {
             return static_cast<std::size_t>(spec.get_or("n", 4096.0));
           },
           [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
             return make_hyperbolic_topology(
                 static_cast<std::size_t>(spec.get_or("n", 4096.0)),
                 spec.get_or("degree", 10.0), spec.get_or("alpha", 0.75),
                 static_cast<std::uint64_t>(spec.get_or("seed", 1.0)));
           }});
    return r;
  }();
  return registry;
}

TopologySpec topology_spec_from_lattice(std::size_t num_nodes, Wrap wrap) {
  // A user-supplied count (the runners' --n): name the value, not the
  // library's precondition.
  if (!Lattice::is_perfect_square(num_nodes)) {
    throw std::invalid_argument("node count " + std::to_string(num_nodes) +
                                " is not a perfect square");
  }
  const std::int32_t side =
      Lattice::from_node_count(num_nodes, wrap).side();
  TopologySpec spec;
  spec.name = to_string(wrap);
  spec.params["side"] = static_cast<double>(side);
  return spec;
}

}  // namespace proxcache
