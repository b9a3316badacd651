// Topology interface conformance (topology/topology.hpp): every concrete
// implementation — Lattice (torus + grid), RingTopology, TreeTopology,
// GraphTopology/rgg — must agree with a brute-force reference on the
// metric, shells, balls and neighbors, and enumerate shells exactly once
// in a deterministic order (the reservoir-sampling query layer consumes
// RNG draws per visited node, so order is part of the contract).
#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "topology/clique.hpp"
#include "topology/graph_topology.hpp"
#include "topology/hyperbolic.hpp"
#include "topology/lattice.hpp"
#include "topology/ring.hpp"
#include "topology/shells.hpp"
#include "topology/tree.hpp"

namespace proxcache {
namespace {

/// Cross-check every Topology query against the O(n²) definition built
/// from `distance` alone.
void expect_conforms(const Topology& topology, const std::string& label) {
  const std::size_t n = topology.size();
  ASSERT_GE(n, 1u) << label;

  // Metric sanity + true diameter.
  Hop max_distance = 0;
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(topology.distance(u, u), 0u) << label;
    for (NodeId v = 0; v < n; ++v) {
      const Hop d = topology.distance(u, v);
      EXPECT_EQ(d, topology.distance(v, u)) << label;
      max_distance = std::max(max_distance, d);
    }
  }
  EXPECT_EQ(topology.diameter(), max_distance) << label;

  for (NodeId u = 0; u < n; ++u) {
    std::map<Hop, std::set<NodeId>> reference;
    for (NodeId v = 0; v < n; ++v) {
      reference[topology.distance(u, v)].insert(v);
    }
    std::size_t ball = 0;
    double weighted = 0.0;
    for (Hop d = 0; d <= topology.diameter() + 1; ++d) {
      std::vector<NodeId> shell;
      topology.visit_shell(u, d, [&](NodeId v) { shell.push_back(v); });
      const std::set<NodeId> seen(shell.begin(), shell.end());
      EXPECT_EQ(seen.size(), shell.size())
          << label << ": duplicate visit in shell d=" << d << " of " << u;
      const std::set<NodeId> expected =
          reference.count(d) ? reference[d] : std::set<NodeId>{};
      EXPECT_EQ(seen, expected)
          << label << ": wrong shell d=" << d << " of " << u;
      EXPECT_EQ(topology.shell_size(u, d), expected.size()) << label;
      ball += expected.size();
      weighted += static_cast<double>(d) *
                  static_cast<double>(expected.size());
      EXPECT_EQ(topology.ball_size(u, d), std::min(ball, n)) << label;
    }
    EXPECT_EQ(topology.ball_size(u, topology.diameter()), n) << label;
    EXPECT_DOUBLE_EQ(topology.mean_distance_to_random_node(u),
                     weighted / static_cast<double>(n))
        << label;

    // Neighbors are exactly the shell at distance 1.
    const std::vector<NodeId> neighbors = topology.neighbors(u);
    const std::set<NodeId> neighbor_set(neighbors.begin(), neighbors.end());
    EXPECT_EQ(neighbor_set.size(), neighbors.size()) << label;
    EXPECT_EQ(neighbor_set, reference.count(1) ? reference[1]
                                               : std::set<NodeId>{})
        << label;
  }
  EXPECT_LT(topology.central_node(), n) << label;

  // Shell enumeration is deterministic: two passes agree element-wise.
  const NodeId probe = topology.central_node();
  for (Hop d = 0; d <= std::min<Hop>(topology.diameter(), 3); ++d) {
    EXPECT_EQ(collect_shell(topology, probe, d),
              collect_shell(topology, probe, d))
        << label;
  }
}

TEST(TopologyConformance, LatticeTorusAndGrid) {
  for (const std::int32_t side : {1, 2, 3, 5}) {
    for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
      const Lattice lattice(side, wrap);
      expect_conforms(lattice, lattice.describe());
    }
  }
}

TEST(TopologyConformance, Ring) {
  for (const std::size_t n : {1u, 2u, 3u, 8u, 9u}) {
    const RingTopology ring(n);
    expect_conforms(ring, ring.describe());
  }
}

TEST(TopologyConformance, Tree) {
  for (const auto& [branching, depth] :
       {std::pair{1u, 4u}, {2u, 3u}, {3u, 2u}, {4u, 1u}, {2u, 0u}}) {
    const TreeTopology tree(branching, depth);
    expect_conforms(tree, tree.describe());
  }
}

TEST(TopologyConformance, RandomGeometricGraph) {
  const auto rgg = make_rgg_topology(40, 0.3, 7);
  expect_conforms(*rgg, rgg->describe());
}

TEST(TopologyConformance, HyperbolicRandomGraph) {
  const auto hrg = make_hyperbolic_topology(48, 6.0, 0.8, 5);
  expect_conforms(*hrg, hrg->describe());
}

TEST(TopologyConformance, SparseOracleGraphTopology) {
  // The same conformance battery on the sparse-regime oracle (full ball
  // budget, so every query is certified-exact — including the iFUB
  // diameter, which expect_conforms checks against the true maximum).
  GraphTopology::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 64;
  const auto rgg = make_rgg_topology(64, 0.25, 19, options);
  ASSERT_FALSE(rgg->oracle().exact());
  expect_conforms(*rgg, "sparse " + rgg->describe());
}

TEST(LatticeTopology, ImplementsTheInterfaceBitIdentically) {
  // The virtual entry points must reproduce the lattice-typed ones exactly
  // — same values, same enumeration order (golden determinism rides on it).
  const Lattice lattice(5, Wrap::Torus);
  const Topology& topology = lattice;
  EXPECT_EQ(topology.as_lattice(), &lattice);
  for (NodeId u = 0; u < lattice.size(); ++u) {
    for (Hop d = 0; d <= lattice.diameter(); ++d) {
      std::vector<NodeId> via_interface;
      topology.visit_shell(u, d,
                           [&](NodeId v) { via_interface.push_back(v); });
      EXPECT_EQ(via_interface, collect_shell(lattice, u, d));
    }
  }
  EXPECT_EQ(topology.central_node(),
            lattice.node(Point{lattice.side() / 2, lattice.side() / 2}));
  EXPECT_EQ(topology.describe(), "torus(side=5)");
  EXPECT_EQ(Lattice(4, Wrap::Grid).describe(), "grid(side=4)");
  EXPECT_EQ(lattice.node_label(7), "(2, 1)");
}

TEST(RingTopology, ClosedFormsMatchDefinition) {
  const RingTopology ring(8);
  EXPECT_EQ(ring.diameter(), 4u);
  EXPECT_EQ(ring.distance(0, 7), 1u);
  EXPECT_EQ(ring.distance(1, 5), 4u);
  EXPECT_EQ(ring.shell_size(0, 4), 1u) << "antipode on an even ring";
  EXPECT_EQ(ring.shell_size(0, 3), 2u);
  EXPECT_EQ(ring.ball_size(3, 2), 5u);
  // Shell order mirrors the torus offsets: +d first, then -d.
  EXPECT_EQ(collect_shell(ring, 2, 1), (std::vector<NodeId>{3, 1}));
}

TEST(TreeTopology, StructureAndDistances) {
  // branching 2, depth 2: ids 0 | 1 2 | 3 4 5 6.
  const TreeTopology tree(2, 2);
  EXPECT_EQ(tree.size(), 7u);
  EXPECT_EQ(tree.diameter(), 4u);
  EXPECT_EQ(tree.level(0), 0u);
  EXPECT_EQ(tree.level(2), 1u);
  EXPECT_EQ(tree.level(6), 2u);
  EXPECT_EQ(tree.parent(5), 2u);
  EXPECT_EQ(tree.distance(3, 4), 2u) << "siblings meet at their parent";
  EXPECT_EQ(tree.distance(3, 6), 4u) << "cross-subtree goes through root";
  EXPECT_EQ(tree.distance(0, 6), 2u);
  EXPECT_EQ(tree.central_node(), 0u) << "hierarchies anchor at the root";
  EXPECT_EQ(tree.node_label(5), "2:5");
  EXPECT_EQ(tree.neighbors(1), (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(TreeTopology::node_count(4, 6), 5461u);
  EXPECT_EQ(TreeTopology::node_count(1, 9), 10u) << "unary tree is a path";
}

TEST(GraphTopology, BfsDistancesAndConnectivityChecks) {
  // A 4-path 0-1-2-3.
  CompactGraph path = CompactGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const GraphTopology topology(std::move(path), "path(n=4)");
  EXPECT_EQ(topology.diameter(), 3u);
  EXPECT_EQ(topology.distance(0, 3), 3u);
  EXPECT_EQ(topology.describe(), "path(n=4)");
  expect_conforms(topology, "path(n=4)");

  // Disconnected graphs are rejected loudly: every query assumes finite
  // distances.
  CompactGraph split = CompactGraph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(GraphTopology(std::move(split), "split"),
               std::invalid_argument);
}

TEST(RandomGeometricGraph, DeterministicInSeedAndAlwaysConnected) {
  const auto a = make_rgg_topology(60, 0.18, 11);
  const auto b = make_rgg_topology(60, 0.18, 11);
  EXPECT_EQ(a->graph().edges(), b->graph().edges())
      << "same seed must rebuild the identical graph";
  const auto c = make_rgg_topology(60, 0.18, 12);
  EXPECT_NE(a->graph().edges(), c->graph().edges())
      << "a different seed must move the points";

  // A radius far below the connectivity threshold exercises the stitching
  // repair: the topology still comes out connected (construction would
  // throw otherwise) with at least n-1 edges.
  const auto sparse = make_rgg_topology(50, 0.01, 3);
  EXPECT_EQ(sparse->size(), 50u);
  EXPECT_GE(sparse->graph().num_edges(), 49u);
  EXPECT_LE(sparse->distance(0, 49),
            sparse->diameter());
}

TEST(Topology, GenericBallEnumerationOrdersByDistance) {
  const RingTopology ring(9);
  std::vector<Hop> distances;
  for_each_in_ball(ring, 4, 3,
                   [&](NodeId, Hop d) { distances.push_back(d); });
  ASSERT_EQ(distances.size(), ring.ball_size(4, 3));
  EXPECT_TRUE(std::is_sorted(distances.begin(), distances.end()));
  EXPECT_EQ(collect_ball(ring, 4, 3).size(), 7u);
}

TEST(Topology, DefaultShellWalkKeepsVisitShellOrder) {
  // Ring and clique walk through the default: each shell is `visit_shell`
  // filtered, in its order — on the ring forward then backward, which is
  // not id order.
  const RingTopology ring(10);
  std::vector<NodeId> everyone(10);
  for (NodeId v = 0; v < 10; ++v) everyone[v] = v;
  const auto always = [](NodeId) { return true; };
  std::vector<std::vector<NodeId>> shells;
  ring.walk_shells(5, 3, {everyone, always},
                   [&](Hop, std::span<const NodeId> hits) {
                     shells.emplace_back(hits.begin(), hits.end());
                     return true;
                   });
  EXPECT_EQ(shells, (std::vector<std::vector<NodeId>>{
                        {5}, {6, 4}, {7, 3}, {8, 2}}));

  const CliqueTopology clique(7);
  for (const Topology* topology :
       {static_cast<const Topology*>(&ring),
        static_cast<const Topology*>(&clique)}) {
    const std::size_t n = topology->size();
    std::vector<NodeId> odd;
    for (NodeId v = 1; v < n; v += 2) odd.push_back(v);
    const auto is_odd = [](NodeId v) { return v % 2 == 1; };
    for (NodeId u = 0; u < n; ++u) {
      for (Hop stop = 0; stop <= topology->diameter() + 1; ++stop) {
        std::vector<std::pair<Hop, std::vector<NodeId>>> walked;
        topology->walk_shells(u, kUnboundedRadius, {odd, is_odd},
                              [&](Hop d, std::span<const NodeId> hits) {
                                walked.emplace_back(
                                    d, std::vector<NodeId>(hits.begin(),
                                                           hits.end()));
                                return d < stop;
                              });
        std::vector<std::pair<Hop, std::vector<NodeId>>> expected;
        for (Hop d = 0; d <= topology->diameter(); ++d) {
          std::vector<NodeId> hits;
          topology->visit_shell(u, d, [&](NodeId v) {
            if (is_odd(v)) hits.push_back(v);
          });
          expected.emplace_back(d, std::move(hits));
          if (d >= stop) break;
        }
        EXPECT_EQ(walked, expected)
            << topology->describe() << " u=" << u << " stop=" << stop;
      }
    }
  }
}

}  // namespace
}  // namespace proxcache
