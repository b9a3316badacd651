// Degenerate-network sweep (bugfix batch): the smallest legal lattices —
// side 1 (a single server) and side 2 (every node adjacent to every other)
// — exercise the radius-0 shells, empty fallback schedules, and
// single-candidate paths that production sizes never hit. Every strategy ×
// wrap × policy combination must be total and conserve requests. The ASan
// preset runs this suite too, so out-of-bounds shell arithmetic at these
// corners cannot hide.
#include <gtest/gtest.h>

#include <string>

#include "core/simulation.hpp"
#include "event/engine.hpp"
#include "spatial/voronoi.hpp"
#include "topology/lattice.hpp"
#include "topology/registry.hpp"
#include "topology/shells.hpp"

namespace proxcache {
namespace {

TEST(DegenerateLattice, SideOneAnswersEveryQuery) {
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    const Lattice lattice(1, wrap);
    EXPECT_EQ(lattice.size(), 1u);
    EXPECT_EQ(lattice.diameter(), 0u);
    EXPECT_EQ(lattice.distance(0, 0), 0u);
    EXPECT_EQ(lattice.shell_size(0, 0), 1u);
    EXPECT_EQ(lattice.shell_size(0, 1), 0u);
    EXPECT_EQ(lattice.ball_size(0, 0), 1u);
    EXPECT_EQ(lattice.ball_size(0, 1000), 1u);
    EXPECT_TRUE(lattice.neighbors(0).empty());
    EXPECT_EQ(lattice.central_node(), 0u);
    EXPECT_DOUBLE_EQ(lattice.mean_distance_to_random_node(0), 0.0);
    EXPECT_EQ(collect_ball(lattice, 0, 5), std::vector<NodeId>{0});
  }
}

TEST(DegenerateLattice, SideTwoShellsAndNeighbors) {
  // Torus side 2: both axis directions wrap onto the same node, so each
  // node has exactly 2 distinct neighbors (not 4) and the diameter is 2.
  const Lattice torus(2, Wrap::Torus);
  EXPECT_EQ(torus.diameter(), 2u);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(torus.neighbors(u).size(), 2u) << "u=" << u;
    EXPECT_EQ(torus.shell_size(u, 1), 2u);
    EXPECT_EQ(torus.shell_size(u, 2), 1u) << "the antipodal corner";
    EXPECT_EQ(torus.ball_size(u, 2), 4u);
  }
  const Lattice grid(2, Wrap::Grid);
  EXPECT_EQ(grid.diameter(), 2u);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(grid.neighbors(u).size(), 2u);
    EXPECT_EQ(grid.ball_size(u, 2), 4u);
  }
}

class DegenerateSimulationTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Wrap>> {};

TEST_P(DegenerateSimulationTest, EveryStrategyAndPolicyIsTotal) {
  const auto [num_nodes, wrap] = GetParam();
  for (const char* spec :
       {"nearest", "two-choice", "two-choice(r=0)",
        "two-choice(r=1, fallback=drop)", "two-choice(r=0, fallback=nearest)",
        "two-choice(d=4, wr=1)", "two-choice(beta=0.5, stale=2)",
        "least-loaded(r=0)", "least-loaded(r=1)",
        "prox-weighted(d=2, alpha=2)"}) {
    for (const MissingFilePolicy missing :
         {MissingFilePolicy::Resample, MissingFilePolicy::Drop}) {
      ExperimentConfig config;
      config.topology_spec = topology_spec_from_lattice(num_nodes, wrap);
      config.num_files = 5;
      config.cache_size = 2;
      config.missing = missing;
      config.strategy_spec = parse_strategy_spec(spec);
      config.seed = 0xD11;
      const RunResult result = run_simulation(config, 0);
      EXPECT_EQ(result.requests + result.dropped,
                config.effective_requests())
          << spec << " missing=" << static_cast<int>(missing);
      EXPECT_LE(result.comm_cost,
                static_cast<double>(
                    Lattice::from_node_count(num_nodes, wrap).diameter()))
          << spec;
      // Rerun determinism holds at the degenerate sizes too.
      const RunResult again = run_simulation(config, 0);
      EXPECT_EQ(result.max_load, again.max_load) << spec;
      EXPECT_EQ(result.comm_cost, again.comm_cost) << spec;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallestLegalLattices, DegenerateSimulationTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(Wrap::Torus, Wrap::Grid)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, Wrap>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Wrap::Torus ? "_torus" : "_grid");
    });

TEST(DegenerateLattice, SingleNodeSimulationServesEverythingLocally) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=1)");
  config.num_files = 3;
  config.cache_size = 2;
  config.strategy_spec = parse_strategy_spec("two-choice");
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, 1u);
  EXPECT_EQ(result.comm_cost, 0.0) << "the only server is the origin";
  EXPECT_EQ(result.max_load, 1u);
}

TEST(DegenerateLattice, HotspotAtMaximumLegalRadius) {
  // side 2: the largest radius validate() admits is 1, whose disc on the
  // grid is truncated by both edges around the central node.
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    ExperimentConfig config;
    config.topology_spec = topology_spec_from_lattice(4, wrap);
    config.num_files = 4;
    config.cache_size = 2;
    config.origins.kind = OriginKind::Hotspot;
    config.origins.hotspot_fraction = 1.0;
    config.origins.hotspot_radius = 1;
    config.strategy_spec = parse_strategy_spec("two-choice(r=1)");
    const RunResult result = run_simulation(config, 0);
    EXPECT_EQ(result.requests, 4u);
    // And radius = side is rejected, exactly as at production sizes.
    config.origins.hotspot_radius = 2;
    EXPECT_THROW(run_simulation(config, 0), std::invalid_argument);
  }
}

TEST(DegenerateLattice, VoronoiOnSingleNode) {
  const Lattice lattice(1, Wrap::Torus);
  const VoronoiTessellation cells(lattice, {0});
  EXPECT_EQ(cells.owner(0), 0u);
  EXPECT_EQ(cells.distance(0), 0u);
}

TEST(DegenerateLattice, SupermarketQueueOnSingleNode) {
  DynamicConfig config;
  config.network.topology_spec = parse_topology_spec("torus(side=1)");
  config.network.num_files = 1;
  config.network.cache_size = 1;
  config.network.strategy_spec = parse_strategy_spec("nearest");
  config.network.trace.arrival_rate = 0.5;
  config.service_rate = 1.0;
  config.horizon = 200.0;
  config.warmup_fraction = 0.1;
  const QueueingResult result = run_dynamic(config, 1).queueing;
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.mean_hops, 0.0);
}

}  // namespace
}  // namespace proxcache
