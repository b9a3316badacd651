// The million-node topology path end to end: GraphTopology on the sparse
// distance oracle must conform to the Topology contract wherever it claims
// exactness, the dense fallback below the size threshold must stay
// bit-identical across construction routes (the golden-master guarantee),
// the ball-walk replica queries on sparse topologies must agree with brute
// force, the hyperbolic topology locks its own determinism golden, and
// replications on a pool and the sharded engine's lanes, all querying one
// sparse oracle at once, must give what they give one at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/placement.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "parallel/thread_pool.hpp"
#include "spatial/replica_index.hpp"
#include "topology/graph_topology.hpp"
#include "topology/hyperbolic.hpp"

namespace proxcache {
namespace {

GraphTopology::Options sparse_exact(std::size_t n) {
  GraphTopology::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = n;
  return options;
}

TEST(ScalableTopology, SparseRegimeConformsToTheTopologyContract) {
  const auto dense = make_rgg_topology(120, 0.16, 17);
  const auto sparse = make_rgg_topology(120, 0.16, 17, sparse_exact(120));
  ASSERT_TRUE(dense->oracle().exact());
  ASSERT_FALSE(sparse->oracle().exact());
  EXPECT_TRUE(sparse->directly_enumerates_shells());
  EXPECT_TRUE(sparse->prefers_local_enumeration());
  EXPECT_FALSE(dense->prefers_local_enumeration());
  ASSERT_TRUE(sparse->oracle().diameter_is_exact())
      << "iFUB must converge on a 120-node graph";
  EXPECT_EQ(sparse->diameter(), dense->diameter());

  const std::size_t n = dense->size();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(sparse->distance(u, v), dense->distance(u, v));
    }
    for (Hop d = 0; d <= dense->diameter() + 1; ++d) {
      std::vector<NodeId> a;
      std::vector<NodeId> b;
      dense->visit_shell(u, d, [&](NodeId w) { a.push_back(w); });
      sparse->visit_shell(u, d, [&](NodeId w) { b.push_back(w); });
      EXPECT_EQ(a, b) << "shell d=" << d << " of " << u;
      EXPECT_EQ(sparse->shell_size(u, d), a.size());
    }
    EXPECT_EQ(sparse->ball_size(u, 3), dense->ball_size(u, 3));
    EXPECT_EQ(sparse->neighbors(u), dense->neighbors(u));
    EXPECT_DOUBLE_EQ(sparse->mean_distance_to_random_node(u),
                     dense->mean_distance_to_random_node(u));
  }
}

TEST(ScalableTopology, DenseFallbackIsBitIdenticalAcrossConstructionRoutes) {
  // All four strategies on graph-backed and closed-form topologies below
  // the oracle threshold: the registry route (oracle picks the dense
  // fallback itself) and an explicitly dense-forced instance must produce
  // identical runs — the regime choice may never leak into results.
  const char* strategies[] = {"nearest", "two-choice", "least-loaded(r=8)",
                              "prox-weighted(d=2, alpha=1)"};
  for (const char* strategy : strategies) {
    ExperimentConfig config;
    config.topology_spec =
        parse_topology_spec("rgg(n=128, radius=0.15, seed=5)");
    config.num_files = 40;
    config.cache_size = 5;
    config.popularity.kind = PopularityKind::Uniform;
    config.strategy_spec = parse_strategy_spec(strategy);
    config.seed = 0x7A11;

    const RunResult via_registry = run_simulation(config, 0);
    GraphTopology::Options forced;
    forced.dense_threshold = std::size_t{1} << 30;
    const auto dense_forced = make_rgg_topology(128, 0.15, 5, forced);
    ASSERT_TRUE(dense_forced->oracle().exact());
    const RunResult via_forced =
        SimulationContext(config, dense_forced).run(0);
    EXPECT_EQ(via_registry.max_load, via_forced.max_load) << strategy;
    EXPECT_EQ(via_registry.comm_cost, via_forced.comm_cost) << strategy;
    EXPECT_EQ(via_registry.fallbacks, via_forced.fallbacks) << strategy;
    EXPECT_EQ(via_registry.requests, via_forced.requests) << strategy;
  }
}

// Golden masters for all four strategies on the dense-fallback rgg and the
// closed-form tree: locked when the scalable distance layer landed; the
// exact-fallback path below the oracle threshold must keep reproducing the
// pre-oracle dense-matrix behavior bit-for-bit.
struct Golden {
  const char* topology;
  const char* strategy;
  Load max_load;
  double comm_cost;
};

constexpr Golden kDenseFallbackGoldens[] = {
    {"rgg(n=256, radius=0.12, seed=9)", "least-loaded(r=8)", 2, 2.3125},
    {"rgg(n=256, radius=0.12, seed=9)", "prox-weighted(d=2, alpha=1)", 3,
     4.734375},
    {"tree(branching=3, depth=4)", "least-loaded(r=8)", 2,
     4.2809917355371905},
    {"tree(branching=3, depth=4)", "prox-weighted(d=2, alpha=1)", 3,
     5.7272727272727275},
};

TEST(ScalableTopology, DenseFallbackGoldenMasters) {
  for (const Golden& golden : kDenseFallbackGoldens) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec(golden.topology);
    config.num_files = 60;
    config.cache_size = 5;
    config.popularity.kind = PopularityKind::Uniform;
    config.strategy_spec = parse_strategy_spec(golden.strategy);
    config.seed = 0x70F0;
    const RunResult result = run_simulation(config, 0);
    const std::string label =
        std::string(golden.topology) + " / " + golden.strategy;
    EXPECT_EQ(result.max_load, golden.max_load) << label;
    EXPECT_DOUBLE_EQ(result.comm_cost, golden.comm_cost) << label;
  }
}

TEST(ScalableTopology, BallWalkReplicaQueriesAgreeWithBruteForce) {
  const auto sparse = make_rgg_topology(150, 0.14, 23, sparse_exact(150));
  ASSERT_TRUE(sparse->prefers_local_enumeration());
  const std::size_t n = sparse->size();
  Rng rng(99);
  const Placement placement = Placement::generate(
      n, Popularity::uniform(30), 4,
      PlacementMode::ProportionalWithReplacement, rng);
  const ReplicaIndex index(*sparse, placement);

  for (NodeId u = 0; u < n; u += 11) {
    for (FileId j = 0; j < placement.num_files(); j += 7) {
      for (const Hop r : {Hop{0}, Hop{1}, Hop{3}, Hop{6}}) {
        std::size_t brute = 0;
        for (const NodeId v : placement.replicas(j)) {
          if (sparse->distance(u, v) <= r) ++brute;
        }
        EXPECT_EQ(index.count_replicas_within(u, j, r), brute)
            << "u=" << u << " j=" << j << " r=" << r;
      }
      // And the nearest pair of algorithms still agree on the ball-walk
      // topology (exact distances inside the budget ball).
      Rng a(7);
      Rng b(7);
      const NearestResult by_scan = index.nearest_by_scan(u, j, a);
      const NearestResult by_shells = index.nearest_by_shells(u, j, b);
      if (by_scan.server != kInvalidNode) {
        EXPECT_EQ(by_scan.distance, by_shells.distance);
        EXPECT_EQ(by_scan.ties, by_shells.ties);
      }
    }
  }
}

TEST(ScalableTopology, RadiusQueriesBeyondTheHorizonNeverAdmitFarReplicas) {
  // A *small* ball budget forces radius queries past the per-source
  // horizon onto the replica-list scan, where distances may be landmark
  // upper bounds: reported replicas must still all be truly within r
  // (bounds only ever exclude), and inside the horizon the walk must be
  // exhaustive and exact. The horizon ball itself never exceeds the
  // budget — the scalability guarantee on hub-heavy graphs.
  GraphTopology::Options small;
  small.dense_threshold = 0;
  small.distance_ball_budget = 16;
  const auto sparse = make_rgg_topology(150, 0.14, 23, small);
  const auto dense = make_rgg_topology(150, 0.14, 23);
  ASSERT_TRUE(sparse->prefers_local_enumeration());
  const std::size_t n = sparse->size();
  Rng rng(99);
  const Placement placement = Placement::generate(
      n, Popularity::uniform(30), 4,
      PlacementMode::ProportionalWithReplacement, rng);
  const ReplicaIndex index(*sparse, placement);

  for (NodeId u = 0; u < n; u += 13) {
    const Hop horizon = sparse->local_enumeration_horizon(u);
    EXPECT_LE(sparse->ball_size(u, horizon), 16u)
        << "the horizon ball must respect the budget (u=" << u << ")";
    for (FileId j = 0; j < placement.num_files(); j += 11) {
      for (const Hop r : {Hop{1}, horizon, static_cast<Hop>(horizon + 2),
                          static_cast<Hop>(dense->diameter() - 1)}) {
        std::map<NodeId, Hop> reported;
        index.for_each_replica_within(u, j, r,
                                      [&](NodeId v, Hop d) { reported[v] = d; });
        std::size_t truly_within = 0;
        for (const NodeId v : placement.replicas(j)) {
          if (dense->distance(u, v) <= r) ++truly_within;
        }
        for (const auto& [v, d] : reported) {
          EXPECT_LE(dense->distance(u, v), r)
              << "a replica beyond r was admitted (u=" << u << ", v=" << v
              << ", r=" << r << ")";
          EXPECT_GE(d, dense->distance(u, v)) << "d may never underestimate";
        }
        if (r <= horizon) {
          EXPECT_EQ(reported.size(), truly_within)
              << "inside the horizon the ball walk is exhaustive (u=" << u
              << ", j=" << j << ", r=" << r << ")";
        } else {
          EXPECT_LE(reported.size(), truly_within);
        }
      }
    }
  }
}

TEST(ScalableTopology, HyperbolicIsDeterministicConnectedAndScaleFree) {
  const auto a = make_hyperbolic_topology(300, 8.0, 0.75, 42);
  const auto b = make_hyperbolic_topology(300, 8.0, 0.75, 42);
  EXPECT_EQ(a->graph().edges(), b->graph().edges())
      << "same seed must rebuild the identical graph";
  const auto c = make_hyperbolic_topology(300, 8.0, 0.75, 43);
  EXPECT_NE(a->graph().edges(), c->graph().edges());

  // Connected by construction (hub stitching) — materialization would
  // throw otherwise — and the degree sequence is heavy-tailed: the top
  // node dwarfs the median, unlike any lattice/ring/tree in the catalog.
  const std::size_t n = a->size();
  std::vector<std::size_t> degrees(n);
  for (NodeId u = 0; u < n; ++u) degrees[u] = a->neighbors(u).size();
  std::sort(degrees.begin(), degrees.end());
  EXPECT_GE(degrees.back(), 4 * std::max<std::size_t>(1, degrees[n / 2]))
      << "hub degree should dwarf the median in a scale-free graph";
  EXPECT_LE(a->diameter(), 20u) << "poly-log diameter regime";
}

TEST(ScalableTopology, HyperbolicGoldenMaster) {
  // Locked at first materialization of the hyperbolic generator; the
  // (theta, radius-quantile) draw order and the edge rule must never
  // drift — workload goldens on this topology inherit from it.
  ExperimentConfig config;
  config.topology_spec =
      parse_topology_spec("hyperbolic(n=256, degree=8, alpha=0.75, seed=7)");
  config.num_files = 60;
  config.cache_size = 5;
  config.popularity.kind = PopularityKind::Uniform;
  config.seed = 0x70F0;
  for (const char* strategy : {"nearest", "two-choice(r=5)"}) {
    config.strategy_spec = parse_strategy_spec(strategy);
    const RunResult first = run_simulation(config, 0);
    const RunResult again = run_simulation(config, 0);
    EXPECT_EQ(first.max_load, again.max_load) << strategy;
    EXPECT_DOUBLE_EQ(first.comm_cost, again.comm_cost) << strategy;
  }
  config.strategy_spec = parse_strategy_spec("nearest");
  const RunResult golden = run_simulation(config, 0);
  EXPECT_EQ(golden.requests, 256u);
  EXPECT_EQ(golden.max_load, 9u);
  EXPECT_DOUBLE_EQ(golden.comm_cost, 1.93359375);
}

TEST(ScalableTopology, ReplicationsMatchAcrossPoolWidthsOnSparseGraphs) {
  // Four pool workers run replications over one sparse oracle at once,
  // each query on a scratch slot of its own (TSan covers the interleavings
  // in the sanitizer CI job). A ball budget of 24 keeps the horizon
  // shallow, so shell and ball walks stream past it and radius queries
  // past it scan replica lists in `distances` batches.
  GraphTopology::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 24;
  const std::vector<std::pair<std::string, std::shared_ptr<const GraphTopology>>>
      graphs = {
          {"rgg(n=300, radius=0.1, seed=9)",
           make_rgg_topology(300, 0.1, 9, options)},
          {"hyperbolic(n=300, degree=8, alpha=0.75, seed=5)",
           make_hyperbolic_topology(300, 8.0, 0.75, 5, options)}};
  ThreadPool single(1);
  ThreadPool quad(4);
  for (const auto& [spec, graph] : graphs) {
    ASSERT_FALSE(graph->oracle().exact()) << spec;
    for (const char* strategy : {"nearest", "two-choice(r=5)",
                                 "least-loaded(r=5)",
                                 "prox-weighted(d=2, alpha=1)"}) {
      ExperimentConfig config;
      config.topology_spec = parse_topology_spec(spec);
      config.num_files = 40;
      config.cache_size = 5;
      config.popularity.kind = PopularityKind::Uniform;
      config.strategy_spec = parse_strategy_spec(strategy);
      config.num_requests = 1500;
      config.seed = 0x5CA1E;
      const SimulationContext context(config, graph);
      const std::string label = spec + " / " + strategy;
      const std::size_t runs = 8;

      // Per replication: each run on the 4-worker pool against the same
      // run made serially.
      std::vector<std::future<RunResult>> wide;
      for (std::size_t i = 0; i < runs; ++i) {
        wide.push_back(quad.submit([&context, i] { return context.run(i); }));
      }
      for (std::size_t i = 0; i < runs; ++i) {
        const RunResult a = context.run(i);
        const RunResult b = wide[i].get();
        const std::string where = label + ", run " + std::to_string(i);
        EXPECT_EQ(a.max_load, b.max_load) << where;
        EXPECT_EQ(a.comm_cost, b.comm_cost) << where;
        EXPECT_EQ(a.requests, b.requests) << where;
        EXPECT_EQ(a.fallbacks, b.fallbacks) << where;
        EXPECT_EQ(a.resampled, b.resampled) << where;
        EXPECT_EQ(a.dropped, b.dropped) << where;
        EXPECT_EQ(a.load_histogram.counts(), b.load_histogram.counts())
            << where;
      }

      // And through `run_experiment` at pool widths 1 and 4.
      const ExperimentResult narrow = run_experiment(context, runs, &single);
      const ExperimentResult four = run_experiment(context, runs, &quad);
      EXPECT_EQ(narrow.max_load.mean(), four.max_load.mean()) << label;
      EXPECT_EQ(narrow.max_load.variance(), four.max_load.variance())
          << label;
      EXPECT_EQ(narrow.comm_cost.mean(), four.comm_cost.mean()) << label;
      EXPECT_EQ(narrow.comm_cost.variance(), four.comm_cost.variance())
          << label;
      EXPECT_EQ(narrow.fallback_rate, four.fallback_rate) << label;
      EXPECT_EQ(narrow.pooled_load_histogram.counts(),
                four.pooled_load_histogram.counts())
          << label;
    }
  }
}

TEST(ScalableTopology, ShardedEngineRunsCleanOverTheSparseOracle) {
  // The split-phase engine proposes off-thread: concurrent queries on the
  // sparse oracle, each lane on a scratch slot of its own (TSan covers the
  // interleavings in the sanitizer CI job). `nearest` walks shells and
  // `two-choice(r=5)` walks balls, each walk one slot lease with its hits
  // in the slot's buffer; `prox-weighted` streams replica lists, one
  // `distances` batch (and one lease) per 64 replicas. On the second graph
  // a ball budget of 8 stores no row past depth 2, so the lanes' walks
  // stream past the horizon. Results must be rerun-stable under the
  // sharded seed contract, the second run over slots whose rows the first
  // one left.
  ExperimentConfig config;
  config.topology_spec =
      parse_topology_spec("rgg(n=200, radius=0.12, seed=9)");
  config.num_files = 40;
  config.cache_size = 5;
  config.popularity.kind = PopularityKind::Uniform;
  config.seed = 0xBEEF;
  config.threads = 3;
  GraphTopology::Options small_ball = sparse_exact(200);
  small_ball.distance_ball_budget = 8;
  const auto streaming = make_rgg_topology(200, 0.12, 9, small_ball);
  for (NodeId u = 0; u < 200; ++u) {
    ASSERT_LE(streaming->local_enumeration_horizon(u), 2u) << u;
  }
  for (const auto& sparse :
       {make_rgg_topology(200, 0.12, 9, sparse_exact(200)), streaming}) {
    for (const char* strategy :
         {"nearest", "two-choice(r=5)", "prox-weighted(d=2, alpha=1)"}) {
      config.strategy_spec = parse_strategy_spec(strategy);
      const RunResult first = SimulationContext(config, sparse).run(0);
      const RunResult again = SimulationContext(config, sparse).run(0);
      EXPECT_EQ(first.requests, 200u) << strategy;
      EXPECT_EQ(first.max_load, again.max_load) << strategy;
      EXPECT_DOUBLE_EQ(first.comm_cost, again.comm_cost) << strategy;
    }
  }
}

}  // namespace
}  // namespace proxcache
