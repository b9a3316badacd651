// Tests for the strategy registry (strategy/registry.hpp): catalog
// contents, spec validation (unknown names/keys, out-of-range values),
// factory wiring, and behavioral sanity of the two extension strategies
// the open API enables (including prox-weighted's weight table and its
// underflow limit).
#include "strategy/registry.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "scenario/registry.hpp"
#include "strategy/least_loaded.hpp"
#include "strategy/prox_weighted.hpp"
#include "topology/graph_topology.hpp"
#include "topology/ring.hpp"

namespace proxcache {
namespace {

void expect_invalid(const StrategySpec& spec, const std::string& needle) {
  try {
    StrategyRegistry::built_ins().validate(spec);
    FAIL() << "expected spec '" << spec.to_string() << "' to be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(needle), std::string::npos)
        << "message '" << message << "' does not mention '" << needle << "'";
  }
}

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=20)");
  config.num_files = 80;
  config.cache_size = 6;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 0.9;
  config.seed = 20250729;
  return config;
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.comm_cost, b.comm_cost);  // bitwise, deliberately
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.resampled, b.resampled);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.load_histogram.counts(), b.load_histogram.counts());
}

TEST(StrategyRegistry, BuiltInsCoverPaperAndExtensions) {
  const StrategyRegistry& registry = StrategyRegistry::built_ins();
  EXPECT_GE(registry.all().size(), 4u);
  for (const char* name :
       {"nearest", "two-choice", "least-loaded", "prox-weighted"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("no-such-strategy"), nullptr);
}

TEST(StrategyRegistry, AtThrowsListingKnownNames) {
  try {
    (void)StrategyRegistry::built_ins().at("bogus");
    FAIL() << "expected unknown strategy to throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("bogus"), std::string::npos);
    EXPECT_NE(message.find("two-choice"), std::string::npos);
    EXPECT_NE(message.find("least-loaded"), std::string::npos);
  }
}

TEST(StrategyRegistry, ValidateRejectsUnknownName) {
  expect_invalid(parse_strategy_spec("three-choice(d=3)"),
                 "unknown strategy 'three-choice'");
}

TEST(StrategyRegistry, ValidateRejectsUnknownParamKey) {
  expect_invalid(parse_strategy_spec("nearest(r=4)"),
                 "does not take parameter 'r'");
  expect_invalid(parse_strategy_spec("two-choice(alpha=1)"),
                 "does not take parameter 'alpha'");
  expect_invalid(parse_strategy_spec("least-loaded(beta=0.5)"),
                 "does not take parameter 'beta'");
}

TEST(StrategyRegistry, ValidateRejectsFractionalIntegerParams) {
  // Counts/radii/periods silently truncated by the factories would make
  // the reported spec lie about what was simulated; reject them instead.
  expect_invalid(parse_strategy_spec("two-choice(r=2.7)"),
                 "'r' = 2.7 must be an integer");
  expect_invalid(parse_strategy_spec("two-choice(d=2.9)"),
                 "must be an integer");
  expect_invalid(parse_strategy_spec("two-choice(wr=0.5)"),
                 "must be an integer");
  expect_invalid(parse_strategy_spec("two-choice(fallback=1.5)"),
                 "must be an integer");
  expect_invalid(parse_strategy_spec("least-loaded(stale=1.5)"),
                 "must be an integer");
  // inf stays legal for unbounded radii, and genuinely real-valued
  // parameters still accept fractions.
  StrategyRegistry::built_ins().validate(
      parse_strategy_spec("least-loaded(r=inf)"));
  StrategyRegistry::built_ins().validate(
      parse_strategy_spec("prox-weighted(alpha=1.5)"));
}

TEST(StrategyRegistry, ValidateRejectsOutOfRangeValues) {
  expect_invalid(parse_strategy_spec("two-choice(d=0)"), "'d' = 0");
  expect_invalid(parse_strategy_spec("two-choice(d=9)"), "'d' = 9");
  expect_invalid(parse_strategy_spec("two-choice(beta=1.5)"), "'beta' = 1.5");
  expect_invalid(parse_strategy_spec("two-choice(r=-1)"), "'r' = -1");
  expect_invalid(parse_strategy_spec("two-choice(fallback=7)"),
                 "'fallback' = 7");
  expect_invalid(parse_strategy_spec("prox-weighted(alpha=-0.5)"),
                 "'alpha' = -0.5");
  expect_invalid(parse_strategy_spec("two-choice(stale=0)"), "'stale' = 0");
}

TEST(StrategyRegistry, ValidateAcceptsEveryDefaultedEntry) {
  for (const StrategyEntry& entry : StrategyRegistry::built_ins().all()) {
    StrategySpec spec;
    spec.name = entry.name;
    StrategyRegistry::built_ins().validate(spec);  // must not throw
  }
}

TEST(StrategyRegistry, WithDefaultsFillsDeclaredRuleValues) {
  const StrategyRegistry& registry = StrategyRegistry::built_ins();
  for (const StrategyEntry& entry : registry.all()) {
    StrategySpec bare;
    bare.name = entry.name;
    const StrategySpec filled = registry.with_defaults(bare);
    for (const ParamRule& rule : entry.params) {
      EXPECT_TRUE(filled.has(rule.key)) << entry.name << "." << rule.key;
      EXPECT_EQ(filled.get_or(rule.key, -1.0), rule.default_value)
          << entry.name << "." << rule.key;
    }
    // Explicit values win over the declared default.
    if (!entry.params.empty()) {
      StrategySpec custom = bare;
      const ParamRule& rule = entry.params.front();
      custom.params[rule.key] = rule.min_value;
      EXPECT_EQ(registry.with_defaults(custom).get_or(rule.key, -1.0),
                rule.min_value);
    }
  }
}

// The declared rule defaults are what the factories actually run: a bare
// spec and a spec with every rule default written out must build the same
// strategy (compared via the name string, which embeds the live knobs).
TEST(StrategyRegistry, DeclaredDefaultsMatchEffectiveDefaults) {
  const ExperimentConfig config = small_config();
  const Lattice lattice =
      Lattice::from_node_count(config.resolved_nodes(), Wrap::Torus);
  const Popularity popularity =
      config.popularity.materialize(config.num_files);
  Rng rng(13);
  const Placement placement =
      Placement::generate(lattice.size(), popularity, config.cache_size,
                          config.placement_mode, rng);
  const ReplicaIndex index(lattice, placement);
  const StrategyRegistry& registry = StrategyRegistry::built_ins();
  for (const StrategyEntry& entry : registry.all()) {
    // Cross-tier strategies refuse a flat lattice by design; their
    // construction is exercised by the tier suites instead.
    if (entry.requires_tiers) continue;
    StrategySpec bare;
    bare.name = entry.name;
    EXPECT_EQ(registry.make(bare, index, lattice, config)->name(),
              registry.make(registry.with_defaults(bare), index, lattice,
                            config)->name())
        << entry.name;
  }
}

TEST(StrategyRegistry, AddRejectsDuplicatesAndMissingFactories) {
  StrategyRegistry registry = StrategyRegistry::with_built_ins();
  StrategyEntry duplicate;
  duplicate.name = "nearest";
  duplicate.factory = [](const StrategySpec&, const ReplicaIndex&,
                         const Topology&, const ExperimentConfig&)
      -> std::unique_ptr<Strategy> { return nullptr; };
  EXPECT_THROW(registry.add(duplicate), std::invalid_argument);
  StrategyEntry unbuildable;
  unbuildable.name = "ghost";
  EXPECT_THROW(registry.add(unbuildable), std::invalid_argument);
}

TEST(StrategyRegistry, CustomEntryIsConstructible) {
  // The open-API promise: a new policy is an entry away. Register a
  // trivial always-first-replica strategy and build it through make().
  class FirstReplica final : public Strategy {
   public:
    explicit FirstReplica(const ReplicaIndex& index) : index_(&index) {}
    void propose(const Request& request, Rng&, CandidateArena&,
                 Proposal& out) override {
      out.server = index_->placement().replicas(request.file)[0];
      out.hops = index_->topology().distance(request.origin, out.server);
      out.decided = true;
    }
    [[nodiscard]] Assignment choose(const Request&, const Proposal& proposal,
                                    CandidateArena&, const LoadView&,
                                    Rng&) const override {
      return decided_assignment(proposal);
    }
    [[nodiscard]] std::string name() const override { return "first"; }

   private:
    const ReplicaIndex* index_;
  };

  StrategyRegistry registry = StrategyRegistry::with_built_ins();
  registry.add({"first-replica",
                "always the first replica in the list",
                {},
                [](const StrategySpec&, const ReplicaIndex& index,
                   const Topology&, const ExperimentConfig&)
                    -> std::unique_ptr<Strategy> {
                  return std::make_unique<FirstReplica>(index);
                }});

  const ExperimentConfig config = small_config();
  const Lattice lattice =
      Lattice::from_node_count(config.resolved_nodes(), Wrap::Torus);
  const Popularity popularity =
      config.popularity.materialize(config.num_files);
  Rng rng(7);
  const Placement placement =
      Placement::generate(lattice.size(), popularity, config.cache_size,
                          config.placement_mode, rng);
  const ReplicaIndex index(lattice, placement);
  const auto strategy = registry.make(parse_strategy_spec("first-replica"),
                                      index, lattice, config);
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->name(), "first");
}

TEST(StrategyRegistry, GlobalRegistryDrivesTheSimulatorEndToEnd) {
  // The extension promise, end to end: a policy registered on the global
  // catalog validates and runs through run_simulation with zero core
  // changes. Serve everything at the requester's nearest replica's file
  // list position 0 — behavior does not matter, reachability does.
  const std::string name = "test-global-policy";
  if (StrategyRegistry::global().find(name) == nullptr) {
    class Anywhere final : public Strategy {
     public:
      explicit Anywhere(const ReplicaIndex& index) : index_(&index) {}
      void propose(const Request& request, Rng&, CandidateArena&,
                   Proposal& out) override {
        out.server = index_->placement().replicas(request.file)[0];
        out.hops = index_->topology().distance(request.origin, out.server);
        out.decided = true;
      }
      [[nodiscard]] Assignment choose(const Request&,
                                      const Proposal& proposal,
                                      CandidateArena&, const LoadView&,
                                      Rng&) const override {
        return decided_assignment(proposal);
      }
      [[nodiscard]] std::string name() const override { return "anywhere"; }

     private:
      const ReplicaIndex* index_;
    };
    StrategyRegistry::global().add(
        {name,
         "test-only: first replica in the list",
         {},
         [](const StrategySpec&, const ReplicaIndex& index,
            const Topology&, const ExperimentConfig&)
            -> std::unique_ptr<Strategy> {
           return std::make_unique<Anywhere>(index);
         }});
  }
  ExperimentConfig config = small_config();
  config.strategy_spec.name = name;
  config.validate();  // global() is consulted: no throw
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, config.resolved_nodes());
  EXPECT_EQ(result.dropped, 0u);
  // built_ins() stays immutable: the custom entry is not there.
  EXPECT_EQ(StrategyRegistry::built_ins().find(name), nullptr);
}

TEST(StrategyRegistry, FactoriesProduceExpectedStrategyTypes) {
  const ExperimentConfig config = small_config();
  const Lattice lattice =
      Lattice::from_node_count(config.resolved_nodes(), Wrap::Torus);
  const Popularity popularity =
      config.popularity.materialize(config.num_files);
  Rng rng(11);
  const Placement placement =
      Placement::generate(lattice.size(), popularity, config.cache_size,
                          config.placement_mode, rng);
  const ReplicaIndex index(lattice, placement);
  const StrategyRegistry& registry = StrategyRegistry::built_ins();

  EXPECT_EQ(registry.make(parse_strategy_spec("nearest"), index, lattice,
                          config)->name(),
            "nearest-replica");
  EXPECT_EQ(registry.make(parse_strategy_spec("two-choice(r=16)"), index,
                          lattice, config)->name(),
            "two-choice(r=16)");
  EXPECT_EQ(registry.make(parse_strategy_spec("least-loaded(r=8)"), index,
                          lattice, config)->name(),
            "least-loaded(r=8)");
  EXPECT_EQ(registry.make(parse_strategy_spec("prox-weighted(d=3)"), index,
                          lattice, config)->name(),
            "prox-weighted(d=3, alpha=1)");
}

// An empty strategy_spec resolves to the registry-default two-choice
// strategy (the historical default config), never to an unnamed spec.
TEST(StrategyRegistry, EmptySpecResolvesToDefaultTwoChoice) {
  ExperimentConfig config;
  EXPECT_TRUE(config.strategy_spec.empty());
  EXPECT_EQ(config.resolved_strategy().to_string(), "two-choice");
  config.strategy_spec = parse_strategy_spec("least-loaded(r=8)");
  EXPECT_EQ(config.resolved_strategy().to_string(), "least-loaded(r=8)");
}

TEST(StrategyRegistry, FallbackParamConversionsRoundTrip) {
  for (const FallbackPolicy policy :
       {FallbackPolicy::ExpandRadius, FallbackPolicy::NearestReplica,
        FallbackPolicy::Drop}) {
    EXPECT_EQ(fallback_policy_from_param(fallback_param(policy)), policy);
  }
}

// --- Behavioral sanity of the extension strategies -----------------------

TEST(LeastLoadedStrategy, BalancesAtLeastAsWellAsTwoChoice) {
  ExperimentConfig config = small_config();
  config.strategy_spec = parse_strategy_spec("two-choice");
  const RunResult two = run_simulation(config, 0);
  config.strategy_spec = parse_strategy_spec("least-loaded");
  const RunResult all = run_simulation(config, 0);
  // Probing every replica is the d = |S_j| endpoint of the d-choice
  // spectrum; with the full candidate set the max load cannot be worse by
  // more than noise. Allow one unit of slack for tie-breaking randomness.
  EXPECT_LE(all.max_load, two.max_load + 1);
  EXPECT_EQ(all.requests, config.resolved_nodes());
  EXPECT_EQ(all.dropped, 0u);
}

TEST(LeastLoadedStrategy, RadiusBoundsTheHops) {
  ExperimentConfig config = small_config();
  config.strategy_spec = parse_strategy_spec("least-loaded(r=3,fallback=drop)");
  const RunResult result = run_simulation(config, 0);
  // With Drop fallback nothing is served beyond the radius, so the mean
  // hop count is bounded by it.
  EXPECT_LE(result.comm_cost, 3.0);
  EXPECT_GT(result.requests, 0u);
}

TEST(LeastLoadedStrategy, FallbackPoliciesMatchTwoChoiceSemantics) {
  ExperimentConfig config = small_config();
  config.cache_size = 1;  // sparse replicas: r=0 almost never has a candidate
  config.strategy_spec = parse_strategy_spec("least-loaded(r=0,fallback=drop)");
  const RunResult dropped = run_simulation(config, 0);
  EXPECT_GT(dropped.dropped, 0u);
  EXPECT_GT(dropped.fallbacks, 0u);

  config.strategy_spec =
      parse_strategy_spec("least-loaded(r=0, fallback=nearest)");
  const RunResult nearest = run_simulation(config, 0);
  EXPECT_EQ(nearest.dropped, 0u);
  EXPECT_GT(nearest.fallbacks, 0u);

  config.strategy_spec =
      parse_strategy_spec("least-loaded(r=0, fallback=expand)");
  const RunResult expanded = run_simulation(config, 0);
  EXPECT_EQ(expanded.dropped, 0u);
  EXPECT_GT(expanded.fallbacks, 0u);
}

TEST(ProxWeightedStrategy, AlphaDialsTheCostBalanceTradeoff) {
  // Larger alpha concentrates candidate mass on nearby replicas, so the
  // communication cost must fall monotonically (up to noise) as alpha
  // grows. Average over a few runs to keep the comparison stable.
  ExperimentConfig config = small_config();
  auto mean_cost = [&config](const char* spec) {
    config.strategy_spec = parse_strategy_spec(spec);
    double total = 0.0;
    for (std::uint64_t run = 0; run < 5; ++run) {
      total += run_simulation(config, run).comm_cost;
    }
    return total / 5.0;
  };
  const double uniform = mean_cost("prox-weighted(alpha=0)");
  const double mild = mean_cost("prox-weighted(alpha=1.5)");
  const double sharp = mean_cost("prox-weighted(alpha=6)");
  EXPECT_LT(mild, uniform);
  EXPECT_LT(sharp, mild);
}

TEST(ProxWeightedStrategy, AlphaZeroStillBalances) {
  ExperimentConfig config = small_config();
  config.strategy_spec = parse_strategy_spec("prox-weighted(alpha=0, d=2)");
  const RunResult two_choice_like = run_simulation(config, 0);
  config.strategy_spec = parse_strategy_spec("nearest");
  const RunResult nearest = run_simulation(config, 0);
  // Two uniform choices beat the load-oblivious baseline.
  EXPECT_LT(two_choice_like.max_load, nearest.max_load);
  EXPECT_EQ(two_choice_like.dropped, 0u);
}

TEST(ProxWeightedStrategy, SingleChoiceServesEveryRequest) {
  ExperimentConfig config = small_config();
  config.strategy_spec = parse_strategy_spec("prox-weighted(d=1, alpha=2)");
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, config.resolved_nodes());
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_EQ(result.fallbacks, 0u);
}

/// The window and total a proposal must hold: one left-to-right pass over
/// the replica list, weighing each `topology.distance` by `std::pow`.
void expect_reference_window(const Topology& topology,
                             const Placement& placement,
                             const Request& request,
                             const CandidateArena& arena,
                             const Proposal& proposal, double alpha) {
  const auto list = placement.replicas(request.file);
  ASSERT_EQ(proposal.count, list.size());
  double total = 0.0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Hop hops = topology.distance(request.origin, list[i]);
    const double weight = std::pow(1.0 + static_cast<double>(hops), -alpha);
    const ProposedCandidate& c = arena[proposal.first + i];
    ASSERT_EQ(c.node, list[i]) << topology.describe() << " i=" << i;
    ASSERT_EQ(c.hops, hops) << topology.describe() << " i=" << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(c.weight),
              std::bit_cast<std::uint64_t>(weight))
        << topology.describe() << " hops=" << hops;
    total += weight;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(proposal.total_weight),
            std::bit_cast<std::uint64_t>(total))
      << topology.describe() << " file " << request.file;
}

/// Propose every request into one arena, as a sharded lane does, and check
/// each window against the reference, and the previous window again after
/// the next proposal.
void expect_reference_windows(const ReplicaIndex& index,
                              const std::vector<Request>& requests,
                              double alpha) {
  ProxWeightedStrategy strategy(index, {.num_choices = 2, .alpha = alpha});
  CandidateArena arena;
  Rng rng(3);
  Proposal previous;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    Proposal proposal;
    strategy.propose(requests[k], rng, arena, proposal);
    expect_reference_window(index.topology(), index.placement(), requests[k],
                            arena, proposal, alpha);
    if (k > 0) {
      expect_reference_window(index.topology(), index.placement(),
                              requests[k - 1], arena, previous, alpha);
    }
    previous = proposal;
  }
}

// Every proposal must hold the list pass's window: each weight the
// std::pow double itself, whether it comes from the weight table or, past
// it, from std::pow — hops above the table (a ring longer than it) and
// above diameter() (a landmark upper bound on a sparse graph) included.
TEST(ProxWeightedStrategy, ProposalWeightsAreStdPowBitForBit) {
  const RingTopology ring(2 * ProxWeightedStrategy::kWeightTableHops + 3000);
  ASSERT_GT(ring.diameter(), ProxWeightedStrategy::kWeightTableHops);
  // One landmark and a small budget ball: most answers are landmark sums
  // d(u, L) + d(L, v), some of them above the certified diameter.
  GraphTopology::Options sparse;
  sparse.num_landmarks = 1;
  sparse.distance_ball_budget = 256;
  const auto rgg = make_rgg_topology(4500, 0.03, 1, sparse);
  ASSERT_GT(rgg->size(), GraphTopology::Options{}.dense_threshold);
  ASSERT_FALSE(rgg->oracle().exact());

  for (const Topology* topology : {static_cast<const Topology*>(&ring),
                                   static_cast<const Topology*>(rgg.get())}) {
    Rng rng(3);
    const Placement placement = Placement::generate(
        topology->size(), Popularity::uniform(8), 1,
        PlacementMode::ProportionalWithReplacement, rng);
    const ReplicaIndex index(*topology, placement);
    std::vector<Request> requests;
    std::size_t above_table = 0;
    std::size_t above_diameter = 0;
    for (NodeId origin = 0; origin < topology->size(); origin += 461) {
      requests.push_back({origin, origin % 8});
      for (const NodeId v : placement.replicas(origin % 8)) {
        const Hop hops = topology->distance(origin, v);
        if (hops > ProxWeightedStrategy::kWeightTableHops) ++above_table;
        if (hops > topology->diameter()) ++above_diameter;
      }
    }
    for (const double alpha : {1.0, 2.5}) {
      expect_reference_windows(index, requests, alpha);
    }
    if (topology == &ring) {
      EXPECT_GT(above_table, 0u) << "no hop beyond the weight table";
    } else {
      EXPECT_GT(above_diameter, 0u) << "no landmark answer above diameter()";
    }
  }

  // On lattices the proposal comes from the index's chunks of 64: packed
  // coordinates where the plan keeps them, the lattice kernel elsewhere.
  // The files cover lists one short of, at and one past a chunk, past two
  // chunks inside the coordinate band (|S_j|² <= 6n), past the band, and
  // with a bucket grid (no coordinates under the default plan).
  using Coordinates = ReplicaIndex::Coordinates;
  for (const Lattice& lattice :
       {Lattice(100, Wrap::Torus), Lattice(90, Wrap::Grid)}) {
    Rng rng(11);
    const Placement placement = Placement::generate(
        lattice.size(), Popularity::zipf(2000, 0.8), 10,
        PlacementMode::ProportionalWithReplacement, rng);
    const std::size_t band = ReplicaIndex::kReplayDensity * lattice.size();
    const auto first_file = [&](auto&& wanted) {
      for (FileId j = 0; j < placement.num_files(); ++j) {
        if (wanted(placement.replica_count(j))) return j;
      }
      ADD_FAILURE() << lattice.describe() << ": no file of the wanted length";
      return FileId{0};
    };
    const std::vector<FileId> files = {
        first_file([](std::size_t c) { return c == 63; }),
        first_file([](std::size_t c) { return c == 64; }),
        first_file([](std::size_t c) { return c == 65; }),
        first_file([&](std::size_t c) { return c > 128 && c * c <= band; }),
        first_file([&](std::size_t c) {
          return c * c > band && c < ReplicaIndex::kBucketThreshold;
        }),
        first_file(
            [](std::size_t c) { return c >= ReplicaIndex::kBucketThreshold; }),
    };
    std::vector<Request> requests;
    for (const FileId j : files) {
      for (const NodeId origin : {NodeId{0}, static_cast<NodeId>(
                                                 lattice.size() / 2 + 7),
                                  static_cast<NodeId>(lattice.size() - 1)}) {
        requests.push_back({origin, j});
      }
    }
    for (const Coordinates coordinates :
         {Coordinates::WithoutGrid, Coordinates::InBand, Coordinates::None}) {
      const ReplicaIndex index(
          lattice, placement,
          {ReplicaIndex::kBucketThreshold, coordinates});
      for (const double alpha : {1.0, 2.5}) {
        expect_reference_windows(index, requests, alpha);
      }
    }
  }
}

// Regression: with alpha = 64, (1+d)^-alpha underflows to exactly 0.0 for
// replicas past d ≈ 114,000, which a long ring reaches. Once the positive
// weights are drawn, the next pick must take the nearest remaining
// candidate (uniform among equal distances) instead of failing "weighted
// draw found no candidate".
TEST(ProxWeightedStrategy, UnderflowedWeightsDrawTheNearestRemaining) {
  const Lattice lattice(5, Wrap::Torus);
  Rng placement_rng(1);
  const Placement placement = Placement::generate(
      lattice.size(), Popularity::uniform(4), 2,
      PlacementMode::ProportionalWithReplacement, placement_rng);
  const ReplicaIndex index(lattice, placement);
  const ProxWeightedStrategy strategy(index, {.num_choices = 2, .alpha = 64});
  const double near_weight = std::pow(4.0, -64.0);  // hops 3

  // Node 0 is the only positive weight and the busiest; node 3 is the
  // nearer of the underflowed candidates, so every draw serves it.
  std::vector<Load> loads(lattice.size(), 0);
  loads[0] = 5;
  const VectorLoadView view(loads);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    CandidateArena arena = {{0, 3, near_weight}, {1, 9, 0.0}, {3, 7, 0.0}};
    Proposal proposal;
    proposal.count = 3;
    proposal.total_weight = near_weight;
    Rng rng(seed);
    const Assignment served = strategy.choose({}, proposal, arena, view, rng);
    EXPECT_EQ(served.server, 3u);
    EXPECT_EQ(served.hops, 7u);
  }

  // Two underflowed candidates at equal distance: uniform between them,
  // never the farther one.
  std::map<NodeId, int> histogram;
  constexpr int kTrials = 2000;
  for (int trial = 0; trial < kTrials; ++trial) {
    CandidateArena arena = {
        {0, 3, near_weight}, {1, 7, 0.0}, {2, 9, 0.0}, {3, 7, 0.0}};
    Proposal proposal;
    proposal.count = 4;
    proposal.total_weight = near_weight;
    Rng rng(static_cast<std::uint64_t>(trial));
    histogram[strategy.choose({}, proposal, arena, view, rng).server]++;
  }
  ASSERT_EQ(histogram.size(), 2u);
  EXPECT_NEAR(histogram[1] / static_cast<double>(kTrials), 0.5, 0.05);
  EXPECT_NEAR(histogram[3] / static_cast<double>(kTrials), 0.5, 0.05);
}

// The same end to end: on a 240k-node ring with ~2 replicas per file, a
// replica past d ≈ 114,000 has weight 0.0 in about one request in ten.
TEST(ProxWeightedStrategy, LongRingAtAlpha64ServesEveryRequest) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("ring(n=240000)");
  config.num_files = 120000;
  config.cache_size = 1;
  config.num_requests = 2000;
  config.strategy_spec = parse_strategy_spec("prox-weighted(d=2, alpha=64)");
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, config.num_requests);
  EXPECT_EQ(result.dropped, 0u);
}

// --- Spec canonicalization invariance ------------------------------------

// A spec and its canonical round-trip (parse -> to_string -> parse) must
// produce bit-identical runs for every scenario preset — no hidden state
// outside the spec string.
TEST(StrategyRegistry, CanonicalRoundTripIsBitIdentical) {
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    ExperimentConfig config = scenario.config;
    config.topology_spec = parse_topology_spec("torus(side=20)");
    config.num_files = 80;
    config.cache_size = 6;
    config.seed = 909;

    for (const char* text : {"nearest", "two-choice(d=2, r=5)"}) {
      config.strategy_spec = parse_strategy_spec(text);
      ExperimentConfig round_tripped = config;
      round_tripped.strategy_spec =
          parse_strategy_spec(config.strategy_spec.to_string());
      expect_same_result(run_simulation(config, 0),
                         run_simulation(round_tripped, 0));
    }
  }
}

// The rebinding constructor (scenario x strategy matrix fast path) is
// bit-identical to building a fresh context per cell.
TEST(StrategyRegistry, RebindingContextMatchesFreshContext) {
  ExperimentConfig config = small_config();
  const SimulationContext base(config);
  for (const char* spec :
       {"nearest", "two-choice(r=5)", "least-loaded(r=8)",
        "prox-weighted(d=2, alpha=1.5)"}) {
    const SimulationContext rebound(base, parse_strategy_spec(spec));
    ExperimentConfig fresh = config;
    fresh.strategy_spec = parse_strategy_spec(spec);
    expect_same_result(rebound.run(0), SimulationContext(fresh).run(0));
  }
  // Rebinding still validates: a bad spec throws instead of running.
  EXPECT_THROW(SimulationContext(base, parse_strategy_spec("nope")),
               std::invalid_argument);
}

// Symbolic keywords and their numeric codes are interchangeable in specs.
TEST(StrategyRegistry, KeywordAndNumericFallbackAreBitIdentical) {
  ExperimentConfig keyword = small_config();
  keyword.strategy_spec = parse_strategy_spec(
      "two-choice(r=4, fallback=nearest, beta=0.8, stale=4)");
  ExperimentConfig numeric = small_config();
  numeric.strategy_spec = parse_strategy_spec(
      "two-choice(r=4, fallback=1, beta=0.8, stale=4)");
  expect_same_result(run_simulation(keyword, 0), run_simulation(numeric, 0));
}

}  // namespace
}  // namespace proxcache
