// Tests for scenario/trace_source + scenario/generators: streaming behavior,
// per-source invariants, determinism, and the factory dispatch.
#include "scenario/trace_source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "scenario/generators.hpp"
#include "tier/tier_set.hpp"
#include "tier/tiered_topology.hpp"
#include "topology/shells.hpp"

namespace proxcache {
namespace {

Lattice test_lattice() { return Lattice(10, Wrap::Torus); }

TEST(Materialize, ProducesRequestedCount) {
  StaticTraceSource source(25, Popularity::uniform(5));
  Rng rng(1);
  const auto trace = materialize(source, 137, rng);
  EXPECT_EQ(trace.size(), 137u);
}

TEST(FlashCrowdSource, PulseIsZeroOutsideWindowAndPeaksAtMidpoint) {
  TraceSpec spec;
  spec.kind = TraceKind::FlashCrowd;
  spec.flash_peak = 0.8;
  spec.flash_start = 0.25;
  spec.flash_end = 0.75;
  spec.flash_radius = 2;
  FlashCrowdTraceSource source(test_lattice(), Popularity::uniform(10), spec,
                               1000);
  EXPECT_DOUBLE_EQ(source.pulse_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(source.pulse_fraction(249), 0.0);
  EXPECT_DOUBLE_EQ(source.pulse_fraction(750), 0.0);
  EXPECT_DOUBLE_EQ(source.pulse_fraction(999), 0.0);
  EXPECT_DOUBLE_EQ(source.pulse_fraction(500), 0.8);
  // Linear ramp: halfway into the rise sits at half the peak.
  EXPECT_NEAR(source.pulse_fraction(375), 0.4, 1e-9);
  // Triangular pulse mean = peak * (end - start) / 2.
  EXPECT_NEAR(source.mean_pulse(), 0.8 * 0.5 / 2.0, 0.01);
}

TEST(FlashCrowdSource, DeterministicAndInRange) {
  TraceSpec spec;
  spec.kind = TraceKind::FlashCrowd;
  FlashCrowdTraceSource a(test_lattice(), Popularity::uniform(7), spec, 500);
  FlashCrowdTraceSource b(test_lattice(), Popularity::uniform(7), spec, 500);
  Rng rng_a(9);
  Rng rng_b(9);
  for (int i = 0; i < 500; ++i) {
    const Request ra = a.next(rng_a);
    const Request rb = b.next(rng_b);
    EXPECT_EQ(ra.origin, rb.origin);
    EXPECT_EQ(ra.file, rb.file);
    EXPECT_LT(ra.origin, 100u);
    EXPECT_LT(ra.file, 7u);
  }
}

TEST(DiurnalSource, VisitsEveryPhaseAndMarginalSumsToOne) {
  TraceSpec spec;
  spec.kind = TraceKind::Diurnal;
  spec.diurnal_amplitude = 0.5;
  spec.diurnal_cycles = 2;
  DiurnalTraceSource source(OriginModel(100), Popularity::zipf(15, 1.0), spec, 1600);
  std::set<std::uint32_t> phases;
  for (std::size_t t = 0; t < 1600; ++t) phases.insert(source.phase_of(t));
  EXPECT_EQ(phases.size(), DiurnalTraceSource::kPhases);
  const std::vector<double> marginal = source.marginal_pmf();
  double sum = 0.0;
  for (const double p : marginal) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Day phases (rising sine) are more skewed than night phases.
  EXPECT_GT(source.phase_gamma(1), source.phase_gamma(5));
}

TEST(ChurnSource, NeverEmitsOfflineFilesAndRotatesPerEpoch) {
  TraceSpec spec;
  spec.kind = TraceKind::Churn;
  spec.churn_offline_fraction = 0.4;
  spec.churn_epochs = 4;
  const std::size_t horizon = 400;
  ChurnTraceSource source(OriginModel(50), Popularity::zipf(20, 0.8), spec, horizon);
  Rng rng(3);
  std::vector<std::set<FileId>> epoch_offline;
  for (std::size_t t = 0; t < horizon; ++t) {
    const Request request = source.next(rng);
    EXPECT_LT(request.origin, 50u);
    EXPECT_LT(request.file, 20u);
    EXPECT_FALSE(source.is_offline(request.file));
    if (t % 100 == 0) {
      std::set<FileId> offline;
      for (FileId j = 0; j < 20; ++j) {
        if (source.is_offline(j)) offline.insert(j);
      }
      EXPECT_EQ(offline.size(), 8u);  // floor(20 * 0.4)
      epoch_offline.push_back(offline);
    }
  }
  ASSERT_EQ(epoch_offline.size(), 4u);
  // With overwhelming probability at this seed, consecutive epochs pick
  // different offline subsets.
  bool any_rotation = false;
  for (std::size_t e = 1; e < epoch_offline.size(); ++e) {
    if (epoch_offline[e] != epoch_offline[e - 1]) any_rotation = true;
  }
  EXPECT_TRUE(any_rotation);
}

TEST(TemporalLocalitySource, FullLocalityDepthOnePinsTheFirstDraw) {
  TraceSpec spec;
  spec.kind = TraceKind::TemporalLocality;
  spec.locality_prob = 1.0;
  spec.locality_depth = 1;
  TemporalLocalityTraceSource source(OriginModel(30), Popularity::zipf(25, 0.8), spec);
  Rng rng(11);
  const Request first = source.next(rng);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(source.next(rng).file, first.file);
  }
}

TEST(AdversarialSource, FullAttackStaysInHotSet) {
  TraceSpec spec;
  spec.kind = TraceKind::Adversarial;
  spec.attack_fraction = 1.0;
  spec.attack_top_k = 3;
  AdversarialTraceSource source(OriginModel(30), Popularity::zipf(40, 1.0), spec);
  // Zipf rank order: hot set is files {0, 1, 2}.
  const std::vector<FileId> expected_hot = {0, 1, 2};
  EXPECT_EQ(source.hot_set(), expected_hot);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(source.next(rng).file, 3u);
  }
  const std::vector<double> marginal = source.marginal_pmf();
  double sum = 0.0;
  for (const double p : marginal) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OriginComposition, HotspotOriginsComposeWithFileProcesses) {
  // The file-process sources take an OriginModel, so a static hotspot
  // composes with e.g. an adversarial catalog: with fraction 1 and radius
  // 0, every origin must be the lattice-center node.
  const Lattice lattice = test_lattice();
  OriginSpec origins;
  origins.kind = OriginKind::Hotspot;
  origins.hotspot_fraction = 1.0;
  origins.hotspot_radius = 0;
  const NodeId center = lattice.node(Point{5, 5});
  TraceSpec spec;
  spec.kind = TraceKind::Adversarial;
  AdversarialTraceSource source(OriginModel(lattice, origins),
                                Popularity::zipf(20, 1.0), spec);
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(source.next(rng).origin, center);
  }
}

TEST(OriginComposition, FactoryForwardsOriginSpecToFileProcesses) {
  const Lattice lattice = test_lattice();
  const Popularity popularity = Popularity::zipf(20, 0.8);
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.num_files = 20;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 0.8;
  config.origins.kind = OriginKind::Hotspot;
  config.origins.hotspot_fraction = 1.0;
  config.origins.hotspot_radius = 0;
  config.trace.kind = TraceKind::Churn;
  const auto source = make_trace_source(config, lattice, popularity, 100);
  Rng rng(29);
  const NodeId center = lattice.node(Point{5, 5});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(source->next(rng).origin, center);
  }
}

TEST(Factory, DispatchesEveryTraceKind) {
  const Lattice lattice = test_lattice();
  const Popularity popularity = Popularity::zipf(20, 0.8);
  const struct {
    TraceKind kind;
    const char* needle;
  } cases[] = {
      {TraceKind::Static, "static"},
      {TraceKind::FlashCrowd, "flash-crowd"},
      {TraceKind::Diurnal, "diurnal"},
      {TraceKind::Churn, "churn"},
      {TraceKind::TemporalLocality, "temporal-locality"},
      {TraceKind::Adversarial, "adversarial"},
  };
  for (const auto& c : cases) {
    ExperimentConfig config;
    config.topology_spec = parse_topology_spec("torus(side=10)");
    config.num_files = 20;
    config.popularity.kind = PopularityKind::Zipf;
    config.popularity.gamma = 0.8;
    config.trace.kind = c.kind;
    const auto source = make_trace_source(config, lattice, popularity, 100);
    ASSERT_NE(source, nullptr);
    EXPECT_NE(source->describe().find(c.needle), std::string::npos)
        << source->describe();
  }
}

// Regression lock for the demand-disc anchor. Flat topologies must keep
// the historical disc bit-exactly: the ball around `central_node()`, which
// for the 10×10 test torus is the node at (5, 5). Any tier-layer change
// that re-anchors flat discs moves hotspot/flash golden masters — this
// pins it before they can.
TEST(AnchorDisc, FlatTopologiesKeepTheHistoricalCentralAnchor) {
  const Lattice lattice = test_lattice();
  OriginSpec origins;
  origins.kind = OriginKind::Hotspot;
  origins.hotspot_fraction = 0.6;
  origins.hotspot_radius = 2;
  const OriginModel model(lattice, origins);
  const std::vector<NodeId> expected =
      collect_ball(lattice, lattice.node(Point{5, 5}), 2);
  EXPECT_EQ(model.disc(), expected);
  EXPECT_EQ(expected.size(), 13u);  // |B_2| on a torus: 1 + 4 + 8
  // The flash-crowd pulse shares the same anchor.
  TraceSpec spec;
  spec.kind = TraceKind::FlashCrowd;
  spec.flash_radius = 2;
  const FlashCrowdTraceSource flash(lattice, Popularity::uniform(10), spec,
                                    100);
  EXPECT_EQ(flash.disc(), expected);
}

// On a hierarchy the disc is anchored per front-end cluster: every edge
// PoP gets the inner ball around its own center, mapped to global ids —
// never a composed-metric ball that would leak through the gateway into
// back-end or origin nodes (which cannot originate requests).
TEST(AnchorDisc, TieredTopologiesAnchorPerFrontCluster) {
  const auto set = TierSet::build(
      parse_tier_spec("tiers(front=torus(side=4)x3, back=ring(n=12), "
                      "origin=1)"),
      4);
  const TieredTopology topology(set);
  OriginSpec origins;
  origins.kind = OriginKind::Hotspot;
  origins.hotspot_fraction = 0.6;
  origins.hotspot_radius = 1;
  const OriginModel model(topology, origins);
  const TierLevel& front = set->levels().front();
  const std::vector<NodeId> inner =
      collect_ball(*front.inner, front.inner->central_node(), 1);
  ASSERT_EQ(model.disc().size(), inner.size() * front.clusters);
  std::size_t i = 0;
  for (std::uint32_t k = 0; k < front.clusters; ++k) {
    for (const NodeId v : inner) {
      EXPECT_EQ(model.disc()[i++],
                front.base + k * front.cluster_nodes + v);
    }
  }
  for (const NodeId u : model.disc()) {
    EXPECT_LT(u, front.nodes) << "discs never leave the front tier";
  }
  // Sampling respects the origin universe even off-disc.
  Rng rng(41);
  for (int draw = 0; draw < 300; ++draw) {
    EXPECT_LT(model.sample(rng), front.nodes);
  }
  TraceSpec spec;
  spec.kind = TraceKind::FlashCrowd;
  spec.flash_radius = 1;
  const FlashCrowdTraceSource flash(topology, Popularity::uniform(10), spec,
                                    100);
  EXPECT_EQ(flash.disc(), model.disc());
}

TEST(TraceKindNames, RoundTrip) {
  const TraceKind kinds[] = {
      TraceKind::Static,       TraceKind::FlashCrowd,
      TraceKind::Diurnal,      TraceKind::Churn,
      TraceKind::TemporalLocality, TraceKind::Adversarial,
  };
  for (const TraceKind kind : kinds) {
    EXPECT_EQ(trace_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)trace_kind_from_string("no-such-kind"),
               std::invalid_argument);
}

}  // namespace
}  // namespace proxcache
