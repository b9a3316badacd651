// Tests for the Hotspot origin extension: mixture correctness and its
// end-to-end effect on the two strategies.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "scenario/generators.hpp"
#include "topology/shells.hpp"

namespace proxcache {
namespace {

/// `count` requests of the paper's trace process with `origins` on
/// `topology`, files i.i.d. from `popularity`.
std::vector<Request> static_trace(const Topology& topology,
                                  const OriginSpec& origins,
                                  const Popularity& popularity,
                                  std::size_t count, Rng& rng) {
  StaticTraceSource source(topology, origins, popularity);
  return materialize(source, count, rng);
}

TEST(HotspotTrace, UniformKindDelegates) {
  const Lattice lattice(10, Wrap::Torus);
  OriginSpec origins;  // Uniform
  Rng rng_a(5);
  Rng rng_b(5);
  const auto mixture = static_trace(lattice, origins,
                                    Popularity::uniform(4), 200, rng_a);
  StaticTraceSource uniform(lattice.size(), Popularity::uniform(4));
  const auto plain = materialize(uniform, 200, rng_b);
  ASSERT_EQ(mixture.size(), plain.size());
  for (std::size_t i = 0; i < mixture.size(); ++i) {
    EXPECT_EQ(mixture[i].origin, plain[i].origin);
    EXPECT_EQ(mixture[i].file, plain[i].file);
  }
}

TEST(HotspotTrace, FullFractionStaysInsideDisc) {
  const Lattice lattice(15, Wrap::Torus);
  OriginSpec origins;
  origins.kind = OriginKind::Hotspot;
  origins.hotspot_fraction = 1.0;
  origins.hotspot_radius = 3;
  const NodeId center = lattice.node(Point{7, 7});
  Rng rng(9);
  const auto trace = static_trace(lattice, origins,
                                  Popularity::uniform(5), 2000, rng);
  for (const Request& request : trace) {
    EXPECT_LE(lattice.distance(request.origin, center), 3u);
  }
}

TEST(HotspotTrace, FractionControlsTheMixture) {
  const Lattice lattice(21, Wrap::Torus);
  OriginSpec origins;
  origins.kind = OriginKind::Hotspot;
  origins.hotspot_fraction = 0.6;
  origins.hotspot_radius = 2;
  const NodeId center = lattice.node(Point{10, 10});
  const double disc_size =
      static_cast<double>(lattice.ball_size(center, 2));
  Rng rng(11);
  const std::size_t count = 40000;
  const auto trace =
      static_trace(lattice, origins, Popularity::uniform(5), count, rng);
  std::size_t inside = 0;
  for (const Request& request : trace) {
    if (lattice.distance(request.origin, center) <= 2) ++inside;
  }
  // Expected inside fraction: 0.6 + 0.4 * disc/n.
  const double expected =
      0.6 + 0.4 * disc_size / static_cast<double>(lattice.size());
  EXPECT_NEAR(static_cast<double>(inside) / static_cast<double>(count),
              expected, 0.02);
}

TEST(HotspotTrace, ZeroFractionIsUniform) {
  const Lattice lattice(9, Wrap::Torus);
  OriginSpec origins;
  origins.kind = OriginKind::Hotspot;
  origins.hotspot_fraction = 0.0;
  origins.hotspot_radius = 1;
  Rng rng(13);
  const auto trace = static_trace(lattice, origins,
                                  Popularity::uniform(3), 20000, rng);
  // All nodes should appear with roughly uniform frequency.
  std::vector<int> counts(lattice.size(), 0);
  for (const Request& request : trace) ++counts[request.origin];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / 20000.0,
                1.0 / static_cast<double>(lattice.size()), 0.01);
  }
}

TEST(HotspotTrace, RejectsBadFraction) {
  const Lattice lattice(5, Wrap::Torus);
  OriginSpec origins;
  origins.kind = OriginKind::Hotspot;
  origins.hotspot_fraction = 1.5;
  Rng rng(1);
  EXPECT_THROW(
      static_trace(lattice, origins, Popularity::uniform(2), 10, rng),
      std::invalid_argument);
}

TEST(HotspotEndToEnd, ConcentratedDemandRaisesMaxLoad) {
  ExperimentConfig uniform;
  uniform.topology_spec = parse_topology_spec("torus(side=25)");
  uniform.num_files = 50;
  uniform.cache_size = 5;
  uniform.seed = 3;
  uniform.strategy_spec = parse_strategy_spec("two-choice(r=4)");

  ExperimentConfig hotspot = uniform;
  hotspot.origins.kind = OriginKind::Hotspot;
  hotspot.origins.hotspot_fraction = 0.8;
  hotspot.origins.hotspot_radius = 2;

  const double load_uniform = run_experiment(uniform, 10).max_load.mean();
  const double load_hotspot = run_experiment(hotspot, 10).max_load.mean();
  EXPECT_GT(load_hotspot, load_uniform + 1.0)
      << "a tight hotspot must overload the nearby candidate servers";
}

TEST(HotspotEndToEnd, LargerRadiusAbsorbsTheHotspot) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=25)");
  config.num_files = 50;
  config.cache_size = 5;
  config.seed = 4;
  config.origins.kind = OriginKind::Hotspot;
  config.origins.hotspot_fraction = 0.8;
  config.origins.hotspot_radius = 2;

  config.strategy_spec = parse_strategy_spec("two-choice(r=2)");
  const double tight = run_experiment(config, 10).max_load.mean();
  config.strategy_spec = parse_strategy_spec("two-choice(r=12)");
  const double wide = run_experiment(config, 10).max_load.mean();
  EXPECT_LT(wide, tight)
      << "a wider dispatch radius must spread hotspot demand";
}

}  // namespace
}  // namespace proxcache
