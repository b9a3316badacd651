// Tests for core/cost_model: the exact finite-torus nearest-replica
// distance law against brute-force probability enumeration and against the
// Monte-Carlo simulator.
#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "topology/lattice.hpp"

namespace proxcache {
namespace {

TEST(ExpectedNearestDistance, MatchesBruteForceEnumeration) {
  // E[D | available] = sum_d P(D > d | available) with
  // P(D > d) = (1-q)^{|B_d|}; verify against a direct evaluation from the
  // survival probabilities on a small torus.
  const Lattice lattice(7, Wrap::Torus);
  for (const double q : {0.05, 0.2, 0.5, 0.9}) {
    const std::size_t n = lattice.size();
    const double p_empty = std::pow(1.0 - q, static_cast<double>(n));
    double expected = 0.0;
    for (Hop d = 0; d < lattice.diameter(); ++d) {
      const double survivor =
          std::pow(1.0 - q, static_cast<double>(lattice.ball_size(0, d)));
      expected += (survivor - p_empty) / (1.0 - p_empty);
    }
    EXPECT_NEAR(expected_nearest_distance(lattice, q), expected, 1e-9)
        << "q=" << q;
  }
}

TEST(ExpectedNearestDistance, CertainCacheMeansZeroDistance) {
  const Lattice lattice(9, Wrap::Torus);
  EXPECT_NEAR(expected_nearest_distance(lattice, 1.0), 0.0, 1e-12);
}

TEST(ExpectedNearestDistance, MonotoneDecreasingInQ) {
  const Lattice lattice(15, Wrap::Torus);
  double last = 1e18;
  for (const double q : {0.01, 0.05, 0.1, 0.3, 0.7}) {
    const double d = expected_nearest_distance(lattice, q);
    EXPECT_LT(d, last);
    last = d;
  }
}

TEST(ExpectedNearestDistance, SparseRegimeScalesAsInverseSqrtQ) {
  // On a large torus with q small, E[D] ≈ c/sqrt(q): quartering q doubles
  // the distance.
  const Lattice lattice(201, Wrap::Torus);
  const double d1 = expected_nearest_distance(lattice, 0.004);
  const double d2 = expected_nearest_distance(lattice, 0.001);
  EXPECT_NEAR(d2 / d1, 2.0, 0.1);
}

TEST(ExpectedNearestDistance, RejectsBadQ) {
  const Lattice lattice(5, Wrap::Torus);
  EXPECT_THROW(expected_nearest_distance(lattice, 0.0),
               std::invalid_argument);
  EXPECT_THROW(expected_nearest_distance(lattice, 1.5),
               std::invalid_argument);
}

TEST(NearestCostModel, MatchesMonteCarloUniform) {
  // The model is exact for the simulated process (independent caching,
  // uniform origins, Resample policy); simulation must agree within a few
  // percent at modest replication.
  const Lattice lattice = Lattice::from_node_count(625, Wrap::Torus);
  const Popularity popularity = Popularity::uniform(80);
  const double predicted = nearest_cost_model(lattice, popularity, 4);

  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=25)");
  config.num_files = 80;
  config.cache_size = 4;
  config.strategy_spec = parse_strategy_spec("nearest");
  config.seed = 77;
  const ExperimentResult measured = run_experiment(config, 40);
  EXPECT_NEAR(measured.comm_cost.mean(), predicted,
              0.05 * predicted + 3.0 * measured.comm_cost.standard_error());
}

TEST(NearestCostModel, MatchesMonteCarloZipf) {
  const Lattice lattice = Lattice::from_node_count(625, Wrap::Torus);
  const Popularity popularity = Popularity::zipf(200, 1.2);
  const double predicted = nearest_cost_model(lattice, popularity, 2);

  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=25)");
  config.num_files = 200;
  config.cache_size = 2;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.2;
  config.strategy_spec = parse_strategy_spec("nearest");
  config.seed = 78;
  const ExperimentResult measured = run_experiment(config, 40);
  EXPECT_NEAR(measured.comm_cost.mean(), predicted,
              0.06 * predicted + 3.0 * measured.comm_cost.standard_error());
}

TEST(NearestCostModel, DecreasesWithCacheSize) {
  const Lattice lattice = Lattice::from_node_count(400, Wrap::Torus);
  const Popularity popularity = Popularity::uniform(50);
  double last = 1e18;
  for (const std::size_t m : {1u, 2u, 5u, 20u}) {
    const double c = nearest_cost_model(lattice, popularity, m);
    EXPECT_LT(c, last);
    last = c;
  }
}

TEST(NearestCostModel, SkewIsCheaper) {
  const Lattice lattice = Lattice::from_node_count(900, Wrap::Torus);
  EXPECT_LT(nearest_cost_model(lattice, Popularity::zipf(300, 1.5), 3),
            nearest_cost_model(lattice, Popularity::uniform(300), 3));
}

TEST(NearestCostReferenceFinite, ApproachesPlainReferenceForLargeN) {
  // With abundant nodes and well-replicated files, the finite correction
  // vanishes.
  const Popularity popularity = Popularity::uniform(20);
  const double plain = nearest_cost_reference(popularity, 4);
  const double finite =
      nearest_cost_reference_finite(popularity, 4, 4000000);
  EXPECT_NEAR(finite / plain, 1.0, 0.05);
}

TEST(NearestCostReferenceFinite, FlattensAtHighSkew) {
  // For gamma=1.5 with tiny M the asymptotic reference grows in K while
  // the finite one saturates (absent tail files are resampled).
  const std::size_t n = 2025;
  const double small_k =
      nearest_cost_reference_finite(Popularity::zipf(250, 1.5), 2, n);
  const double large_k =
      nearest_cost_reference_finite(Popularity::zipf(2000, 1.5), 2, n);
  const double asym_small = nearest_cost_reference(Popularity::zipf(250, 1.5), 2);
  const double asym_large =
      nearest_cost_reference(Popularity::zipf(2000, 1.5), 2);
  EXPECT_LT(large_k / small_k, asym_large / asym_small)
      << "finite reference must grow slower than the asymptotic one";
}

}  // namespace
}  // namespace proxcache
