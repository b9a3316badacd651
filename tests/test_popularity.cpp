// Tests for catalog/popularity: pmf shapes, Λ(γ), and the Theorem 3
// communication-cost reference formula.
#include "catalog/popularity.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace proxcache {
namespace {

TEST(Popularity, UniformPmf) {
  const Popularity p = Popularity::uniform(8);
  EXPECT_EQ(p.kind(), PopularityKind::Uniform);
  EXPECT_EQ(p.num_files(), 8u);
  for (FileId j = 0; j < 8; ++j) EXPECT_DOUBLE_EQ(p.pmf(j), 0.125);
  EXPECT_EQ(p.describe(), "uniform");
}

TEST(Popularity, ZipfPmfNormalizedAndMonotone) {
  const Popularity p = Popularity::zipf(100, 0.8);
  double total = 0.0;
  for (FileId j = 0; j < 100; ++j) {
    total += p.pmf(j);
    if (j > 0) {
      EXPECT_LT(p.pmf(j), p.pmf(j - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(p.describe(), "zipf(0.8)");
}

TEST(Popularity, ZipfGammaZeroIsUniform) {
  const Popularity z = Popularity::zipf(10, 0.0);
  for (FileId j = 0; j < 10; ++j) EXPECT_NEAR(z.pmf(j), 0.1, 1e-12);
}

TEST(Popularity, ZipfRatioMatchesRankPower) {
  const double gamma = 1.5;
  const Popularity p = Popularity::zipf(50, gamma);
  // p_1 / p_4 = 4^gamma.
  EXPECT_NEAR(p.pmf(0) / p.pmf(3), std::pow(4.0, gamma), 1e-9);
}

TEST(Popularity, RejectsBadArgs) {
  EXPECT_THROW(Popularity::uniform(0), std::invalid_argument);
  EXPECT_THROW(Popularity::zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(Popularity::zipf(5, -0.1), std::invalid_argument);
}

TEST(GeneralizedHarmonic, KnownValues) {
  EXPECT_NEAR(generalized_harmonic(1, 2.0), 1.0, 1e-12);
  EXPECT_NEAR(generalized_harmonic(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(generalized_harmonic(4, 0.0), 4.0, 1e-12);
}

TEST(GeneralizedHarmonic, AsymptoticRegimes) {
  // Eq. 17: Λ(γ) = Θ(K^{1-γ}) for γ<1, Θ(log K) for γ=1, Θ(1) for γ>2.
  const double l_half_1k = generalized_harmonic(1000, 0.5);
  const double l_half_4k = generalized_harmonic(4000, 0.5);
  EXPECT_NEAR(l_half_4k / l_half_1k, 2.0, 0.1);  // K^{1/2} ratio = sqrt(4)

  const double l_one_1k = generalized_harmonic(1000, 1.0);
  const double l_one_1m = generalized_harmonic(1000000, 1.0);
  EXPECT_NEAR(l_one_1m / l_one_1k, 2.0, 0.1);  // log ratio = 6/3

  const double l_three_1k = generalized_harmonic(1000, 3.0);
  const double l_three_100k = generalized_harmonic(100000, 3.0);
  EXPECT_NEAR(l_three_100k / l_three_1k, 1.0, 0.01);  // converged
}

TEST(NearestCostReference, UniformMatchesSqrtKOverM) {
  // For uniform popularity the reference is 1/sqrt(q) with
  // q = 1 - (1 - 1/K)^M ≈ M/K, so C_ref ≈ sqrt(K/M).
  const double c = nearest_cost_reference(Popularity::uniform(1000), 10);
  EXPECT_NEAR(c, std::sqrt(1000.0 / 10.0), 0.2);
}

TEST(NearestCostReference, DecreasesWithCacheSize) {
  const Popularity p = Popularity::uniform(500);
  double last = 1e18;
  for (const std::size_t m : {1u, 2u, 5u, 20u, 100u}) {
    const double c = nearest_cost_reference(p, m);
    EXPECT_LT(c, last);
    last = c;
  }
}

TEST(NearestCostReference, ZipfCheaperThanUniform) {
  // Skew concentrates replicas on popular files, cutting expected distance.
  const std::size_t k = 1000;
  EXPECT_LT(nearest_cost_reference(Popularity::zipf(k, 1.5), 4),
            nearest_cost_reference(Popularity::uniform(k), 4));
}

TEST(NearestCostReference, RejectsZeroCache) {
  EXPECT_THROW(nearest_cost_reference(Popularity::uniform(10), 0),
               std::invalid_argument);
}

TEST(Theorem3Regime, AllBranches) {
  EXPECT_EQ(theorem3_regime(0.5), "Theta(sqrt(K/M))");
  EXPECT_EQ(theorem3_regime(1.0), "Theta(sqrt(K/(M log K)))");
  EXPECT_EQ(theorem3_regime(1.5), "Theta(K^(1-gamma/2)/sqrt(M))");
  EXPECT_EQ(theorem3_regime(2.0), "Theta(log(K)/sqrt(M))");
  EXPECT_EQ(theorem3_regime(2.5), "Theta(1/sqrt(M))");
}

}  // namespace
}  // namespace proxcache
