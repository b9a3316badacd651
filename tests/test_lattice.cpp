// Tests for topology/lattice: distance metric axioms, ball/shell sizes,
// wrap modes, and the coordinate round trip.
#include "topology/lattice.hpp"

#include <gtest/gtest.h>

#include <set>

namespace proxcache {
namespace {

TEST(LatticeBasics, PerfectSquareDetection) {
  EXPECT_TRUE(Lattice::is_perfect_square(1));
  EXPECT_TRUE(Lattice::is_perfect_square(4));
  EXPECT_TRUE(Lattice::is_perfect_square(2025));
  EXPECT_TRUE(Lattice::is_perfect_square(122500));
  EXPECT_FALSE(Lattice::is_perfect_square(0));
  EXPECT_FALSE(Lattice::is_perfect_square(2));
  EXPECT_FALSE(Lattice::is_perfect_square(2024));
  EXPECT_FALSE(Lattice::is_perfect_square(99));
}

TEST(LatticeBasics, FromNodeCount) {
  const Lattice lattice = Lattice::from_node_count(2025, Wrap::Torus);
  EXPECT_EQ(lattice.side(), 45);
  EXPECT_EQ(lattice.size(), 2025u);
  EXPECT_THROW(Lattice::from_node_count(2024, Wrap::Torus),
               std::invalid_argument);
}

TEST(LatticeBasics, WrapNames) {
  EXPECT_EQ(to_string(Wrap::Torus), "torus");
  EXPECT_EQ(to_string(Wrap::Grid), "grid");
}

TEST(LatticeBasics, CoordNodeRoundTrip) {
  const Lattice lattice(7, Wrap::Torus);
  for (NodeId u = 0; u < lattice.size(); ++u) {
    EXPECT_EQ(lattice.node(lattice.coord(u)), u);
  }
  EXPECT_THROW((void)lattice.coord(49), std::invalid_argument);
  EXPECT_THROW((void)lattice.node(Point{7, 0}), std::invalid_argument);
  EXPECT_THROW((void)lattice.node(Point{0, -1}), std::invalid_argument);
}

TEST(LatticeBasics, NodeWrappedReducesModSide) {
  const Lattice lattice(5, Wrap::Torus);
  EXPECT_EQ(lattice.node_wrapped(Point{5, 0}), lattice.node(Point{0, 0}));
  EXPECT_EQ(lattice.node_wrapped(Point{-1, -1}), lattice.node(Point{4, 4}));
  EXPECT_EQ(lattice.node_wrapped(Point{12, 7}), lattice.node(Point{2, 2}));
  const Lattice grid(5, Wrap::Grid);
  EXPECT_THROW((void)grid.node_wrapped(Point{5, 0}), std::invalid_argument);
}

TEST(LatticeDistance, TorusWrapsAroundShortestWay) {
  const Lattice lattice(10, Wrap::Torus);
  const NodeId a = lattice.node(Point{0, 0});
  const NodeId b = lattice.node(Point{9, 0});
  EXPECT_EQ(lattice.distance(a, b), 1u);  // wraps: 0 -> 9 is one step
  const NodeId c = lattice.node(Point{5, 5});
  EXPECT_EQ(lattice.distance(a, c), 10u);  // 5 + 5, both axes at max ring
}

TEST(LatticeDistance, GridDoesNotWrap) {
  const Lattice lattice(10, Wrap::Grid);
  const NodeId a = lattice.node(Point{0, 0});
  const NodeId b = lattice.node(Point{9, 0});
  EXPECT_EQ(lattice.distance(a, b), 9u);
  EXPECT_EQ(lattice.diameter(), 18u);
}

TEST(LatticeDistance, Diameter) {
  EXPECT_EQ(Lattice(10, Wrap::Torus).diameter(), 10u);
  EXPECT_EQ(Lattice(9, Wrap::Torus).diameter(), 8u);
  EXPECT_EQ(Lattice(9, Wrap::Grid).diameter(), 16u);
  EXPECT_EQ(Lattice(1, Wrap::Torus).diameter(), 0u);
}

// Metric axioms, exhaustively on small lattices in both wrap modes.
class LatticeMetricTest
    : public ::testing::TestWithParam<std::tuple<int, Wrap>> {};

TEST_P(LatticeMetricTest, MetricAxiomsHold) {
  const auto [side, wrap] = GetParam();
  const Lattice lattice(side, wrap);
  const std::size_t n = lattice.size();
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(lattice.distance(u, u), 0u);
    for (NodeId v = 0; v < n; ++v) {
      const Hop duv = lattice.distance(u, v);
      EXPECT_EQ(duv, lattice.distance(v, u)) << "symmetry " << u << "," << v;
      if (u != v) {
        EXPECT_GT(duv, 0u);
      }
      EXPECT_LE(duv, lattice.diameter());
    }
  }
  // Triangle inequality on a subsample (cubic loop kept small).
  for (NodeId u = 0; u < n; u += 3) {
    for (NodeId v = 0; v < n; v += 3) {
      for (NodeId w = 0; w < n; w += 3) {
        EXPECT_LE(lattice.distance(u, w),
                  lattice.distance(u, v) + lattice.distance(v, w));
      }
    }
  }
}

TEST_P(LatticeMetricTest, NeighborsAreAtDistanceOne) {
  const auto [side, wrap] = GetParam();
  const Lattice lattice(side, wrap);
  for (NodeId u = 0; u < lattice.size(); ++u) {
    const auto neighbors = lattice.neighbors(u);
    std::set<NodeId> unique(neighbors.begin(), neighbors.end());
    EXPECT_EQ(unique.size(), neighbors.size()) << "duplicate neighbor";
    for (const NodeId v : neighbors) {
      EXPECT_EQ(lattice.distance(u, v), 1u);
      EXPECT_NE(v, u);
    }
    // Every node at distance 1 must be listed.
    for (NodeId v = 0; v < lattice.size(); ++v) {
      if (lattice.distance(u, v) == 1) {
        EXPECT_TRUE(unique.count(v)) << "missing neighbor " << v;
      }
    }
  }
}

TEST_P(LatticeMetricTest, ShellSizesMatchBruteForce) {
  const auto [side, wrap] = GetParam();
  const Lattice lattice(side, wrap);
  for (NodeId u = 0; u < lattice.size(); u += 2) {
    for (Hop d = 0; d <= lattice.diameter() + 1; ++d) {
      std::size_t brute = 0;
      for (NodeId v = 0; v < lattice.size(); ++v) {
        if (lattice.distance(u, v) == d) ++brute;
      }
      EXPECT_EQ(lattice.shell_size(u, d), brute)
          << "side=" << side << " wrap=" << to_string(wrap) << " u=" << u
          << " d=" << d;
    }
  }
}

TEST_P(LatticeMetricTest, BallSizesMatchBruteForce) {
  const auto [side, wrap] = GetParam();
  const Lattice lattice(side, wrap);
  for (NodeId u = 0; u < lattice.size(); u += 2) {
    for (Hop r = 0; r <= lattice.diameter() + 2; ++r) {
      std::size_t brute = 0;
      for (NodeId v = 0; v < lattice.size(); ++v) {
        if (lattice.distance(u, v) <= r) ++brute;
      }
      EXPECT_EQ(lattice.ball_size(u, r), brute);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SidesAndWraps, LatticeMetricTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 8, 9),
                       ::testing::Values(Wrap::Torus, Wrap::Grid)),
    [](const auto& info) {
      return "side" + std::to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST(LatticeBall, TorusBallFormulaInteriorRadius) {
  // For r < side/2 the torus L1 ball has the closed form 2r(r+1)+1.
  const Lattice lattice(101, Wrap::Torus);
  for (Hop r : {0u, 1u, 2u, 5u, 10u, 25u, 49u}) {
    EXPECT_EQ(lattice.ball_size(0, r),
              2u * static_cast<std::size_t>(r) * (r + 1) + 1);
  }
}

TEST(LatticeBall, BallIsTranslationInvariantOnTorus) {
  const Lattice lattice(9, Wrap::Torus);
  for (Hop r = 0; r <= lattice.diameter(); ++r) {
    const std::size_t reference = lattice.ball_size(0, r);
    for (NodeId u = 1; u < lattice.size(); u += 7) {
      EXPECT_EQ(lattice.ball_size(u, r), reference);
    }
  }
}

TEST(LatticeBall, GridCornerBallSmallerThanCenter) {
  const Lattice lattice(9, Wrap::Grid);
  const NodeId corner = lattice.node(Point{0, 0});
  const NodeId center = lattice.node(Point{4, 4});
  EXPECT_LT(lattice.ball_size(corner, 3), lattice.ball_size(center, 3));
}

TEST(LatticeBall, FullRadiusCoversEverything) {
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    const Lattice lattice(6, wrap);
    for (NodeId u = 0; u < lattice.size(); ++u) {
      EXPECT_EQ(lattice.ball_size(u, lattice.diameter()), lattice.size());
    }
  }
}

TEST(LatticeMeanDistance, MatchesBruteForce) {
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    const Lattice lattice(7, wrap);
    const NodeId u = lattice.node(Point{2, 3});
    double total = 0.0;
    for (NodeId v = 0; v < lattice.size(); ++v) {
      total += lattice.distance(u, v);
    }
    EXPECT_NEAR(lattice.mean_distance_to_random_node(u),
                total / static_cast<double>(lattice.size()), 1e-12);
  }
}

TEST(LatticeMeanDistance, TorusGrowsAsSqrtN) {
  // mean distance ≈ side/2 on a torus; ratio across sides tracks sqrt(n).
  const double d20 = Lattice(20, Wrap::Torus).mean_distance_to_random_node(0);
  const double d40 = Lattice(40, Wrap::Torus).mean_distance_to_random_node(0);
  EXPECT_NEAR(d40 / d20, 2.0, 0.1);
}

}  // namespace
}  // namespace proxcache
