// Grid-boundary audit (Wrap::Grid): `B_r(u)` balls truncated at the grid
// edges must be counted and enumerated *exactly* — never approximated by
// the u-independent torus shell sizes. These regressions pin the boundary
// behavior at edge and corner nodes against O(n²) brute force, for the
// shell/ball closed forms, the shell enumerators, the bucket grid, and the
// radius-filtered replica queries the candidate sampling normalizes over.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "catalog/placement.hpp"
#include "catalog/popularity.hpp"
#include "spatial/bucket_grid.hpp"
#include "spatial/replica_index.hpp"
#include "topology/lattice.hpp"
#include "topology/shells.hpp"

namespace proxcache {
namespace {

std::vector<NodeId> brute_shell(const Lattice& lattice, NodeId u, Hop d) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < lattice.size(); ++v) {
    if (lattice.distance(u, v) == d) out.push_back(v);
  }
  return out;
}

TEST(GridBoundary, ShellAndBallSizesAreExactAtEveryNode) {
  for (const std::int32_t side : {1, 2, 3, 4, 6}) {
    const Lattice grid(side, Wrap::Grid);
    for (NodeId u = 0; u < grid.size(); ++u) {
      std::size_t ball = 0;
      for (Hop d = 0; d <= grid.diameter() + 1; ++d) {
        const std::size_t brute = brute_shell(grid, u, d).size();
        EXPECT_EQ(grid.shell_size(u, d), brute)
            << "side=" << side << " u=" << u << " d=" << d;
        ball += brute;
        EXPECT_EQ(grid.ball_size(u, d), ball)
            << "side=" << side << " u=" << u << " r=" << d;
      }
    }
  }
}

TEST(GridBoundary, EnumerationVisitsTruncatedShellsExactlyOnce) {
  const Lattice grid(5, Wrap::Grid);
  // Corner, edge-midpoint, and center probe the three boundary regimes.
  const NodeId corner = grid.node(Point{0, 0});
  const NodeId edge = grid.node(Point{2, 0});
  const NodeId center = grid.node(Point{2, 2});
  for (const NodeId u : {corner, edge, center}) {
    for (Hop d = 0; d <= grid.diameter(); ++d) {
      const std::vector<NodeId> shell = collect_shell(grid, u, d);
      const std::set<NodeId> unique(shell.begin(), shell.end());
      EXPECT_EQ(unique.size(), shell.size())
          << "duplicate visit at u=" << u << " d=" << d;
      const std::vector<NodeId> brute = brute_shell(grid, u, d);
      EXPECT_EQ(unique, std::set<NodeId>(brute.begin(), brute.end()))
          << "u=" << u << " d=" << d;
    }
  }
}

TEST(GridBoundary, CornerBallsAreSmallerThanTorusBalls) {
  // The truncation itself: a grid corner sees roughly a quarter of the
  // torus ball. Any code path "normalizing" a corner ball by the torus
  // closed form would be off by this factor.
  const Lattice grid(9, Wrap::Grid);
  const Lattice torus(9, Wrap::Torus);
  const NodeId corner = grid.node(Point{0, 0});
  const NodeId center = grid.node(Point{4, 4});
  for (const Hop r : {1u, 2u, 3u}) {
    EXPECT_LT(grid.ball_size(corner, r), torus.ball_size(corner, r));
    EXPECT_LT(grid.ball_size(corner, r), grid.ball_size(center, r));
    // Interior nodes far from every edge agree with the torus closed form.
    EXPECT_EQ(grid.ball_size(center, r), torus.ball_size(center, r));
  }
  // Exact corner values: |B_r| = (r+1)(r+2)/2 within the quadrant.
  EXPECT_EQ(grid.ball_size(corner, 1), 3u);
  EXPECT_EQ(grid.ball_size(corner, 2), 6u);
  EXPECT_EQ(grid.ball_size(corner, 3), 10u);
}

TEST(GridBoundary, BucketGridRadiusQueriesAreExactAtTheEdges) {
  const Lattice grid(6, Wrap::Grid);
  std::vector<NodeId> all(grid.size());
  for (NodeId v = 0; v < grid.size(); ++v) all[v] = v;
  // Cell sizes that do and do not divide the side, including partial edge
  // cells (cell=4 leaves a 2-wide fringe).
  for (const std::int32_t cell : {1, 2, 4, 5, 6}) {
    const BucketGrids buckets(
        grid, 1, [&all](std::size_t) { return std::span(all); }, 0, cell);
    for (const NodeId u :
         {grid.node(Point{0, 0}), grid.node(Point{5, 0}),
          grid.node(Point{0, 5}), grid.node(Point{5, 5}),
          grid.node(Point{3, 0}), grid.node(Point{2, 3})}) {
      for (Hop r = 0; r <= grid.diameter() + 1; ++r) {
        std::vector<NodeId> got;
        buckets.for_each_within(0, u, r,
                                [&](NodeId v, Hop) { got.push_back(v); });
        std::vector<NodeId> want;
        for (NodeId v = 0; v < grid.size(); ++v) {
          if (grid.distance(u, v) <= r) want.push_back(v);
        }
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "cell=" << cell << " u=" << u << " r=" << r;
      }
    }
  }
}

TEST(GridBoundary, ReplicaCountsNeverOvercountAtCornersUnderBucketGrids) {
  // One file cached everywhere forces the bucket-grid path
  // (threshold 1 <= |S_j| = n); counts at boundary nodes must equal the
  // exact truncated ball size, not the torus size.
  const Lattice grid(7, Wrap::Grid);
  const std::size_t n = grid.size();
  Popularity popularity = Popularity::uniform(1);
  Rng rng(5);
  // Deterministic "cache file 0 everywhere" placement via generate with
  // M = 1, K = 1: every node caches the single file.
  const Placement placement = Placement::generate(
      n, popularity, 1, PlacementMode::ProportionalWithReplacement, rng);
  ASSERT_EQ(placement.replicas(0).size(), n);
  const ReplicaIndex index(grid, placement,
                           ReplicaIndex::Plan{.bucket_threshold = 1});
  ASSERT_TRUE(index.has_bucket_grid(0));
  const Lattice torus(7, Wrap::Torus);
  for (const NodeId u : {grid.node(Point{0, 0}), grid.node(Point{6, 6}),
                         grid.node(Point{0, 3}), grid.node(Point{3, 3})}) {
    for (Hop r = 0; r <= grid.diameter(); ++r) {
      EXPECT_EQ(index.count_replicas_within(u, 0, r), grid.ball_size(u, r))
          << "u=" << u << " r=" << r;
    }
  }
  EXPECT_LT(index.count_replicas_within(grid.node(Point{0, 0}), 0, 2),
            torus.ball_size(0, 2))
      << "corner counts must reflect the truncated ball";
}

TEST(GridBoundary, NearestQueriesAgreeAcrossAlgorithmsAtTheBoundary) {
  const Lattice grid(6, Wrap::Grid);
  Popularity popularity = Popularity::zipf(9, 1.0);
  Rng rng(17);
  const Placement placement = Placement::generate(
      grid.size(), popularity, 2,
      PlacementMode::ProportionalWithReplacement, rng);
  const ReplicaIndex index(grid, placement);
  for (const NodeId u : {grid.node(Point{0, 0}), grid.node(Point{5, 0}),
                         grid.node(Point{0, 5}), grid.node(Point{5, 5})}) {
    for (FileId j = 0; j < 9; ++j) {
      Rng r1(99);
      Rng r2(99);
      const NearestResult scan = index.nearest_by_scan(u, j, r1);
      const NearestResult shells = index.nearest_by_shells(u, j, r2);
      EXPECT_EQ(scan.server == kInvalidNode, shells.server == kInvalidNode);
      if (scan.server != kInvalidNode) {
        EXPECT_EQ(scan.distance, shells.distance) << "u=" << u << " j=" << j;
        EXPECT_EQ(scan.ties, shells.ties) << "u=" << u << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace proxcache
