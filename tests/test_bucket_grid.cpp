// Tests for spatial/bucket_grid: radius queries must agree exactly with a
// brute-force distance filter across wrap modes, cell sizes and radii.
#include "spatial/bucket_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "random/rng.hpp"

namespace proxcache {
namespace {

std::vector<NodeId> query(const BucketGrid& grid, NodeId center, Hop r) {
  std::vector<NodeId> out;
  grid.for_each_within(center, r, [&](NodeId v, Hop) { out.push_back(v); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> brute(const Lattice& lattice,
                          const std::vector<NodeId>& points, NodeId center,
                          Hop r) {
  std::vector<NodeId> out;
  for (const NodeId p : points) {
    if (lattice.distance(center, p) <= r) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class BucketGridTest
    : public ::testing::TestWithParam<std::tuple<Wrap, int>> {};

TEST_P(BucketGridTest, MatchesBruteForceAcrossRadii) {
  const auto [wrap, cell_hint] = GetParam();
  const Lattice lattice(12, wrap);
  Rng rng(42);
  std::vector<NodeId> points;
  for (NodeId u = 0; u < lattice.size(); ++u) {
    if (rng.bernoulli(0.3)) points.push_back(u);
  }
  const BucketGrid grid(lattice, points, cell_hint);
  EXPECT_EQ(grid.size(), points.size());
  for (const NodeId center : {NodeId{0}, NodeId{77}, NodeId{143}}) {
    for (const Hop r : {0u, 1u, 2u, 3u, 5u, 8u, 12u, 24u, 100u}) {
      EXPECT_EQ(query(grid, center, r), brute(lattice, points, center, r))
          << "wrap=" << to_string(wrap) << " cell=" << cell_hint
          << " center=" << center << " r=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WrapAndCell, BucketGridTest,
    ::testing::Combine(::testing::Values(Wrap::Torus, Wrap::Grid),
                       ::testing::Values(0, 1, 2, 5, 12)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_cell" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BucketGrid, EmptyPointSet) {
  const Lattice lattice(6, Wrap::Torus);
  const BucketGrid grid(lattice, {});
  EXPECT_EQ(grid.size(), 0u);
  int visits = 0;
  grid.for_each_within(0, 10, [&](NodeId, Hop) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(BucketGrid, DuplicatePointsAreAllReported) {
  const Lattice lattice(5, Wrap::Torus);
  const std::vector<NodeId> points = {7, 7, 7};
  const BucketGrid grid(lattice, points);
  int visits = 0;
  grid.for_each_within(7, 0, [&](NodeId v, Hop d) {
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(d, 0u);
    ++visits;
  });
  EXPECT_EQ(visits, 3);
}

TEST(BucketGrid, ReportedDistancesAreExact) {
  const Lattice lattice(9, Wrap::Torus);
  std::vector<NodeId> all(lattice.size());
  for (NodeId u = 0; u < lattice.size(); ++u) all[u] = u;
  const BucketGrid grid(lattice, all);
  grid.for_each_within(40, 4, [&](NodeId v, Hop d) {
    EXPECT_EQ(d, lattice.distance(40, v));
    EXPECT_LE(d, 4u);
  });
}

TEST(BucketGrid, EachPointVisitedOnceOnWrappingQuery) {
  // Radius covering the whole torus: the cell box clamps to the axis count
  // so no cell (and no point) is visited twice.
  const Lattice lattice(6, Wrap::Torus);
  std::vector<NodeId> all(lattice.size());
  for (NodeId u = 0; u < lattice.size(); ++u) all[u] = u;
  const BucketGrid grid(lattice, all, 2);
  std::multiset<NodeId> seen;
  grid.for_each_within(0, lattice.diameter(), [&](NodeId v, Hop) {
    seen.insert(v);
  });
  EXPECT_EQ(seen.size(), lattice.size());
  for (const NodeId v : seen) EXPECT_EQ(seen.count(v), 1u);
}

}  // namespace
}  // namespace proxcache
