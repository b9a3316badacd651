// Tests for spatial/bucket_grid and spatial/packed_coord: the packed
// distance kernel equals Lattice::distance, radius queries agree exactly
// with a brute-force distance filter across wrap modes, cell sizes and
// radii, and the flat grids emit the very sequence the per-set grids they
// replaced did, which least-loaded(r) and two-choice(r) tie-break on.
#include "spatial/bucket_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "catalog/placement.hpp"
#include "catalog/popularity.hpp"
#include "random/rng.hpp"
#include "spatial/packed_coord.hpp"
#include "spatial/replica_index.hpp"

namespace proxcache {
namespace {

/// Flat grids over the single set `points`.
BucketGrids grids_of(const Lattice& lattice, const std::vector<NodeId>& points,
                     std::int32_t cell_hint = 0) {
  return BucketGrids(
      lattice, 1, [&points](std::size_t) { return std::span(points); }, 0,
      cell_hint);
}

std::vector<NodeId> query(const BucketGrids& grids, NodeId center, Hop r) {
  std::vector<NodeId> out;
  grids.for_each_within(0, center, r, [&](NodeId v, Hop) { out.push_back(v); });
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

TEST(PackedCoord, DistanceEqualsTheLatticeOnEveryPairOfSmallLattices) {
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    for (std::int32_t side = 1; side <= 9; ++side) {
      const Lattice lattice(side, wrap);
      for (NodeId u = 0; u < lattice.size(); ++u) {
        const PackedDistance distance(lattice, lattice.coord(u));
        for (NodeId v = 0; v < lattice.size(); ++v) {
          const PackedCoord c = pack_coord(lattice.coord(v));
          EXPECT_EQ(distance(c), lattice.distance(u, v))
              << to_string(wrap) << " side=" << side << " u=" << u
              << " v=" << v;
          EXPECT_EQ(packed_node(c, side), v);
        }
      }
    }
  }
}

TEST(PackedCoord, DistanceEqualsTheLatticeAtTheCornersAndEdgesOfSide8192) {
  constexpr std::int32_t kSide = 8192;
  std::vector<Point> probes;
  for (const std::int32_t a : {0, 1, kSide / 2 - 1, kSide / 2, kSide / 2 + 1,
                               kSide - 2, kSide - 1}) {
    for (const std::int32_t b : {0, 1, kSide / 2, kSide - 2, kSide - 1}) {
      probes.push_back(Point{a, b});
      probes.push_back(Point{b, a});
    }
  }
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    const Lattice lattice(kSide, wrap);
    for (const Point pu : probes) {
      const NodeId u = lattice.node(pu);
      const PackedDistance distance(lattice, pu);
      std::vector<PackedCoord> coords;
      std::vector<NodeId> ids;
      for (const Point pv : probes) {
        const PackedCoord c = pack_coord(pv);
        EXPECT_EQ(packed_x(c), pv.x);
        EXPECT_EQ(packed_y(c), pv.y);
        EXPECT_EQ(packed_node(c, kSide), lattice.node(pv));
        EXPECT_EQ(distance(c), lattice.distance(u, lattice.node(pv)));
        coords.push_back(c);
        ids.push_back(lattice.node(pv));
      }
      // The vectorized fill reports the same distances, in order.
      std::vector<Hop> filled(coords.size());
      distance.fill(coords, filled);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(filled[i], lattice.distance(u, ids[i]));
      }
    }
  }
}

TEST(PackedCoord, DividerIsExactOverTheWholeRange) {
  std::vector<std::uint32_t> divisors = {1, 2, 3, 7, 45, 150, 255, 256,
                                         257, 8191, 8192, 65534, 65535};
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    divisors.push_back(static_cast<std::uint32_t>(1 + rng.below(65535)));
  }
  for (const std::uint32_t d : divisors) {
    const Divider divide(d);
    std::vector<std::uint32_t> numerators = {0, 1, d - 1, d, d + 1,
                                             0xFFFFFFFFu, 0xFFFFFFFEu,
                                             0xFFFFFFFFu - d};
    // Every multiple of d near the top of the range and its neighbours.
    const std::uint32_t top = 0xFFFFFFFFu / d * d;
    for (const std::uint32_t base : {d * 1000u, top - d, top}) {
      numerators.push_back(base - 1);
      numerators.push_back(base);
      numerators.push_back(base + 1);
    }
    for (int i = 0; i < 2000; ++i) {
      numerators.push_back(static_cast<std::uint32_t>(rng.bits()));
    }
    for (const std::uint32_t x : numerators) {
      ASSERT_EQ(divide(x), x / d) << "x=" << x << " d=" << d;
    }
  }
  const Lattice lattice(45, Wrap::Torus);
  const Divider by_side(45);
  for (NodeId v = 0; v < lattice.size(); ++v) {
    EXPECT_EQ(by_side.coord(v), lattice.coord(v)) << v;
  }
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
  const BucketGrids grids = grids_of(lattice, points, cell_hint);
  ASSERT_TRUE(grids.has_grid(0));
  EXPECT_EQ(grids.size(0), points.size());
  for (const NodeId center : {NodeId{0}, NodeId{77}, NodeId{143}}) {
    for (const Hop r : {0u, 1u, 2u, 3u, 5u, 8u, 12u, 24u, 100u}) {
      EXPECT_EQ(query(grids, center, r), brute(lattice, points, center, r))
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
  const BucketGrids grids = grids_of(lattice, {});
  ASSERT_TRUE(grids.has_grid(0));
  EXPECT_EQ(grids.size(0), 0u);
  int visits = 0;
  grids.for_each_within(0, 0, 10, [&](NodeId, Hop) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(BucketGrid, DuplicatePointsAreAllReported) {
  const Lattice lattice(5, Wrap::Torus);
  const std::vector<NodeId> points = {7, 7, 7};
  const BucketGrids grids = grids_of(lattice, points);
  int visits = 0;
  grids.for_each_within(0, 7, 0, [&](NodeId v, Hop d) {
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
  const BucketGrids grids = grids_of(lattice, all);
  grids.for_each_within(0, 40, 4, [&](NodeId v, Hop d) {
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
  const BucketGrids grids = grids_of(lattice, all, 2);
  std::multiset<NodeId> seen;
  grids.for_each_within(0, 0, lattice.diameter(), [&](NodeId v, Hop) {
    seen.insert(v);
  });
  EXPECT_EQ(seen.size(), lattice.size());
  for (const NodeId v : seen) EXPECT_EQ(seen.count(v), 1u);
}

TEST(BucketGrid, OnlySetsOfAtLeastMinPointsGetAGrid) {
  const Lattice lattice(8, Wrap::Grid);
  const std::vector<std::vector<NodeId>> sets = {
      {1, 2, 3}, {}, {5, 9}, {4, 4, 4, 4}, {63}};
  const BucketGrids grids(
      lattice, sets.size(), [&sets](std::size_t s) { return std::span(sets[s]); },
      3);
  for (std::size_t s = 0; s < sets.size(); ++s) {
    EXPECT_EQ(grids.has_grid(s), sets[s].size() >= 3) << "set " << s;
  }
  EXPECT_EQ(grids.size(0), 3u);
  EXPECT_EQ(grids.size(3), 4u);
  EXPECT_FALSE(BucketGrids().has_grid(0));
}

/// The per-set grid the flat grids replaced, kept verbatim as the order
/// reference: its own offsets and node ids per set, distances through
/// `Lattice::distance_from`.
class ReferenceGrid {
 public:
  ReferenceGrid(const Lattice& lattice, std::span<const NodeId> points)
      : lattice_(&lattice) {
    const double target = static_cast<double>(lattice.side()) /
                          std::sqrt(static_cast<double>(
                              std::max<std::size_t>(points.size(), 1)));
    cell_ = std::max<std::int32_t>(1, static_cast<std::int32_t>(target));
    cell_ = std::min(cell_, lattice.side());
    if (lattice.wrap() == Wrap::Torus) {
      while (lattice.side() % cell_ != 0) --cell_;
    }
    cells_per_axis_ = (lattice.side() + cell_ - 1) / cell_;
    const std::size_t num_cells = static_cast<std::size_t>(cells_per_axis_) *
                                  static_cast<std::size_t>(cells_per_axis_);
    offsets_.assign(num_cells + 1, 0);
    std::vector<std::uint32_t> cell_of(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point pt = lattice.coord(points[i]);
      cell_of[i] = static_cast<std::uint32_t>(pt.y / cell_) *
                       static_cast<std::uint32_t>(cells_per_axis_) +
                   static_cast<std::uint32_t>(pt.x / cell_);
      ++offsets_[cell_of[i] + 1];
    }
    for (std::size_t i = 0; i < num_cells; ++i) offsets_[i + 1] += offsets_[i];
    points_.resize(points.size());
    std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      points_[cursor[cell_of[i]]++] = points[i];
    }
  }

  [[nodiscard]] std::vector<std::pair<NodeId, Hop>> within(NodeId center,
                                                           Hop r) const {
    std::vector<std::pair<NodeId, Hop>> out;
    const Point c = lattice_->coord(center);
    const auto radius = static_cast<std::int32_t>(
        std::min<Hop>(r, lattice_->diameter()));
    std::int32_t lo_cx = floor_div(c.x - radius, cell_);
    std::int32_t hi_cx = floor_div(c.x + radius, cell_);
    std::int32_t lo_cy = floor_div(c.y - radius, cell_);
    std::int32_t hi_cy = floor_div(c.y + radius, cell_);
    if (lattice_->wrap() == Wrap::Grid) {
      lo_cx = std::max(lo_cx, 0);
      lo_cy = std::max(lo_cy, 0);
      hi_cx = std::min(hi_cx, cells_per_axis_ - 1);
      hi_cy = std::min(hi_cy, cells_per_axis_ - 1);
      if (lo_cx > hi_cx || lo_cy > hi_cy) return out;
    }
    const std::int32_t span_x = std::min(hi_cx - lo_cx + 1, cells_per_axis_);
    const std::int32_t span_y = std::min(hi_cy - lo_cy + 1, cells_per_axis_);
    for (std::int32_t dy = 0; dy < span_y; ++dy) {
      for (std::int32_t dx = 0; dx < span_x; ++dx) {
        const std::int32_t cx = wrap_cell(lo_cx + dx);
        const std::int32_t cy = wrap_cell(lo_cy + dy);
        const std::size_t cell_index =
            static_cast<std::size_t>(cy) *
                static_cast<std::size_t>(cells_per_axis_) +
            static_cast<std::size_t>(cx);
        for (std::uint32_t i = offsets_[cell_index];
             i < offsets_[cell_index + 1]; ++i) {
          const NodeId point = points_[i];
          const Hop d = lattice_->distance_from(c, point);
          if (d <= r) out.emplace_back(point, d);
        }
      }
    }
    return out;
  }

 private:
  static std::int32_t floor_div(std::int32_t a, std::int32_t b) {
    std::int32_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }

  [[nodiscard]] std::int32_t wrap_cell(std::int32_t c) const {
    if (lattice_->wrap() == Wrap::Grid) return c;
    c %= cells_per_axis_;
    if (c < 0) c += cells_per_axis_;
    return c;
  }

  const Lattice* lattice_;
  std::int32_t cell_;
  std::int32_t cells_per_axis_;
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> points_;
};

// Random (origin, file, radius) queries through the index's flat grids
// must emit exactly the reference grid's sequence, on sides that the
// torus cell rounding treats differently (150 = 2·3·5², 97 prime).
TEST(BucketGrid, FlatGridsEmitThePerFileSequence) {
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    for (const std::int32_t side : {40, 97, 150}) {
      const Lattice lattice(side, wrap);
      Rng rng(static_cast<std::uint64_t>(side) * 3 + (wrap == Wrap::Grid));
      const Placement placement = Placement::generate(
          lattice.size(), Popularity::zipf(60, 0.8), 12,
          PlacementMode::ProportionalWithReplacement, rng);
      const std::size_t threshold = lattice.size() / 40;
      const ReplicaIndex index(lattice, placement,
                               ReplicaIndex::Plan{threshold});
      std::size_t gridded = 0;
      std::size_t emitted = 0;
      for (FileId j = 0; j < placement.num_files(); ++j) {
        const auto list = placement.replicas(j);
        ASSERT_EQ(index.has_bucket_grid(j), list.size() >= threshold);
        if (!index.has_bucket_grid(j)) continue;
        ++gridded;
        const ReferenceGrid reference(lattice, list);
        for (int q = 0; q < 40; ++q) {
          const auto u = static_cast<NodeId>(rng.below(lattice.size()));
          const auto r = static_cast<Hop>(rng.below(lattice.diameter()));
          std::vector<std::pair<NodeId, Hop>> got;
          index.for_each_replica_within(
              u, j, r, [&](NodeId v, Hop d) { got.emplace_back(v, d); });
          const auto want = reference.within(u, r);
          ASSERT_EQ(got, want) << to_string(wrap) << " side=" << side
                               << " j=" << j << " u=" << u << " r=" << r;
          emitted += got.size();
        }
      }
      EXPECT_GE(gridded, 2u) << "too few grids to cross a set boundary";
      EXPECT_GT(emitted, 0u);
    }
  }
}

}  // namespace
}  // namespace proxcache
