// Tests for spatial/replica_index: the nearest-replica paths must agree with
// each other and with brute force (distance and tie count), both shell
// replays must equal the shell walk draw for draw, radius streams must
// match the distance predicate with and without bucket grids, and a run
// builds only the grids and coordinates its strategy's passes read.
#include "spatial/replica_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/nearest_replica.hpp"
#include "core/run_harness.hpp"
#include "strategy/registry.hpp"
#include "strategy/spec.hpp"
#include "topology/spec.hpp"

namespace proxcache {
namespace {

/// A two-file placement: every node caches file 0, and file 1 sits exactly
/// on `holders`. Composed from one-node parts, so a test can lay out a tie
/// set of any shape.
Placement placement_with_holders(std::size_t n,
                                 const std::vector<NodeId>& holders) {
  Rng rng(1);
  // Zipf with a huge exponent puts all the mass on file 0.
  const Placement file0_only =
      Placement::generate(1, Popularity::zipf(2, 60.0), 1,
                          PlacementMode::DistinctProportional, rng);
  const Placement both =
      Placement::full(1, 2, PlacementMode::DistinctProportional);
  std::vector<Placement> parts(n, file0_only);
  for (const NodeId v : holders) parts[v] = both;
  return Placement::compose(parts);
}

/// `a` and `b` agree in every field of the result.
void expect_same_nearest(const NearestResult& a, const NearestResult& b) {
  EXPECT_EQ(a.server, b.server);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.ties, b.ties);
}

struct Fixture {
  Fixture(std::size_t n, std::size_t k, std::size_t m, Wrap wrap,
          std::uint64_t seed, std::size_t bucket_threshold = 512)
      : lattice(Lattice::from_node_count(n, wrap)),
        placement([&] {
          Rng rng(seed);
          return Placement::generate(
              n, Popularity::uniform(k), m,
              PlacementMode::ProportionalWithReplacement, rng);
        }()),
        index(lattice, placement, ReplicaIndex::Plan{bucket_threshold}) {}

  Lattice lattice;
  Placement placement;
  ReplicaIndex index;
};

struct BruteNearest {
  Hop distance = 0;
  std::uint32_t ties = 0;
  bool found = false;
};

BruteNearest brute_nearest(const Fixture& f, NodeId u, FileId j) {
  BruteNearest result;
  Hop best = f.lattice.diameter() + 1;
  for (const NodeId v : f.placement.replicas(j)) {
    const Hop d = f.lattice.distance(u, v);
    if (d < best) {
      best = d;
      result.ties = 1;
    } else if (d == best) {
      ++result.ties;
    }
  }
  if (result.ties > 0) {
    result.found = true;
    result.distance = best;
  }
  return result;
}

class ReplicaIndexParamTest
    : public ::testing::TestWithParam<std::tuple<Wrap, int>> {};

TEST_P(ReplicaIndexParamTest, BothAlgorithmsMatchBruteForce) {
  const auto [wrap, m] = GetParam();
  Fixture f(49, 12, static_cast<std::size_t>(m), wrap, 77);
  Rng rng(1);
  for (NodeId u = 0; u < f.lattice.size(); u += 5) {
    for (FileId j = 0; j < 12; ++j) {
      const BruteNearest expected = brute_nearest(f, u, j);
      const NearestResult by_scan = f.index.nearest_by_scan(u, j, rng);
      const NearestResult by_shells = f.index.nearest_by_shells(u, j, rng);
      const NearestResult by_replay = f.index.nearest_by_replay(u, j, rng);
      const NearestResult by_rows = f.index.nearest_by_rows(u, j, rng);
      const NearestResult automatic = f.index.nearest(u, j, rng);
      if (!expected.found) {
        EXPECT_EQ(by_scan.server, kInvalidNode);
        EXPECT_EQ(by_shells.server, kInvalidNode);
        EXPECT_EQ(by_replay.server, kInvalidNode);
        EXPECT_EQ(by_rows.server, kInvalidNode);
        EXPECT_EQ(automatic.server, kInvalidNode);
        continue;
      }
      for (const NearestResult& result :
           {by_scan, by_shells, by_replay, by_rows, automatic}) {
        ASSERT_NE(result.server, kInvalidNode);
        EXPECT_EQ(result.distance, expected.distance);
        EXPECT_EQ(result.ties, expected.ties);
        EXPECT_TRUE(f.placement.caches(result.server, j));
        EXPECT_EQ(f.lattice.distance(u, result.server), expected.distance);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WrapAndCache, ReplicaIndexParamTest,
    ::testing::Combine(::testing::Values(Wrap::Torus, Wrap::Grid),
                       ::testing::Values(1, 3, 8)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_M" +
             std::to_string(std::get<1>(info.param));
    });

// Both replays must reproduce the walk draw for draw: same server,
// distance and ties, and the Rng left in the same state (checked on its
// next bits()). Comparing results alone would let a reordered draw through.
// `nearest()` must likewise equal the scan at |S_j|² <= n and the walk
// above it, whichever of its three paths answers there (list replay, row
// replay or the walk itself), which is what keeps the golden masters
// unchanged. Each layout runs under the three coordinate plans: in-band
// coordinates (the plan a `nearest` run builds), coordinates for every
// file (a streaming run's, whose fallback asks `nearest()`) and none.
// Parameters: wrap, side, M and K. The K = 200 layouts at side 64 put every
// file past the list replay's band and under n / kRowReplaySpacing, so
// `nearest()` runs the row replay there; the M = 8 layouts at side 7 and
// above are past it but denser than that, so `nearest()` walks.
class ReplayParamTest
    : public ::testing::TestWithParam<std::tuple<Wrap, int, int, int>> {};

TEST_P(ReplayParamTest, ReplayMatchesTheWalkDrawForDraw) {
  using Coordinates = ReplicaIndex::Coordinates;
  const auto [wrap, side, m, k] = GetParam();
  const auto n =
      static_cast<std::size_t>(side) * static_cast<std::size_t>(side);
  const auto files = static_cast<FileId>(k);
  Fixture f(n, files, static_cast<std::size_t>(m), wrap, 91 + side);
  // Every origin on the small lattices; a spread of them on the large one.
  const NodeId stride = n > 256 ? 31 : 1;
  std::size_t row_band_files = 0;
  for (FileId j = 0; j < files; ++j) {
    const std::size_t replicas = f.placement.replica_count(j);
    if (replicas * replicas > ReplicaIndex::kReplayDensity * n &&
        replicas * ReplicaIndex::kRowReplaySpacing <= n) {
      ++row_band_files;
    }
  }
  if (k == 200) {
    EXPECT_EQ(row_band_files, files) << "a file fell outside the row band";
  }
  for (const Coordinates coordinates :
       {Coordinates::InBand, Coordinates::WithoutGrid, Coordinates::None}) {
    const ReplicaIndex index(f.lattice, f.placement, {0, coordinates});
    const auto plan = static_cast<int>(coordinates);
    std::size_t with_coordinates = 0;
    std::size_t without_coordinates = 0;
    for (FileId j = 0; j < files; ++j) {
      const std::size_t replicas = f.placement.replica_count(j);
      if (replicas == 0) continue;
      const bool band = replicas * replicas <= ReplicaIndex::kReplayDensity * n;
      ASSERT_EQ(index.has_coordinates(j),
                coordinates == Coordinates::WithoutGrid ||
                    (coordinates == Coordinates::InBand && band))
          << "plan " << plan << " j=" << j;
      ++(index.has_coordinates(j) ? with_coordinates : without_coordinates);
    }
    Rng stream(17);
    std::size_t multi_ties = 0;
    for (NodeId u = 0; u < n; u += stride) {
      for (FileId j = 0; j < files; ++j) {
        stream.bits();
        Rng walk_rng = stream;
        Rng replay_rng = stream;
        Rng rows_rng = stream;
        const NearestResult walk = index.nearest_by_shells(u, j, walk_rng);
        const NearestResult replay = index.nearest_by_replay(u, j, replay_rng);
        const NearestResult rows = index.nearest_by_rows(u, j, rows_rng);
        expect_same_nearest(replay, walk);
        expect_same_nearest(rows, walk);
        const std::uint64_t next = walk_rng.bits();
        EXPECT_EQ(replay_rng.bits(), next)
            << "plan " << plan << " u=" << u << " j=" << j;
        EXPECT_EQ(rows_rng.bits(), next)
            << "plan " << plan << " u=" << u << " j=" << j;
        if (walk.ties >= 2) ++multi_ties;

        const std::size_t replicas = f.placement.replica_count(j);
        Rng reference_rng = stream;
        Rng automatic_rng = stream;
        const NearestResult reference =
            replicas * replicas <= n
                ? index.nearest_by_scan(u, j, reference_rng)
                : index.nearest_by_shells(u, j, reference_rng);
        const NearestResult automatic = index.nearest(u, j, automatic_rng);
        expect_same_nearest(automatic, reference);
        EXPECT_EQ(automatic_rng.bits(), reference_rng.bits())
            << "plan " << plan << " u=" << u << " j=" << j;
      }
    }
    if (side >= 7) {
      EXPECT_GT(multi_ties, 0u) << "no tie set was exercised";
    }
    if (k == 131 && coordinates == Coordinates::InBand) {
      EXPECT_GT(with_coordinates, 0u) << "no file with coordinates";
      EXPECT_GT(without_coordinates, 0u) << "no file without coordinates";
    }
  }
}

std::string replay_param_name(
    const ::testing::TestParamInfo<ReplayParamTest::ParamType>& info) {
  const auto [wrap, side, m, k] = info.param;
  return to_string(wrap) + "_side" + std::to_string(side) + "_M" +
         std::to_string(m) + (k == 12 ? "" : "_K" + std::to_string(k));
}

INSTANTIATE_TEST_SUITE_P(
    WrapSideAndCache, ReplayParamTest,
    ::testing::Combine(::testing::Values(Wrap::Torus, Wrap::Grid),
                       ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16),
                       ::testing::Values(1, 3, 8), ::testing::Values(12)),
    replay_param_name);

INSTANTIATE_TEST_SUITE_P(
    RowBand, ReplayParamTest,
    ::testing::Values(std::make_tuple(Wrap::Torus, 64, 10, 200),
                      std::make_tuple(Wrap::Grid, 64, 10, 200)),
    replay_param_name);

// |S_j| ≈ 75 ± 8 at n = 1024: files on both sides of the coordinate band's
// edge (|S_j|² = kReplayDensity·n, |S_j| ≈ 78), so under the in-band plan
// the list replay runs from packed coordinates on some and through the
// lattice kernel on others (asserted through `has_coordinates`).
INSTANTIATE_TEST_SUITE_P(
    CoordinateBandEdge, ReplayParamTest,
    ::testing::Values(std::make_tuple(Wrap::Torus, 32, 10, 131),
                      std::make_tuple(Wrap::Grid, 32, 10, 131)),
    replay_param_name);

TEST(ReplicaIndex, ReplayFallsBackToTheWalkWhenTiesOverflow) {
  // File 1 on the whole shell at distance 9 around the center of a side-20
  // lattice: 36 ties, more than the replays' stack buffer holds, and 36² is
  // inside the list replay's density band, so nearest() takes that replay
  // too. The first kReplayTies of them fill the buffer exactly.
  constexpr std::int32_t kSide = 20;
  constexpr Hop kRadius = 9;
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    const Lattice lattice(kSide, wrap);
    const NodeId center = lattice.node(Point{kSide / 2, kSide / 2});
    const std::vector<NodeId> shell = collect_shell(lattice, center, kRadius);
    ASSERT_GT(shell.size(), ReplicaIndex::kReplayTies);
    const std::vector<NodeId> full_buffer(
        shell.begin(), shell.begin() + ReplicaIndex::kReplayTies);
    for (const auto& holders : {shell, full_buffer}) {
      const Placement placement =
          placement_with_holders(lattice.size(), holders);
      std::vector<NodeId> sorted = holders;
      std::sort(sorted.begin(), sorted.end());
      const auto replicas = placement.replicas(1);
      ASSERT_EQ(std::vector<NodeId>(replicas.begin(), replicas.end()), sorted);
      const std::size_t density = holders.size() * holders.size();
      ASSERT_GT(density, lattice.size());
      ASSERT_LE(density, ReplicaIndex::kReplayDensity * lattice.size());

      const ReplicaIndex index(lattice, placement);
      for (std::uint64_t seed = 0; seed < 64; ++seed) {
        Rng walk_rng(seed);
        Rng replay_rng(seed);
        Rng rows_rng(seed);
        Rng automatic_rng(seed);
        const NearestResult walk = index.nearest_by_shells(center, 1, walk_rng);
        EXPECT_EQ(walk.ties, holders.size());
        EXPECT_EQ(walk.distance, kRadius);
        expect_same_nearest(index.nearest_by_replay(center, 1, replay_rng),
                            walk);
        expect_same_nearest(index.nearest_by_rows(center, 1, rows_rng), walk);
        expect_same_nearest(index.nearest(center, 1, automatic_rng), walk);
        const std::uint64_t next = walk_rng.bits();
        EXPECT_EQ(replay_rng.bits(), next);
        EXPECT_EQ(rows_rng.bits(), next);
        EXPECT_EQ(automatic_rng.bits(), next);
      }
    }
  }
}

TEST(ReplicaIndex, TieBreakingIsUniformAcrossReplicas) {
  // Symmetric layout: two replicas equidistant from the requester.
  // Build a placement where file 0 sits at distance 2 both left and right.
  Fixture f(25, 4, 2, Wrap::Torus, 123);
  // Find a (u, j) with >= 2 ties; then sample many times.
  Rng scan_rng(5);
  for (NodeId u = 0; u < 25; ++u) {
    for (FileId j = 0; j < 4; ++j) {
      const NearestResult probe = f.index.nearest_by_scan(u, j, scan_rng);
      if (probe.server == kInvalidNode || probe.ties < 2) continue;
      std::map<NodeId, int> histogram;
      Rng rng(9);
      constexpr int kTrials = 4000;
      for (int t = 0; t < kTrials; ++t) {
        histogram[f.index.nearest_by_scan(u, j, rng).server]++;
      }
      EXPECT_EQ(histogram.size(), probe.ties);
      for (const auto& [server, count] : histogram) {
        EXPECT_NEAR(static_cast<double>(count) / kTrials,
                    1.0 / probe.ties, 0.05)
            << "server " << server;
      }
      return;  // one verified case suffices
    }
  }
  GTEST_SKIP() << "no tie found in this placement (unexpected)";
}

TEST(ReplicaIndex, RadiusStreamMatchesPredicateWithAndWithoutBuckets) {
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
    // threshold 1 forces bucket grids everywhere; 0 disables them.
    Fixture f(100, 6, 3, Wrap::Torus, 31, threshold);
    for (NodeId u = 0; u < 100; u += 9) {
      for (FileId j = 0; j < 6; ++j) {
        for (const Hop r : {0u, 1u, 3u, 6u, 10u, 100u}) {
          std::vector<NodeId> streamed;
          f.index.for_each_replica_within(u, j, r, [&](NodeId v, Hop d) {
            EXPECT_EQ(d, f.lattice.distance(u, v));
            EXPECT_LE(d, r);
            streamed.push_back(v);
          });
          std::vector<NodeId> expected;
          for (const NodeId v : f.placement.replicas(j)) {
            if (f.lattice.distance(u, v) <= r) expected.push_back(v);
          }
          std::sort(streamed.begin(), streamed.end());
          std::sort(expected.begin(), expected.end());
          EXPECT_EQ(streamed, expected)
              << "threshold=" << threshold << " u=" << u << " j=" << j
              << " r=" << r;
        }
      }
    }
  }
}

/// The list scan as it was before packed coordinates: list order, one
/// `Lattice::distance` per replica, the reservoir restarting at every new
/// minimum.
NearestResult reference_scan(const Lattice& lattice,
                             std::span<const NodeId> list, NodeId u,
                             Rng& rng) {
  Hop best = lattice.diameter() + 1;
  ReservoirOne reservoir(rng);
  for (const NodeId v : list) {
    const Hop d = lattice.distance(u, v);
    if (d < best) {
      best = d;
      reservoir = ReservoirOne(rng);
      reservoir.offer(v);
    } else if (d == best) {
      reservoir.offer(v);
    }
  }
  NearestResult result;
  result.server = *reservoir.value();
  result.distance = best;
  result.ties = static_cast<std::uint32_t>(reservoir.count());
  return result;
}

// Without grids, radius and unbounded streams emit the replica list's own
// order filtered by distance, and the list scan draws exactly as a plain
// scan, on both sides of the coordinate band's edge (|S_j| ≈ 150 ± 12
// against 156 at n = 4096) and across the chunks, whether a file's
// distances come from packed coordinates or from the lattice kernel.
TEST(ReplicaIndex, ListPassesKeepListOrderOnBothSidesOfTheCoordinateBand) {
  using Coordinates = ReplicaIndex::Coordinates;
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    Fixture f(4096, 273, 10, wrap, 5, /*bucket_threshold=*/0);
    const std::size_t n = f.lattice.size();
    for (const Coordinates coordinates :
         {Coordinates::WithoutGrid, Coordinates::InBand, Coordinates::None}) {
      const ReplicaIndex index(f.lattice, f.placement, {0, coordinates});
      std::size_t in_band = 0;
      std::size_t past_band = 0;
      Rng stream(23);
      for (FileId j = 0; j < 273; ++j) {
        const auto list = f.placement.replicas(j);
        if (list.empty()) continue;
        const bool band =
            list.size() * list.size() <= ReplicaIndex::kReplayDensity * n;
        ++(band ? in_band : past_band);
        ASSERT_EQ(index.has_coordinates(j),
                  coordinates == Coordinates::WithoutGrid ||
                      (coordinates == Coordinates::InBand && band));
        for (NodeId u = j % 61; u < n; u += 61) {
          for (const Hop r : {0u, 3u, 8u, 20u, kUnboundedRadius}) {
            std::vector<std::pair<NodeId, Hop>> got;
            index.for_each_replica_within(
                u, j, r, [&](NodeId v, Hop d) { got.emplace_back(v, d); });
            std::vector<std::pair<NodeId, Hop>> want;
            for (const NodeId v : list) {
              const Hop d = f.lattice.distance(u, v);
              if (d <= r) want.emplace_back(v, d);
            }
            ASSERT_EQ(got, want) << to_string(wrap) << " j=" << j
                                 << " u=" << u << " r=" << r;
          }
          stream.bits();
          Rng scan_rng = stream;
          Rng reference_rng = stream;
          expect_same_nearest(
              index.nearest_by_scan(u, j, scan_rng),
              reference_scan(f.lattice, list, u, reference_rng));
          ASSERT_EQ(scan_rng.bits(), reference_rng.bits())
              << to_string(wrap) << " j=" << j << " u=" << u;
        }
      }
      EXPECT_GT(in_band, 0u);
      EXPECT_GT(past_band, 0u);
    }
  }
}

TEST(ReplicaIndex, CountMatchesStream) {
  Fixture f(36, 5, 2, Wrap::Grid, 8);
  for (NodeId u = 0; u < 36; u += 7) {
    for (FileId j = 0; j < 5; ++j) {
      for (const Hop r : {0u, 2u, 5u, 50u}) {
        std::size_t streamed = 0;
        f.index.for_each_replica_within(u, j, r,
                                        [&](NodeId, Hop) { ++streamed; });
        EXPECT_EQ(f.index.count_replicas_within(u, j, r), streamed);
      }
    }
  }
}

TEST(ReplicaIndex, UnboundedRadiusStreamsWholeReplicaList) {
  Fixture f(49, 8, 4, Wrap::Torus, 55);
  for (FileId j = 0; j < 8; ++j) {
    std::size_t streamed = 0;
    f.index.for_each_replica_within(3, j, kUnboundedRadius,
                                    [&](NodeId, Hop) { ++streamed; });
    EXPECT_EQ(streamed, f.placement.replica_count(j));
  }
}

TEST(ReplicaIndex, BucketGridsBuiltOnlyAboveThreshold) {
  Fixture f(400, 4, 3, Wrap::Torus, 2, /*bucket_threshold=*/100);
  for (FileId j = 0; j < 4; ++j) {
    EXPECT_EQ(f.index.has_bucket_grid(j),
              f.placement.replica_count(j) >= 100)
        << "file " << j << " has " << f.placement.replica_count(j);
  }
}

// A run builds only what its strategy's declared passes read: bucket grids
// for a streamed radius below the diameter; packed coordinates for every
// file without a grid when it streams lists, for the in-band files
// (|S_j|² <= 6n) when it only asks nearest(), none when it only samples.
// The Zipf placement puts files on every side of both cut-offs.
TEST(ReplicaIndex, RunsBuildOnlyTheGridsAndCoordinatesTheirPassesRead) {
  const char* const undeclared = "test-undeclared-passes";
  if (StrategyRegistry::global().find(undeclared) == nullptr) {
    StrategyRegistry::global().add(
        {undeclared,
         "test-only: nearest replica, no index passes declared",
         {},
         [](const StrategySpec&, const ReplicaIndex& index, const Topology&,
            const ExperimentConfig&) -> std::unique_ptr<Strategy> {
           return std::make_unique<NearestReplicaStrategy>(index);
         }});
  }
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=40)");
  config.num_files = 200;
  config.cache_size = 10;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.0;
  using Coordinates = ReplicaIndex::Coordinates;
  struct Case {
    const char* strategy;
    bool grids;
    Coordinates coordinates;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"nearest", false, Coordinates::InBand},
           {"two-choice", false, Coordinates::None},
           {"two-choice(r=inf)", false, Coordinates::None},
           {"two-choice(r=40)", false, Coordinates::None},
           {"cross-two-choice", false, Coordinates::None},
           {"prox-weighted", false, Coordinates::WithoutGrid},
           {"least-loaded", false, Coordinates::WithoutGrid},
           {"least-loaded(r=8)", true, Coordinates::WithoutGrid},
           {"two-choice(r=8)", true, Coordinates::WithoutGrid},
           {"two-choice(r=39)", true, Coordinates::WithoutGrid},
           {undeclared, true, Coordinates::WithoutGrid}}) {
    config.strategy_spec = parse_strategy_spec(c.strategy);
    // The cross-tier entries refuse a flat run, so only their plan is
    // checked.
    const ReplicaIndex::Plan plan =
        index_plan(config.strategy_spec, Lattice(40, Wrap::Torus));
    EXPECT_EQ(plan.bucket_threshold != 0, c.grids) << c.strategy;
    EXPECT_EQ(plan.coordinates, c.coordinates) << c.strategy;
    if (StrategyRegistry::global().at(config.strategy_spec.name)
            .requires_tiers) {
      continue;
    }
    const SimulationContext context(config);
    const RunHarness harness(context, 0);
    const std::size_t n = harness.placement.num_nodes();
    std::size_t gridded = 0;
    std::size_t past_band = 0;
    std::size_t in_band = 0;
    for (FileId j = 0; j < config.num_files; ++j) {
      const std::size_t count = harness.placement.replica_count(j);
      const bool grid = c.grids && count >= ReplicaIndex::kBucketThreshold;
      const bool band = count * count <= ReplicaIndex::kReplayDensity * n;
      bool coordinates = count > 0 && !grid;
      if (c.coordinates == Coordinates::InBand) coordinates &= band;
      if (c.coordinates == Coordinates::None) coordinates = false;
      EXPECT_EQ(harness.index.has_bucket_grid(j), grid)
          << c.strategy << " file " << j << " count " << count;
      EXPECT_EQ(harness.index.has_coordinates(j), coordinates)
          << c.strategy << " file " << j << " count " << count;
      gridded += count >= ReplicaIndex::kBucketThreshold ? 1 : 0;
      past_band += !band && count < ReplicaIndex::kBucketThreshold ? 1 : 0;
      in_band += band && count > 0 ? 1 : 0;
    }
    EXPECT_GE(gridded, 2u);
    EXPECT_GE(past_band, 2u);
    EXPECT_GE(in_band, 2u);
  }
}

TEST(ReplicaIndex, MismatchedSizesRejected) {
  const Lattice lattice(5, Wrap::Torus);
  Rng rng(1);
  const Placement placement = Placement::generate(
      16, Popularity::uniform(4), 2,
      PlacementMode::ProportionalWithReplacement, rng);
  EXPECT_THROW(ReplicaIndex(lattice, placement), std::invalid_argument);
}

}  // namespace
}  // namespace proxcache
