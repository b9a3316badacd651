// Statistical validation of Strategy II's core sampling claim: the two
// candidates are a uniform random pair from F_j(u) — the set of replicas
// within radius r — regardless of which query path (list scan, bucket
// grid, global list) produced them. Lemma 3(b)'s proof depends on this.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/two_choice.hpp"
#include "stats/gof.hpp"

namespace proxcache {
namespace {

struct Fixture {
  Fixture(std::size_t n, std::size_t k, std::size_t m, std::uint64_t seed,
          std::size_t bucket_threshold)
      : lattice(Lattice::from_node_count(n, Wrap::Torus)),
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

// Find a (u, j) with a moderate F_j(u) and chi-square the sampled pairs.
void check_pair_uniformity(const Fixture& fixture, Hop radius,
                           std::uint64_t seed) {
  TwoChoiceOptions options;
  options.radius = radius;
  TwoChoiceStrategy strategy(fixture.index, options);
  const LoadTracker tracker(fixture.lattice.size());

  for (NodeId u = 0; u < fixture.lattice.size(); u += 3) {
    for (FileId j = 0; j < fixture.placement.num_files(); ++j) {
      std::vector<NodeId> candidates;
      fixture.index.for_each_replica_within(
          u, j, radius, [&](NodeId v, Hop) { candidates.push_back(v); });
      if (candidates.size() < 4 || candidates.size() > 6) continue;

      std::sort(candidates.begin(), candidates.end());
      std::map<std::pair<NodeId, NodeId>, std::uint64_t> counts;
      strategy.set_observer([&](std::span<const NodeId> pair) {
        NodeId a = pair[0];
        NodeId b = pair[1];
        if (a > b) std::swap(a, b);
        ++counts[{a, b}];
      });
      Rng rng(seed);
      constexpr int kTrials = 30000;
      for (int t = 0; t < kTrials; ++t) {
        (void)strategy.assign({u, j}, tracker, rng);
      }
      // Every unordered pair of F_j(u) must appear, uniformly.
      const std::size_t f = candidates.size();
      const std::size_t num_pairs = f * (f - 1) / 2;
      ASSERT_EQ(counts.size(), num_pairs);
      std::vector<std::uint64_t> observed;
      for (const auto& [pair, count] : counts) observed.push_back(count);
      const std::vector<double> expected(num_pairs,
                                         1.0 / static_cast<double>(num_pairs));
      EXPECT_GT(chi_square_pvalue(observed, expected), 1e-4)
          << "pair sampling is not uniform for |F|=" << f;
      return;
    }
  }
  GTEST_SKIP() << "no candidate set of size 4-6 found";
}

TEST(CandidateUniformity, RadiusConstrainedListScan) {
  // bucket_threshold = 0 disables bucket grids → list-scan path.
  Fixture fixture(225, 20, 3, 101, /*bucket_threshold=*/0);
  check_pair_uniformity(fixture, 5, 1);
}

TEST(CandidateUniformity, RadiusConstrainedBucketGrid) {
  // bucket_threshold = 1 forces bucket grids → grid path.
  Fixture fixture(225, 20, 3, 101, /*bucket_threshold=*/1);
  check_pair_uniformity(fixture, 5, 2);
}

TEST(CandidateUniformity, GlobalReplicaList) {
  // r = ∞ path samples directly from S_j.
  Fixture fixture(225, 60, 1, 103, /*bucket_threshold=*/512);
  check_pair_uniformity(fixture, kUnboundedRadius, 3);
}

}  // namespace
}  // namespace proxcache
