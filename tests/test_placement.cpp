// Tests for catalog/placement: structural invariants (sorted distinct CSR,
// replica-list/node-list duality), exact equality with the per-node sort +
// per-file push_back reference construction, composition, the offsets'
// size bound, distributional marginals, and the distinct-mode ablation.
#include "catalog/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "random/alias_sampler.hpp"

namespace proxcache {
namespace {

Placement make(std::size_t n, std::size_t k, std::size_t m,
               PlacementMode mode = PlacementMode::ProportionalWithReplacement,
               std::uint64_t seed = 11) {
  Rng rng(seed);
  return Placement::generate(n, Popularity::uniform(k), m, mode, rng);
}

TEST(Placement, NodeListsAreSortedDistinctAndBounded) {
  const Placement placement = make(100, 50, 8);
  for (NodeId u = 0; u < 100; ++u) {
    const auto files = placement.files_of(u);
    EXPECT_GE(files.size(), 1u);
    EXPECT_LE(files.size(), 8u);
    EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
    EXPECT_EQ(std::adjacent_find(files.begin(), files.end()), files.end());
    for (const FileId j : files) EXPECT_LT(j, 50u);
  }
}

TEST(Placement, ReplicaListsAreTheExactInverse) {
  const Placement placement = make(64, 30, 5);
  // node -> file implies file -> node and vice versa.
  for (NodeId u = 0; u < 64; ++u) {
    for (const FileId j : placement.files_of(u)) {
      const auto replicas = placement.replicas(j);
      EXPECT_TRUE(std::binary_search(replicas.begin(), replicas.end(), u));
    }
  }
  std::size_t total_from_replicas = 0;
  for (FileId j = 0; j < 30; ++j) {
    const auto replicas = placement.replicas(j);
    EXPECT_TRUE(std::is_sorted(replicas.begin(), replicas.end()));
    total_from_replicas += replicas.size();
    for (const NodeId u : replicas) EXPECT_TRUE(placement.caches(u, j));
  }
  std::size_t total_from_nodes = 0;
  for (NodeId u = 0; u < 64; ++u) total_from_nodes += placement.distinct_count(u);
  EXPECT_EQ(total_from_nodes, total_from_replicas);
}

TEST(Placement, CachesAgreesWithFileLists) {
  const Placement placement = make(40, 20, 3);
  for (NodeId u = 0; u < 40; ++u) {
    const auto files = placement.files_of(u);
    for (FileId j = 0; j < 20; ++j) {
      const bool expected =
          std::find(files.begin(), files.end(), j) != files.end();
      EXPECT_EQ(placement.caches(u, j), expected);
    }
  }
}

TEST(Placement, DeterministicGivenSeed) {
  const Placement a = make(50, 25, 4, PlacementMode::ProportionalWithReplacement, 7);
  const Placement b = make(50, 25, 4, PlacementMode::ProportionalWithReplacement, 7);
  const Placement c = make(50, 25, 4, PlacementMode::ProportionalWithReplacement, 8);
  bool all_same_ab = true;
  bool any_diff_ac = false;
  for (NodeId u = 0; u < 50; ++u) {
    const auto fa = a.files_of(u);
    const auto fb = b.files_of(u);
    const auto fc = c.files_of(u);
    if (!std::equal(fa.begin(), fa.end(), fb.begin(), fb.end())) {
      all_same_ab = false;
    }
    if (!std::equal(fa.begin(), fa.end(), fc.begin(), fc.end())) {
      any_diff_ac = true;
    }
  }
  EXPECT_TRUE(all_same_ab);
  EXPECT_TRUE(any_diff_ac);
}

TEST(Placement, WithReplacementMarginalMatchesTheory) {
  // P(node caches file j) = 1 - (1 - 1/K)^M under uniform popularity.
  const std::size_t n = 4000;
  const std::size_t k = 20;
  const std::size_t m = 5;
  const Placement placement = make(n, k, m, PlacementMode::ProportionalWithReplacement, 21);
  const double q = 1.0 - std::pow(1.0 - 1.0 / static_cast<double>(k),
                                  static_cast<double>(m));
  for (FileId j = 0; j < k; ++j) {
    const double fraction = static_cast<double>(placement.replica_count(j)) /
                            static_cast<double>(n);
    // 4 sigma tolerance: sigma = sqrt(q(1-q)/n) ≈ 0.0066.
    EXPECT_NEAR(fraction, q, 4.0 * std::sqrt(q * (1 - q) / n))
        << "file " << j;
  }
}

TEST(Placement, DistinctModeGivesExactlyM) {
  const Placement placement = make(80, 40, 6, PlacementMode::DistinctProportional);
  for (NodeId u = 0; u < 80; ++u) {
    EXPECT_EQ(placement.distinct_count(u), 6u);
  }
}

TEST(Placement, DistinctModeCachesWholeLibraryWhenMGeK) {
  const Placement placement = make(10, 4, 9, PlacementMode::DistinctProportional);
  for (NodeId u = 0; u < 10; ++u) {
    EXPECT_EQ(placement.distinct_count(u), 4u);
    for (FileId j = 0; j < 4; ++j) EXPECT_TRUE(placement.caches(u, j));
  }
  EXPECT_EQ(placement.files_with_replicas(), 4u);
}

TEST(Placement, FullLibraryModeMK) {
  // M = K with replacement: every node holds a large subset; with distinct
  // mode it holds everything (Example 1 substrate).
  const Placement placement = make(25, 12, 12, PlacementMode::DistinctProportional);
  for (NodeId u = 0; u < 25; ++u) {
    EXPECT_EQ(placement.distinct_count(u), 12u);
  }
}

TEST(Placement, FilesWithReplicasCountsSupport) {
  const Placement placement = make(9, 2000, 1);
  // 9 draws over 2000 files: at most 9 distinct files cached.
  EXPECT_LE(placement.files_with_replicas(), 9u);
  EXPECT_GE(placement.files_with_replicas(), 1u);
}

TEST(Placement, OverlapMatchesBruteForce) {
  const Placement placement = make(30, 10, 4, PlacementMode::ProportionalWithReplacement, 3);
  for (NodeId u = 0; u < 30; u += 3) {
    for (NodeId v = 0; v < 30; v += 4) {
      const auto a = placement.files_of(u);
      std::size_t brute = 0;
      for (const FileId j : a) {
        if (placement.caches(v, j)) ++brute;
      }
      EXPECT_EQ(placement.overlap(u, v), brute);
      EXPECT_EQ(placement.overlap(v, u), brute);
    }
  }
}

TEST(Placement, DistinctModeHandlesHeavySkewNearFullLibrary) {
  // M = K - 1 under Zipf(2.5): a rejection sampler would stall waiting for
  // the tail files; Efraimidis–Spirakis finishes instantly and still
  // returns M distinct files.
  Rng rng(31);
  const Placement placement = Placement::generate(
      20, Popularity::zipf(50, 2.5), 49, PlacementMode::DistinctProportional,
      rng);
  for (NodeId u = 0; u < 20; ++u) {
    EXPECT_EQ(placement.distinct_count(u), 49u);
  }
}

TEST(Placement, DistinctModeMarginalsFavorPopularFiles) {
  // With M distinct slots the inclusion probability must still increase
  // with popularity (exact marginals are complex; ordering must hold).
  Rng rng(32);
  const Placement placement = Placement::generate(
      3000, Popularity::zipf(30, 1.5), 5, PlacementMode::DistinctProportional,
      rng);
  EXPECT_GT(placement.replica_count(0), placement.replica_count(10));
  EXPECT_GT(placement.replica_count(10), placement.replica_count(29));
}

TEST(Placement, ZipfPlacementSkewsTowardPopularFiles) {
  Rng rng(77);
  const Placement placement = Placement::generate(
      2000, Popularity::zipf(100, 1.2), 3,
      PlacementMode::ProportionalWithReplacement, rng);
  // Rank-1 file should have many more replicas than rank-100.
  EXPECT_GT(placement.replica_count(0), 4 * placement.replica_count(99));
}

/// Both views of a placement, built the straightforward way.
struct ReferencePlacement {
  std::vector<std::vector<FileId>> files;    // per node, sorted distinct
  std::vector<std::vector<NodeId>> replicas;  // per file, sorted
};

/// The reference construction, draw for draw the same as
/// `Placement::generate`: per node, M alias draws deduplicated by sort +
/// unique (or the Efraimidis–Spirakis top-M in distinct mode), and one
/// `push_back` per (node, file) into K separate replica vectors.
ReferencePlacement reference_generate(std::size_t n,
                                      const Popularity& popularity,
                                      std::size_t m, PlacementMode mode,
                                      Rng& rng) {
  const std::size_t k = popularity.num_files();
  const AliasSampler sampler(popularity.pmf());
  ReferencePlacement out{std::vector<std::vector<FileId>>(n),
                         std::vector<std::vector<NodeId>>(k)};
  for (std::size_t u = 0; u < n; ++u) {
    std::vector<FileId>& list = out.files[u];
    if (mode == PlacementMode::ProportionalWithReplacement) {
      for (std::size_t slot = 0; slot < m; ++slot) {
        list.push_back(sampler.sample(rng));
      }
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    } else if (m >= k) {
      for (FileId j = 0; j < k; ++j) list.push_back(j);
    } else {
      std::vector<std::pair<double, FileId>> heap;
      for (FileId j = 0; j < k; ++j) {
        const double w = popularity.pmf(j);
        if (w <= 0.0) continue;
        const double key = std::pow(rng.uniform(), 1.0 / w);
        if (heap.size() < m) {
          heap.emplace_back(key, j);
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        } else if (key > heap.front().first) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
          heap.back() = {key, j};
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
      for (const auto& [key, j] : heap) list.push_back(j);
      std::sort(list.begin(), list.end());
    }
    for (const FileId j : list) {
      out.replicas[j].push_back(static_cast<NodeId>(u));
    }
  }
  return out;
}

template <typename T>
std::vector<T> to_vector(std::span<const T> span) {
  return {span.begin(), span.end()};
}

/// Network size n, library size K and cache size M of one case.
struct Sizes {
  std::size_t n;
  std::size_t k;
  std::size_t m;
};

void PrintTo(const Sizes& sizes, std::ostream* os) {
  *os << "n=" << sizes.n << " K=" << sizes.k << " M=" << sizes.m;
}

/// (sizes, mode, Zipf popularity?)
using BuildCase = std::tuple<Sizes, PlacementMode, bool>;

std::string build_case_name(const ::testing::TestParamInfo<BuildCase>& info) {
  const auto& [sizes, mode, zipf] = info.param;
  return "n" + std::to_string(sizes.n) + "_K" + std::to_string(sizes.k) +
         "_M" + std::to_string(sizes.m) + "_" + to_string(mode) +
         (zipf ? "_zipf" : "_uniform");
}

class PlacementMatchesReference : public ::testing::TestWithParam<BuildCase> {
};

TEST_P(PlacementMatchesReference, NodeAndReplicaListsAreExact) {
  const auto& [sizes, mode, zipf] = GetParam();
  const auto [n, k, m] = sizes;
  const Popularity popularity =
      zipf ? Popularity::zipf(k, 0.8) : Popularity::uniform(k);
  Rng rng(4242);
  Rng reference_rng(4242);
  const Placement placement =
      Placement::generate(n, popularity, m, mode, rng);
  const ReferencePlacement reference =
      reference_generate(n, popularity, m, mode, reference_rng);

  ASSERT_EQ(placement.num_nodes(), n);
  ASSERT_EQ(placement.num_files(), k);
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(to_vector(placement.files_of(u)), reference.files[u])
        << "node " << u;
  }
  for (FileId j = 0; j < k; ++j) {
    ASSERT_EQ(to_vector(placement.replicas(j)), reference.replicas[j])
        << "file " << j;
    EXPECT_EQ(placement.replica_count(j), reference.replicas[j].size());
  }
  // Same number of draws: both generators leave the Rng in the same state.
  EXPECT_EQ(rng.bits(), reference_rng.bits());
}

// K = 100 is the paper's library. The cases straddle the replacement-mode
// dedupe rule: the bitmap for K = 100 with M >= 2 and for K = 2000 with
// M = 100, sort + unique for the rest.
INSTANTIATE_TEST_SUITE_P(
    SizesModesAndPopularity, PlacementMatchesReference,
    ::testing::Combine(::testing::Values(Sizes{400, 100, 1},
                                         Sizes{400, 100, 2},
                                         Sizes{400, 100, 10},
                                         Sizes{400, 100, 100},
                                         Sizes{400, 2000, 10},
                                         Sizes{400, 2000, 100},
                                         Sizes{64, 100000, 10}),
                       ::testing::Values(
                           PlacementMode::ProportionalWithReplacement,
                           PlacementMode::DistinctProportional),
                       ::testing::Bool()),
    build_case_name);

TEST(Placement, ComposeShiftsEachPartByItsBase) {
  const std::size_t k = 60;
  Rng front_rng(5);
  Rng back_rng(6);
  const std::vector<Placement> parts = {
      Placement::generate(30, Popularity::zipf(k, 0.8), 4,
                          PlacementMode::ProportionalWithReplacement,
                          front_rng),
      Placement::generate(12, Popularity::uniform(k), 15,
                          PlacementMode::ProportionalWithReplacement,
                          back_rng),
      Placement::full(1, k, PlacementMode::ProportionalWithReplacement)};
  const Placement composed = Placement::compose(parts);
  ASSERT_EQ(composed.num_nodes(), 43u);
  ASSERT_EQ(composed.num_files(), k);
  EXPECT_EQ(composed.cache_size(), k);  // the origin's full library

  std::vector<std::vector<NodeId>> expected_replicas(k);
  NodeId base = 0;
  for (const Placement& part : parts) {
    for (NodeId u = 0; u < part.num_nodes(); ++u) {
      EXPECT_EQ(to_vector(composed.files_of(base + u)),
                to_vector(part.files_of(u)))
          << "part node " << u << " at base " << base;
    }
    for (FileId j = 0; j < k; ++j) {
      for (const NodeId u : part.replicas(j)) {
        expected_replicas[j].push_back(base + u);
      }
    }
    base += static_cast<NodeId>(part.num_nodes());
  }
  for (FileId j = 0; j < k; ++j) {
    EXPECT_EQ(to_vector(composed.replicas(j)), expected_replicas[j])
        << "file " << j;
  }
  // The origin holds every file, so every file has a replica at node 42.
  EXPECT_EQ(composed.files_with_replicas(), k);
  for (FileId j = 0; j < k; ++j) EXPECT_EQ(composed.replicas(j).back(), 42u);
}

TEST(Placement, RejectsEntryCountsPastTheOffsetRange) {
  // ring(n=134217728), the registry's node cap, with 64 slots over a
  // 100-file library: n*min(M, K) = 2^33 (node, file) entries. The check
  // runs before any allocation, so this throws at once instead of
  // reserving ~34 GB or wrapping the uint32 offsets.
  const std::size_t n = std::size_t{1} << 27;
  Rng rng(1);
  try {
    (void)Placement::generate(n, Popularity::uniform(100), 64,
                              PlacementMode::ProportionalWithReplacement, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("n=134217728"), std::string::npos) << what;
    EXPECT_NE(what.find("M=64"), std::string::npos) << what;
    EXPECT_NE(what.find("K=100"), std::string::npos) << what;
  }
  // A full placement holds n*K entries.
  EXPECT_THROW((void)Placement::full(n, 64, PlacementMode::DistinctProportional),
               std::invalid_argument);
}

TEST(Placement, RejectsBadArgs) {
  Rng rng(1);
  EXPECT_THROW(Placement::generate(0, Popularity::uniform(5), 1,
                                   PlacementMode::ProportionalWithReplacement,
                                   rng),
               std::invalid_argument);
  EXPECT_THROW(Placement::generate(5, Popularity::uniform(5), 0,
                                   PlacementMode::ProportionalWithReplacement,
                                   rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace proxcache
