// Tests for requests: the paper-model trace marginals (StaticTraceSource)
// and the three missing-file policies of SanitizingTraceSource.
#include "core/request.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "scenario/generators.hpp"
#include "scenario/trace_source.hpp"
#include "stats/gof.hpp"

namespace proxcache {
namespace {

/// `count` requests of the paper's model: origins uniform over
/// `num_nodes`, files i.i.d. from `popularity`.
std::vector<Request> static_trace(std::size_t num_nodes,
                                  const Popularity& popularity,
                                  std::size_t count, Rng& rng) {
  StaticTraceSource source(num_nodes, popularity);
  return materialize(source, count, rng);
}

/// Replays a hand-built trace as a TraceSource (no rng draws).
class ReplaySource final : public TraceSource {
 public:
  explicit ReplaySource(std::vector<Request> trace)
      : trace_(std::move(trace)) {}
  Request next(Rng& /*rng*/) override { return trace_[index_++]; }
  [[nodiscard]] std::string describe() const override { return "replay"; }

 private:
  std::vector<Request> trace_;
  std::size_t index_ = 0;
};

/// Streams `trace` through SanitizingTraceSource under `policy` over a
/// uniform 3-file catalog and replaces it with the admitted requests. `rng`
/// doubles as the repair stream.
SanitizeStats sanitize(std::vector<Request>& trace, const Placement& placement,
                       MissingFilePolicy policy, Rng& rng) {
  const Popularity popularity = Popularity::uniform(3);
  ReplaySource replay(trace);
  SanitizingTraceSource sanitized(replay, trace.size(), placement, popularity,
                                  policy, rng);
  std::vector<Request> admitted;
  Request request;
  while (sanitized.try_next(rng, request)) admitted.push_back(request);
  trace = std::move(admitted);
  return sanitized.stats();
}

TEST(StaticTrace, SizesAndRanges) {
  Rng rng(1);
  const auto trace = static_trace(100, Popularity::uniform(7), 500, rng);
  EXPECT_EQ(trace.size(), 500u);
  for (const Request& request : trace) {
    EXPECT_LT(request.origin, 100u);
    EXPECT_LT(request.file, 7u);
  }
}

TEST(StaticTrace, OriginsAreUniform) {
  Rng rng(2);
  const std::size_t n = 10;
  const auto trace = static_trace(n, Popularity::uniform(3), 50000, rng);
  std::vector<std::uint64_t> counts(n, 0);
  for (const Request& request : trace) ++counts[request.origin];
  EXPECT_GT(chi_square_pvalue(counts, std::vector<double>(n, 0.1)), 1e-4);
}

TEST(StaticTrace, FilesFollowZipf) {
  Rng rng(3);
  const Popularity popularity = Popularity::zipf(6, 1.0);
  const auto trace = static_trace(5, popularity, 60000, rng);
  std::vector<std::uint64_t> counts(6, 0);
  for (const Request& request : trace) ++counts[request.file];
  EXPECT_GT(chi_square_pvalue(counts, popularity.pmf()), 1e-4);
}

struct SanitizeFixture {
  // Tiny placement where file 0 is cached and file 1 is not: n=4 nodes,
  // K=2, M=1, constructed deterministically by searching seeds.
  static Placement uncached_file_placement(FileId* uncached) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng rng(seed);
      Placement placement =
          Placement::generate(4, Popularity::uniform(3), 1,
                              PlacementMode::ProportionalWithReplacement, rng);
      for (FileId j = 0; j < 3; ++j) {
        if (placement.replica_count(j) == 0) {
          *uncached = j;
          return placement;
        }
      }
    }
    throw std::runtime_error("no seed produced an uncached file");
  }
};

TEST(SanitizingSource, StrictThrowsOnUncachedFile) {
  FileId uncached = 0;
  const Placement placement =
      SanitizeFixture::uncached_file_placement(&uncached);
  std::vector<Request> trace = {{0, uncached}};
  Rng rng(1);
  EXPECT_THROW(sanitize(trace, placement, MissingFilePolicy::Strict, rng),
               std::runtime_error);
}

TEST(SanitizingSource, StrictPassesWhenAllCached) {
  FileId uncached = 0;
  const Placement placement =
      SanitizeFixture::uncached_file_placement(&uncached);
  FileId cached = 0;
  while (placement.replica_count(cached) == 0) ++cached;
  std::vector<Request> trace = {{0, cached}, {1, cached}};
  Rng rng(1);
  const SanitizeStats stats =
      sanitize(trace, placement, MissingFilePolicy::Strict, rng);
  EXPECT_EQ(stats.resampled, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(trace.size(), 2u);
}

TEST(SanitizingSource, DropRemovesOffenders) {
  FileId uncached = 0;
  const Placement placement =
      SanitizeFixture::uncached_file_placement(&uncached);
  FileId cached = 0;
  while (placement.replica_count(cached) == 0) ++cached;
  std::vector<Request> trace = {{0, cached}, {1, uncached}, {2, cached}};
  Rng rng(1);
  const SanitizeStats stats =
      sanitize(trace, placement, MissingFilePolicy::Drop, rng);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(trace.size(), 2u);
  for (const Request& request : trace) {
    EXPECT_GT(placement.replica_count(request.file), 0u);
  }
}

TEST(SanitizingSource, ResampleRepairsInPlace) {
  FileId uncached = 0;
  const Placement placement =
      SanitizeFixture::uncached_file_placement(&uncached);
  std::vector<Request> trace;
  for (NodeId u = 0; u < 4; ++u) trace.push_back({u, uncached});
  Rng rng(1);
  const SanitizeStats stats =
      sanitize(trace, placement, MissingFilePolicy::Resample, rng);
  EXPECT_EQ(stats.resampled, 4u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(trace.size(), 4u);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(trace[u].origin, u) << "origins must be preserved";
    EXPECT_GT(placement.replica_count(trace[u].file), 0u);
  }
}

TEST(SanitizingSource, ResampleLeavesCachedRequestsAlone) {
  FileId uncached = 0;
  const Placement placement =
      SanitizeFixture::uncached_file_placement(&uncached);
  FileId cached = 0;
  while (placement.replica_count(cached) == 0) ++cached;
  std::vector<Request> trace = {{3, cached}};
  Rng rng(1);
  const SanitizeStats stats =
      sanitize(trace, placement, MissingFilePolicy::Resample, rng);
  EXPECT_EQ(stats.resampled, 0u);
  EXPECT_EQ(trace[0].file, cached);
}

}  // namespace
}  // namespace proxcache
