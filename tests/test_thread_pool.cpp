// Tests for the parallel substrate: task execution, result ordering,
// exception propagation and destruction semantics.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <numeric>
#include <stdexcept>

#include "parallel/parallel_for.hpp"

namespace proxcache {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// The cap is checked before any worker starts, so these spawn nothing.
TEST(ThreadPool, RejectsMoreThanTheCap) {
  EXPECT_THROW(ThreadPool(1025), std::invalid_argument);
  // What a negative count becomes after a cast to unsigned.
  EXPECT_THROW(ThreadPool(UINT_MAX), std::invalid_argument);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionsSurfaceAtGet) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // Pool still usable afterwards.
  EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
    // Futures discarded; destructor must still run everything queued.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto results =
      parallel_map(pool, 64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ParallelMap, EmptyRangeYieldsEmptyVector) {
  ThreadPool pool(2);
  const auto results = parallel_map(pool, 0, [](std::size_t) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(ParallelMap, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_map(pool, 8,
                            [](std::size_t i) -> int {
                              if (i == 3) throw std::logic_error("boom");
                              return 0;
                            }),
               std::logic_error);
}

TEST(ParallelFor, ExecutesEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 100, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, ChunkingCoversCountsNotDivisibleByWorkers) {
  ThreadPool pool(3);
  const auto results =
      parallel_map(pool, 97, [](std::size_t i) { return i + 1; });
  ASSERT_EQ(results.size(), 97u);
  for (std::size_t i = 0; i < 97; ++i) EXPECT_EQ(results[i], i + 1);
}

TEST(ParallelMap, CountSmallerThanWorkersStillCompletes) {
  ThreadPool pool(8);
  const auto results =
      parallel_map(pool, 3, [](std::size_t i) { return 10 * i; });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[2], 20u);
}

// Concurrent failures: when many tasks throw simultaneously across all
// workers, parallel_map must surface exactly one exception, leak nothing,
// and leave the pool fully usable.
TEST(ParallelMap, ConcurrentFailuresPropagateOneException) {
  ThreadPool pool(4);
  std::atomic<int> attempts{0};
  EXPECT_THROW(parallel_map(pool, 256,
                            [&attempts](std::size_t i) -> int {
                              ++attempts;
                              throw std::runtime_error(
                                  "task " + std::to_string(i) + " failed");
                            }),
               std::runtime_error);
  EXPECT_GT(attempts.load(), 0);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

// Deterministic choice among concurrent failures: the exception of the
// lowest-indexed failing chunk wins, so index 0's exception type is what
// callers observe even when later chunks fail with something else.
TEST(ParallelMap, LowestIndexedChunkExceptionWins) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_map(pool, 64,
                            [](std::size_t i) -> int {
                              if (i == 0) throw std::logic_error("first");
                              throw std::runtime_error("later");
                            }),
               std::logic_error);
}

// Fail-fast per chunk is part of the contract: a throwing index skips the
// rest of its own chunk, while every other chunk still runs to completion.
TEST(ParallelFor, FailingChunkSkipsItsRemainingIndicesOnly) {
  ThreadPool pool(2);  // 8 chunks over 64 indices -> chunk 0 = [0, 8)
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(parallel_for(pool, 64,
                            [&hits](std::size_t i) {
                              if (i == 1) throw std::runtime_error("boom");
                              ++hits[i];
                            }),
               std::runtime_error);
  EXPECT_EQ(hits[0].load(), 1) << "indices before the failure still ran";
  for (std::size_t i = 2; i < 8; ++i) {
    EXPECT_EQ(hits[i].load(), 0)
        << "index " << i << " shares the failing chunk and must be skipped";
  }
  for (std::size_t i = 8; i < 64; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "other chunks must run to completion";
  }
}

TEST(ParallelFor, PropagatesExceptionsUnderConcurrentFailures) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 128,
                            [](std::size_t i) {
                              if (i % 2 == 0) {
                                throw std::invalid_argument("even index");
                              }
                            }),
               std::invalid_argument);
  // Pool survives the storm.
  std::atomic<int> counter{0};
  parallel_for(pool, 32, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ParallelMap, MoveOnlyResultsSupported) {
  ThreadPool pool(2);
  const auto results = parallel_map(pool, 4, [](std::size_t i) {
    return std::make_unique<int>(static_cast<int>(i));
  });
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*results[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace proxcache
