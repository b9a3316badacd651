// Tests for stats/fairness: Jain index and coefficient of variation on
// hand-computed vectors, plus the end-to-end ordering between strategies.
#include "stats/fairness.hpp"

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace proxcache {
namespace {

TEST(JainIndex, PerfectlyEvenIsOne) {
  EXPECT_NEAR(jain_fairness_index({3, 3, 3, 3}), 1.0, 1e-12);
  EXPECT_NEAR(jain_fairness_index({7}), 1.0, 1e-12);
}

TEST(JainIndex, AllOnOneServerIsOneOverN) {
  EXPECT_NEAR(jain_fairness_index({10, 0, 0, 0, 0}), 0.2, 1e-12);
}

TEST(JainIndex, HandComputedMixed) {
  // x = {1, 2, 3}: (6)^2 / (3 * 14) = 36/42.
  EXPECT_NEAR(jain_fairness_index({1, 2, 3}), 36.0 / 42.0, 1e-12);
}

TEST(JainIndex, ZeroVectorIsFairByConvention) {
  EXPECT_NEAR(jain_fairness_index({0, 0, 0}), 1.0, 1e-12);
}

TEST(JainIndex, RejectsEmpty) {
  EXPECT_THROW(jain_fairness_index({}), std::invalid_argument);
}

TEST(LoadCv, EvenVectorIsZero) {
  EXPECT_NEAR(load_cv({4, 4, 4}), 0.0, 1e-12);
}

TEST(LoadCv, HandComputed) {
  // x = {0, 4}: mean 2, population stddev 2 → cv = 1.
  EXPECT_NEAR(load_cv({0, 4}), 1.0, 1e-12);
}

TEST(LoadCv, ZeroMeanIsZero) {
  EXPECT_NEAR(load_cv({0, 0}), 0.0, 1e-12);
}

TEST(FairnessEndToEnd, TwoChoiceIsFairerThanNearest) {
  ExperimentConfig nearest;
  nearest.topology_spec = parse_topology_spec("torus(side=32)");
  nearest.num_files = 16;
  nearest.cache_size = 8;
  nearest.seed = 21;
  nearest.strategy_spec = parse_strategy_spec("nearest");
  ExperimentConfig two = nearest;
  two.strategy_spec = parse_strategy_spec("two-choice");

  // Compare pooled load histograms through the per-run loads: rebuild
  // Jain's index from the histogram of one run each.
  double jain_nearest = 0.0;
  double jain_two = 0.0;
  const int runs = 5;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const RunResult rn = run_simulation(nearest, i);
    const RunResult rt = run_simulation(two, i);
    // Convert histograms back to load vectors.
    const auto to_loads = [](const Histogram& h) {
      std::vector<Load> loads;
      for (std::uint64_t v = 0; v <= h.max_value(); ++v) {
        for (std::uint64_t c = 0; c < h.at(v); ++c) {
          loads.push_back(static_cast<Load>(v));
        }
      }
      return loads;
    };
    jain_nearest += jain_fairness_index(to_loads(rn.load_histogram));
    jain_two += jain_fairness_index(to_loads(rt.load_histogram));
  }
  EXPECT_GT(jain_two, jain_nearest)
      << "the two-choice allocation must be fairer on average";
}

}  // namespace
}  // namespace proxcache
