// Tests for scenario/registry: the built-in presets are plentiful, unique,
// valid, and runnable end-to-end at test scale.
#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/simulation.hpp"

namespace proxcache {
namespace {

TEST(ScenarioRegistry, HasAtLeastFivePresets) {
  EXPECT_GE(ScenarioRegistry::built_ins().all().size(), 5u);
}

TEST(ScenarioRegistry, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    EXPECT_FALSE(scenario.name.empty());
    EXPECT_FALSE(scenario.summary.empty());
    EXPECT_TRUE(names.insert(scenario.name).second)
        << "duplicate scenario name " << scenario.name;
  }
}

TEST(ScenarioRegistry, CoversEveryTraceKind) {
  std::set<TraceKind> kinds;
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    kinds.insert(scenario.config.trace.kind);
  }
  EXPECT_EQ(kinds.size(), 6u);  // Static + the five dynamic processes
}

TEST(ScenarioRegistry, EveryPresetValidates) {
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    EXPECT_NO_THROW(scenario.config.validate()) << scenario.name;
  }
}

TEST(ScenarioRegistry, EveryPresetRunsAtTestScale) {
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    ExperimentConfig config = scenario.config;
    config.topology_spec = parse_topology_spec("torus(side=10)");
    config.num_files = 30;
    config.cache_size = 4;
    config.num_requests = 200;
    config.seed = 12;
    const RunResult result = run_simulation(config, 0);
    EXPECT_EQ(result.requests + result.dropped, 200u) << scenario.name;
    EXPECT_GT(result.max_load, 0u) << scenario.name;
  }
}

TEST(ScenarioRegistry, FindReturnsNullForUnknownName) {
  EXPECT_EQ(ScenarioRegistry::built_ins().find("no-such-scenario"), nullptr);
  EXPECT_NE(ScenarioRegistry::built_ins().find("flash-crowd"), nullptr);
}

TEST(ScenarioRegistry, AtThrowsListingKnownNames) {
  try {
    (void)ScenarioRegistry::built_ins().at("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    EXPECT_NE(what.find("flash-crowd"), std::string::npos);
  }
}

}  // namespace
}  // namespace proxcache
