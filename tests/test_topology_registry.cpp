// Tests for the topology registry (topology/registry.hpp): catalog
// contents, spec validation, node_count/factory agreement, the legacy
// lattice-knob mapping, and the open-API promise end to end (a custom
// topology registered on the global catalog drives run_simulation).
#include "topology/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/simulation.hpp"
#include "topology/ring.hpp"

namespace proxcache {
namespace {

void expect_invalid(const std::string& text, const std::string& needle) {
  try {
    TopologyRegistry::built_ins().validate(parse_topology_spec(text));
    FAIL() << "expected spec '" << text << "' to be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(needle), std::string::npos)
        << "message '" << message << "' does not mention '" << needle << "'";
  }
}

TEST(TopologyRegistry, BuiltInsCoverLatticeAndGraphFamilies) {
  const TopologyRegistry& registry = TopologyRegistry::built_ins();
  EXPECT_GE(registry.all().size(), 5u);
  for (const char* name :
       {"torus", "grid", "ring", "tree", "rgg", "hyperbolic"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("hypercube"), nullptr);
}

TEST(TopologyRegistry, AtThrowsListingKnownNames) {
  try {
    (void)TopologyRegistry::built_ins().at("moebius");
    FAIL() << "expected unknown topology to throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("moebius"), std::string::npos);
    EXPECT_NE(message.find("torus"), std::string::npos);
    EXPECT_NE(message.find("rgg"), std::string::npos);
  }
}

TEST(TopologyRegistry, ValidateRejectsUnknownNamesKeysAndRanges) {
  expect_invalid("moebius(n=64)", "unknown topology 'moebius'");
  expect_invalid("torus(n=64)", "does not take parameter 'n'");
  expect_invalid("ring(side=8)", "does not take parameter 'side'");
  expect_invalid("torus(side=0)", "'side' = 0");
  expect_invalid("torus(side=2.5)", "must be an integer");
  expect_invalid("tree(branching=0)", "'branching' = 0");
  expect_invalid("rgg(radius=0)", "'radius' = 0");
  expect_invalid("rgg(n=20000000)", "outside");
  expect_invalid("hyperbolic(alpha=0.5)", "'alpha' = 0.5");
  // The old dense-matrix caps are lifted: million-node graph specs are
  // valid now (the sparse distance oracle serves them).
  EXPECT_NO_THROW(TopologyRegistry::built_ins().validate(
      parse_topology_spec("rgg(n=1000000, radius=0.0025)")));
  EXPECT_NO_THROW(TopologyRegistry::built_ins().validate(
      parse_topology_spec("torus(side=4000)")));
  EXPECT_NO_THROW(TopologyRegistry::built_ins().validate(
      parse_topology_spec("hyperbolic(n=100000)")));
  // Per-key ranges pass but the implied node count overflows the id space.
  expect_invalid("tree(branching=64, depth=24)", "overflows");
}

TEST(TopologyRegistry, NodeCountAgreesWithMaterializedSize) {
  const TopologyRegistry& registry = TopologyRegistry::built_ins();
  for (const char* text :
       {"torus(side=7)", "grid(side=3)", "ring(n=100)",
        "tree(branching=3, depth=4)", "rgg(n=64, radius=0.2, seed=5)"}) {
    const TopologySpec spec = parse_topology_spec(text);
    EXPECT_EQ(node_count(registry, spec), registry.make(spec)->size())
        << text;
  }
}

TEST(TopologyRegistry, DefaultsFillUnsetParameters) {
  const TopologyRegistry& registry = TopologyRegistry::built_ins();
  const TopologySpec filled =
      registry.with_defaults(parse_topology_spec("tree"));
  EXPECT_EQ(filled.get_or("branching", 0.0), 4.0);
  EXPECT_EQ(filled.get_or("depth", 0.0), 6.0);
  EXPECT_EQ(node_count(registry, parse_topology_spec("tree")), 5461u);
  // The default torus matches the default ExperimentConfig (n = 2025).
  EXPECT_EQ(node_count(registry, parse_topology_spec("torus")), 2025u);
}

TEST(TopologyRegistry, MakeBuildsTheDescribedTopology) {
  const TopologyRegistry& registry = TopologyRegistry::built_ins();
  const auto torus = registry.make(parse_topology_spec("torus(side=6)"));
  EXPECT_NE(torus->as_lattice(), nullptr);
  EXPECT_EQ(torus->size(), 36u);
  EXPECT_EQ(torus->describe(), "torus(side=6)");
  const auto ring = registry.make(parse_topology_spec("ring(n=10)"));
  EXPECT_EQ(ring->as_lattice(), nullptr);
  EXPECT_EQ(ring->diameter(), 5u);
}

TEST(TopologyRegistry, LatticeNodeCountsMapToEquivalentSpec) {
  EXPECT_EQ(topology_spec_from_lattice(2025, Wrap::Torus).to_string(),
            "torus(side=45)");
  EXPECT_EQ(topology_spec_from_lattice(64, Wrap::Grid).to_string(),
            "grid(side=8)");
  try {
    (void)topology_spec_from_lattice(10, Wrap::Torus);
    FAIL() << "expected a non-square node count to throw";
  } catch (const std::invalid_argument& error) {
    // A user-level message naming the value, not a library precondition.
    const std::string message = error.what();
    EXPECT_NE(message.find("node count 10 is not a perfect square"),
              std::string::npos)
        << message;
    EXPECT_EQ(message.find("precondition violated"), std::string::npos)
        << message;
  }

  // And the config-level resolution: empty spec -> the paper's torus; a
  // set spec wins and decides the node count.
  ExperimentConfig config;
  EXPECT_EQ(config.resolved_topology().to_string(), "torus(side=45)");
  EXPECT_EQ(config.resolved_nodes(), 2025u);
  config.topology_spec = topology_spec_from_lattice(64, Wrap::Grid);
  EXPECT_EQ(config.resolved_topology().to_string(), "grid(side=8)");
  config.topology_spec = parse_topology_spec("ring(n=300)");
  EXPECT_EQ(config.resolved_topology().to_string(), "ring(n=300)");
  EXPECT_EQ(config.resolved_nodes(), 300u);
  EXPECT_EQ(config.effective_requests(), 300u)
      << "the request horizon follows the topology's node count";
}

TEST(TopologyRegistry, ParseValidatedSpecsFailsFastOnTypos) {
  EXPECT_EQ(parse_validated_topology_specs({"torus(side=8)", "ring(n=64)"})
                .size(),
            2u);
  EXPECT_THROW((void)parse_validated_topology_specs(
                   {"torus(side=8)", "moebius"}),
               std::invalid_argument);
}

TEST(TopologyRegistry, GlobalRegistryDrivesTheSimulatorEndToEnd) {
  // The open-API promise: a topology registered on the global catalog is
  // immediately runnable through ExperimentConfig::topology_spec with zero
  // core changes.
  const std::string name = "test-double-ring";
  if (TopologyRegistry::global().find(name) == nullptr) {
    TopologyRegistry::global().add(
        {name,
         "test-only: a ring with 2n nodes",
         {{"n", 1.0, 4096.0, 16.0, "half the node count",
           /*integral=*/true}},
         [](const TopologySpec& spec) {
           return 2 * static_cast<std::size_t>(spec.get_or("n", 16.0));
         },
         [](const TopologySpec& spec) -> std::shared_ptr<const Topology> {
           return std::make_shared<RingTopology>(
               2 * static_cast<std::size_t>(spec.get_or("n", 16.0)));
         }});
  }
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("test-double-ring(n=50)");
  config.num_files = 20;
  config.cache_size = 4;
  config.validate();  // global() is consulted: no throw
  const RunResult result = run_simulation(config, 0);
  EXPECT_EQ(result.requests, 100u) << "horizon = 2n nodes";
  // built_ins() stays immutable: the custom entry is not there.
  EXPECT_EQ(TopologyRegistry::built_ins().find(name), nullptr);
}

TEST(TopologyRegistry, AddRejectsDuplicatesAndIncompleteEntries) {
  TopologyRegistry registry = TopologyRegistry::with_built_ins();
  TopologyEntry duplicate;
  duplicate.name = "ring";
  duplicate.node_count = [](const TopologySpec&) { return std::size_t{1}; };
  duplicate.factory =
      [](const TopologySpec&) -> std::shared_ptr<const Topology> {
    return nullptr;
  };
  EXPECT_THROW(registry.add(duplicate), std::invalid_argument);
  TopologyEntry unbuildable;
  unbuildable.name = "ghost";
  EXPECT_THROW(registry.add(unbuildable), std::invalid_argument);
}

TEST(TopologyRegistry, ConfigValidationRoutesThroughTheRegistry) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("ring(n=0)");
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.topology_spec = parse_topology_spec("moebius");
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.topology_spec = parse_topology_spec("ring(n=256)");
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace proxcache
