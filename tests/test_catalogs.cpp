// Tests for the shared `--list` output (util/catalogs.hpp): every open
// catalog prints, and entries registered on the process-wide registries
// show up next to the built-ins — the catalogs the simulator actually
// builds from.
#include "util/catalogs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "event/cache_policy.hpp"
#include "strategy/registry.hpp"
#include "topology/registry.hpp"

namespace proxcache {
namespace {

TEST(Catalogs, ListsEntriesRegisteredOnTheGlobalRegistries) {
  StrategyEntry strategy = StrategyRegistry::built_ins().at("nearest");
  strategy.name = "test-listed-strategy";
  strategy.summary = "test-only strategy summary";
  StrategyRegistry::global().add(strategy);

  TopologyEntry topology = TopologyRegistry::built_ins().at("ring");
  topology.name = "test-listed-topology";
  topology.summary = "test-only topology summary";
  TopologyRegistry::global().add(topology);

  CachePolicyEntry policy = CachePolicyRegistry::built_ins().at("lru");
  policy.name = "test-listed-policy";
  policy.summary = "test-only cache policy summary";
  CachePolicyRegistry::global().add(policy);

  std::ostringstream os;
  print_catalogs(os);
  const std::string listing = os.str();
  for (const char* needle :
       {"test-listed-strategy", "test-only strategy summary",
        "test-listed-topology", "test-only topology summary",
        "test-listed-policy", "test-only cache policy summary",
        // A built-in from each of the five catalogs.
        "flash-crowd", "two-choice", "torus", "ewma", "edge-core"}) {
    EXPECT_NE(listing.find(needle), std::string::npos)
        << "'" << needle << "' missing from:\n"
        << listing;
  }
}

}  // namespace
}  // namespace proxcache
