#include "util/catalogs.hpp"

#include <ostream>

#include "event/cache_policy.hpp"
#include "scenario/registry.hpp"
#include "strategy/registry.hpp"
#include "tier/registry.hpp"
#include "topology/registry.hpp"
#include "util/table.hpp"

namespace proxcache {

void print_catalogs(std::ostream& os) {
  Table scenarios({"scenario", "summary"});
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    scenarios.add_row({Cell(scenario.name), Cell(scenario.summary)});
  }
  scenarios.print(os);
  os << "\n";

  Table strategies({"strategy", "summary"});
  for (const StrategyEntry& entry : StrategyRegistry::global().all()) {
    std::string summary = entry.summary;
    if (entry.requires_tiers) summary += " [needs --tiers]";
    strategies.add_row({Cell(entry.name), Cell(std::move(summary))});
  }
  strategies.print(os);
  os << "\n";

  Table topologies({"topology", "summary"});
  for (const TopologyEntry& entry : TopologyRegistry::global().all()) {
    topologies.add_row({Cell(entry.name), Cell(entry.summary)});
  }
  topologies.print(os);
  os << "\n";

  Table policies({"cache policy", "summary"});
  for (const CachePolicyEntry& entry : CachePolicyRegistry::global().all()) {
    policies.add_row({Cell(entry.name), Cell(entry.summary)});
  }
  policies.print(os);
  os << "\n";

  Table tiers({"tier preset", "spec", "summary"});
  for (const TierPreset& preset : TierRegistry::built_ins().all()) {
    tiers.add_row({Cell(preset.name), Cell(preset.spec.to_string()),
                   Cell(preset.summary)});
  }
  tiers.print(os);
}

}  // namespace proxcache
