#pragma once
/// \file registry.hpp
/// Named workload presets ("scenarios"): an `ExperimentConfig` with the
/// workload knobs (popularity, origins, trace process) filled in and the
/// strategy left at its default, so runners can sweep a scenario × strategy
/// matrix. The built-in registry covers the paper's baselines plus one
/// preset per trace process in scenario/generators.hpp.

#include <string>
#include <string_view>

#include "core/config.hpp"
#include "util/spec_registry.hpp"

namespace proxcache {

/// One named workload preset.
struct Scenario {
  static constexpr std::string_view noun = "scenario";

  std::string name;     ///< registry key, e.g. "flash-crowd"
  std::string summary;  ///< one-line description for --list output
  ExperimentConfig config;
};

/// Immutable collection of named scenarios (`all`/`find`/`at`/`names`).
class ScenarioRegistry : public NamedCatalog<Scenario> {
 public:
  /// The built-in presets (constructed once, validated).
  static const ScenarioRegistry& built_ins();

 private:
  ScenarioRegistry();
};

}  // namespace proxcache
