#pragma once
/// \file registry.hpp
/// Named tier-hierarchy presets: a catalog of ready-made `TierSpec`s so
/// runners can say `--tiers cdn` instead of spelling the full grammar, and
/// so `--list` has a tier catalog to print next to the scenario, strategy,
/// topology and cache-policy catalogs. `resolve` accepts either a preset
/// name or a raw tier-spec string, so every CLI surface takes both.

#include <string>
#include <string_view>

#include "tier/spec.hpp"
#include "util/spec_registry.hpp"

namespace proxcache {

/// One named hierarchy preset.
struct TierPreset {
  static constexpr std::string_view noun = "tier preset";

  std::string name;     ///< registry key, e.g. "cdn"
  std::string summary;  ///< one-line description for --list output
  TierSpec spec;
};

/// Immutable collection of named tier presets (`all`/`find`/`at`/`names`).
class TierRegistry : public NamedCatalog<TierPreset> {
 public:
  /// The built-in presets (constructed once, parse-validated).
  static const TierRegistry& built_ins();

  /// `text` as a TierSpec: a preset name resolves to its spec, anything
  /// else must parse under the tier grammar (tier/spec.hpp). Throws
  /// std::invalid_argument with both vocabularies in the message when
  /// neither applies.
  [[nodiscard]] TierSpec resolve(const std::string& text) const;

 private:
  TierRegistry();
};

}  // namespace proxcache
