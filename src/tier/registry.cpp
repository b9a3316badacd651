#include "tier/registry.hpp"

#include <stdexcept>

namespace proxcache {

namespace {

TierPreset make(std::string name, std::string summary, const char* spec) {
  TierPreset preset;
  preset.name = std::move(name);
  preset.summary = std::move(summary);
  preset.spec = parse_tier_spec(spec);
  return preset;
}

}  // namespace

TierRegistry::TierRegistry() {
  // The canonical CDN shape of the bench block: eight edge PoPs over a
  // deliberately small regional back-end ring — small enough that a slice
  // of the library exists only at other PoPs or the origin, which is
  // exactly the regime where cross-tier candidate sets earn their keep.
  items_.push_back(make(
      "cdn", "8 torus edge PoPs over a 64-node back-end ring and an origin",
      "tiers(front=torus(side=8)x8, back=ring(n=64), origin=1)"));
  items_.push_back(make(
      "edge-core",
      "4 large edge tori over a torus core, fatter back-end caches",
      "tiers(front=torus(side=16)x4, back=torus(side=8), back_cache=20, origin=1)"));
  items_.push_back(make(
      "origin-only",
      "one flat torus backed directly by an origin (no mid tiers)",
      "tiers(front=torus(side=32), origin=1)"));
}

const TierRegistry& TierRegistry::built_ins() {
  static const TierRegistry registry;
  return registry;
}

TierSpec TierRegistry::resolve(const std::string& text) const {
  if (const TierPreset* preset = find(text)) return preset->spec;
  try {
    return parse_tier_spec(text);
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(std::string(error.what()) +
                                " (known presets: " + names() + ")");
  }
}

}  // namespace proxcache
