#pragma once
/// \file spec.hpp
/// Typed, open-ended description of a network topology: a registry name
/// plus a flat `key -> double` parameter map, on the same grammar as the
/// strategy specs (util/kvspec.hpp) — same tolerance, same canonical round
/// trip:
///
///     torus(side=64)      grid(side=64)       ring(n=4096)
///     tree(branching=4, depth=6)
///     rgg(n=4096, radius=0.03, seed=1)
///
/// Configs carry a TopologySpec, the TopologyRegistry validates it and
/// binds it to a factory, and CLIs round-trip it through `--topology`.
/// Standalone (no dependency on the registry or the simulator).

#include <span>
#include <string_view>

#include "util/kvspec.hpp"

namespace proxcache {

/// The topology kind: message nouns and (no) keywords.
struct TopologySpecKind {
  static constexpr std::string_view grammar = "topology";
  static constexpr std::string_view noun = "topology";
  static constexpr std::span<const SpecKeyword> keywords{};
};

/// A named topology with keyword parameters. An empty spec makes a config
/// run on its default network (`ExperimentConfig::resolved_topology`).
using TopologySpec = KvSpec<TopologySpecKind>;

/// Parse a topology spec string. Tolerates surrounding/internal whitespace
/// and any letter case; throws std::invalid_argument with a message
/// pinpointing the offending token on malformed input.
[[nodiscard]] inline TopologySpec parse_topology_spec(std::string_view text) {
  return TopologySpec::parse(text);
}

}  // namespace proxcache
