#pragma once
/// \file spec.hpp
/// Typed, open-ended description of an assignment strategy: a registry name
/// plus a flat `key -> double` parameter map. `StrategySpec` is the one
/// currency the whole stack trades in — configs carry it, the registry
/// validates it and binds it to a factory, and CLIs round-trip it through
/// the spec-string grammar
///
///     name                          e.g.  nearest
///     name(k=v, k=v, ...)           e.g.  two-choice(d=2, r=16, beta=0.7,
///                                                    fallback=expand)
///
/// Values are numbers, `inf`, or one of a small set of symbolic keywords
/// that canonicalize to numeric codes (`fallback=expand|nearest|drop`).
/// Parsing is whitespace- and case-insensitive; `to_string()` emits the
/// canonical lowercase form and `parse_strategy_spec(to_string())` is the
/// identity for every representable spec.
///
/// The spec layer is deliberately standalone (no dependency on core config
/// or the registry) so new strategy modules and external tools can speak it
/// without pulling in the simulator.

#include <span>
#include <string_view>

#include "util/kvspec.hpp"

namespace proxcache {

/// Numeric codes for the symbolic `fallback=` keyword. Kept in sync with
/// core/config.hpp's FallbackPolicy by static_asserts in the registry.
inline constexpr double kSpecFallbackExpand = 0.0;
inline constexpr double kSpecFallbackNearest = 1.0;
inline constexpr double kSpecFallbackDrop = 2.0;

/// Symbolic keyword values, keyed by parameter name. Only `fallback` has an
/// enumerated domain today; adding a keyword here automatically teaches both
/// the parser and `to_string`.
inline constexpr SpecKeyword kStrategyKeywords[] = {
    {"fallback", "expand", kSpecFallbackExpand},
    {"fallback", "nearest", kSpecFallbackNearest},
    {"fallback", "drop", kSpecFallbackDrop},
};

/// The strategy kind: message nouns and keyword table (util/kvspec.hpp).
struct StrategySpecKind {
  static constexpr std::string_view grammar = "strategy";
  static constexpr std::string_view noun = "strategy";
  static constexpr std::span<const SpecKeyword> keywords = kStrategyKeywords;
};

/// A named strategy with keyword parameters, e.g.
/// `two-choice(beta=0.7, r=16)`.
using StrategySpec = KvSpec<StrategySpecKind>;

/// Parse a spec string. Tolerates surrounding/internal whitespace and any
/// letter case; throws std::invalid_argument with a message pinpointing the
/// offending token on malformed input (missing parenthesis, missing `=`,
/// duplicate or empty key, unparseable value, trailing garbage).
[[nodiscard]] inline StrategySpec parse_strategy_spec(std::string_view text) {
  return StrategySpec::parse(text);
}

}  // namespace proxcache
