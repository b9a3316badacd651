#pragma once
/// \file kvspec.hpp
/// The shared `name(key=value, ...)` spec-string grammar behind all three
/// spec kinds: strategies (strategy/spec.hpp), topologies
/// (topology/spec.hpp) and cache policies (event/cache_policy.hpp). One
/// scanner, one value formatter and one spec template, so the kinds cannot
/// drift apart: all are whitespace- and case-insensitive, accept numbers /
/// `inf` / per-key symbolic keywords, and emit the same canonical lowercase
/// form with sorted keys.
///
/// Deliberately standalone (no dependency on the registries or the
/// simulator) so external tools can speak the grammar too.

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace proxcache {

/// A symbolic keyword value for one parameter key (e.g. `fallback=expand`
/// canonicalizing to code 0). The tables are per-spec-kind and teach both
/// the parser and the formatter.
struct SpecKeyword {
  const char* param;
  const char* word;
  double code;
};

/// Parsed `name(key=value, ...)` form.
struct ParsedKvSpec {
  std::string name;
  std::map<std::string, double> params;
};

/// Parse `text` as `name` or `name(k=v, ...)`. `kind` names the grammar in
/// error messages ("strategy", "cache-policy"): malformed input throws
/// std::invalid_argument as `bad <kind> spec '<text>': <detail>` with the
/// offending token pinpointed.
[[nodiscard]] ParsedKvSpec parse_kv_spec(std::string_view text,
                                         std::string_view kind,
                                         std::span<const SpecKeyword> keywords);

/// Canonical spec string: lowercase name, sorted keys, integers bare,
/// `inf` and keywords symbolic.
[[nodiscard]] std::string kv_spec_to_string(
    const std::string& name, const std::map<std::string, double>& params,
    std::span<const SpecKeyword> keywords);

/// Minimal representation of `value` that survives a parse round trip:
/// integers print bare, `inf` stays symbolic, and anything else gets just
/// enough digits. Spec strings and registry messages print numbers with it.
[[nodiscard]] std::string format_spec_number(double value);

/// A named spec of one kind: a registry name plus a flat `key -> double`
/// parameter map. `Kind` is a tag naming the kind in messages and carrying
/// its keyword table:
///
///     static constexpr std::string_view grammar;  // "bad <grammar> spec"
///     static constexpr std::string_view noun;     // "unknown <noun> 'x'"
///     static constexpr std::span<const SpecKeyword> keywords;
///
/// Each kind is its own type, so a topology spec never converts to a
/// strategy spec. Unset keys mean "registry default"; the kind's registry
/// (util/spec_registry.hpp) decides which keys are legal and in what range.
template <typename K>
struct KvSpec {
  using Kind = K;

  std::string name;                      ///< registry key, canonical lowercase
  std::map<std::string, double> params;  ///< explicit parameters only

  /// True when nothing is named (configs then fall back to their defaults).
  [[nodiscard]] bool empty() const { return name.empty(); }

  [[nodiscard]] bool has(const std::string& key) const {
    return params.find(key) != params.end();
  }

  /// Parameter value, or `fallback` when the key is not set.
  [[nodiscard]] double get_or(const std::string& key, double fallback) const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }

  /// Canonical spec string, e.g. `two-choice(beta=0.7, r=16)`;
  /// `parse(to_string())` is the identity for every representable spec.
  [[nodiscard]] std::string to_string() const {
    return kv_spec_to_string(name, params, Kind::keywords);
  }

  /// Parse `text`; malformed input throws std::invalid_argument as
  /// `bad <grammar> spec '<text>': <detail>`.
  [[nodiscard]] static KvSpec parse(std::string_view text) {
    ParsedKvSpec parsed = parse_kv_spec(text, Kind::grammar, Kind::keywords);
    return {std::move(parsed.name), std::move(parsed.params)};
  }

  friend bool operator==(const KvSpec&, const KvSpec&) = default;
};

}  // namespace proxcache
