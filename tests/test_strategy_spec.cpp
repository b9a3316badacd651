// Tests for the strategy-spec grammar (strategy/spec.hpp): parse /
// to_string round trips, whitespace and case tolerance, symbolic keyword
// canonicalization, and precise error messages on malformed input.
#include "strategy/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "strategy/registry.hpp"

namespace proxcache {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// EXPECT that parsing `text` throws std::invalid_argument whose message
/// contains `needle` (gmock is not linked, so substring-check by hand).
void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_strategy_spec(text);
    FAIL() << "expected '" << text << "' to be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find(needle), std::string::npos)
        << "message '" << message << "' does not mention '" << needle << "'";
    // Every parse error echoes the offending input for context.
    EXPECT_NE(message.find(text), std::string::npos)
        << "message '" << message << "' does not echo the input";
  }
}

TEST(StrategySpec, ParsesBareName) {
  const StrategySpec spec = parse_strategy_spec("nearest");
  EXPECT_EQ(spec.name, "nearest");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_FALSE(spec.empty());
}

TEST(StrategySpec, ParsesTheIssueExample) {
  const StrategySpec spec =
      parse_strategy_spec("two-choice(d=2,r=16,beta=0.7,fallback=expand)");
  EXPECT_EQ(spec.name, "two-choice");
  EXPECT_EQ(spec.params.size(), 4u);
  EXPECT_DOUBLE_EQ(spec.get_or("d", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(spec.get_or("r", 0.0), 16.0);
  EXPECT_DOUBLE_EQ(spec.get_or("beta", 0.0), 0.7);
  EXPECT_DOUBLE_EQ(spec.get_or("fallback", -1.0), kSpecFallbackExpand);
}

TEST(StrategySpec, EmptyParenthesesEqualBareName) {
  EXPECT_EQ(parse_strategy_spec("nearest()"), parse_strategy_spec("nearest"));
}

TEST(StrategySpec, ToleratesWhitespaceEverywhere) {
  const StrategySpec spec =
      parse_strategy_spec("  two-choice ( d = 2 ,\t r = 16 )  ");
  EXPECT_EQ(spec.name, "two-choice");
  EXPECT_DOUBLE_EQ(spec.get_or("d", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(spec.get_or("r", 0.0), 16.0);
}

TEST(StrategySpec, LowercasesNamesKeysAndKeywords) {
  const StrategySpec spec =
      parse_strategy_spec("Two-Choice(D=3, Fallback=NEAREST, R=Inf)");
  EXPECT_EQ(spec.name, "two-choice");
  EXPECT_DOUBLE_EQ(spec.get_or("d", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(spec.get_or("fallback", -1.0), kSpecFallbackNearest);
  EXPECT_TRUE(std::isinf(spec.get_or("r", 0.0)));
}

TEST(StrategySpec, ParsesInfAndKeywords) {
  const StrategySpec spec =
      parse_strategy_spec("least-loaded(r=inf, fallback=drop)");
  EXPECT_TRUE(std::isinf(spec.get_or("r", 0.0)));
  EXPECT_DOUBLE_EQ(spec.get_or("fallback", -1.0), kSpecFallbackDrop);
}

TEST(StrategySpec, GetOrFallsBackWhenUnset) {
  const StrategySpec spec = parse_strategy_spec("two-choice(d=4)");
  EXPECT_TRUE(spec.has("d"));
  EXPECT_FALSE(spec.has("r"));
  EXPECT_DOUBLE_EQ(spec.get_or("r", kInf), kInf);
}

TEST(StrategySpec, ToStringCanonicalizes) {
  EXPECT_EQ(parse_strategy_spec(" Nearest ").to_string(), "nearest");
  EXPECT_EQ(parse_strategy_spec("two-choice( r=16,d = 2 )").to_string(),
            "two-choice(d=2, r=16)");  // keys sorted, spacing normalized
  EXPECT_EQ(
      parse_strategy_spec("two-choice(fallback=drop, r=INF)").to_string(),
      "two-choice(fallback=drop, r=inf)");
  EXPECT_EQ(parse_strategy_spec("prox-weighted(alpha=1.5)").to_string(),
            "prox-weighted(alpha=1.5)");
}

TEST(StrategySpec, RoundTripsThroughToString) {
  const char* examples[] = {
      "nearest",
      "two-choice(beta=0.7, d=2, fallback=expand, r=16)",
      "two-choice(fallback=nearest, r=inf, stale=64, wr=1)",
      "least-loaded(fallback=drop, r=8)",
      "prox-weighted(alpha=1.5, d=3)",
  };
  for (const char* text : examples) {
    const StrategySpec spec = parse_strategy_spec(text);
    EXPECT_EQ(parse_strategy_spec(spec.to_string()), spec) << text;
    // Canonical forms are fixed points.
    EXPECT_EQ(spec.to_string(), text);
  }
}

TEST(StrategySpec, RoundTripsEveryRegisteredStrategy) {
  // For each registry entry, build a spec setting every declared parameter
  // to its default and check the full parse(to_string()) round trip.
  for (const StrategyEntry& entry : StrategyRegistry::built_ins().all()) {
    StrategySpec spec;
    spec.name = entry.name;
    EXPECT_EQ(parse_strategy_spec(spec.to_string()), spec) << entry.name;
    for (const ParamRule& rule : entry.params) {
      spec.params[rule.key] = rule.default_value;
    }
    const StrategySpec reparsed = parse_strategy_spec(spec.to_string());
    EXPECT_EQ(reparsed, spec) << entry.name << " -> " << spec.to_string();
    StrategyRegistry::built_ins().validate(reparsed);
  }
}

TEST(StrategySpec, RoundTripsAwkwardDoubles) {
  // Values that need more digits than the default ostream precision.
  StrategySpec spec;
  spec.name = "prox-weighted";
  spec.params["alpha"] = 0.1 + 0.2;  // 0.30000000000000004
  const StrategySpec reparsed = parse_strategy_spec(spec.to_string());
  EXPECT_DOUBLE_EQ(reparsed.get_or("alpha", 0.0), spec.get_or("alpha", 1.0));
}

TEST(StrategySpec, RejectsEmptyAndMissingName) {
  expect_parse_error("", "expected a strategy name");
  expect_parse_error("   ", "expected a strategy name");
  expect_parse_error("(r=2)", "expected a strategy name");
}

TEST(StrategySpec, RejectsMissingParenthesis) {
  expect_parse_error("two-choice(d=2", "expected ',' or ')'");
  expect_parse_error("two-choice d=2", "expected '('");
}

TEST(StrategySpec, RejectsMalformedParameters) {
  expect_parse_error("two-choice(d)", "missing '=value'");
  expect_parse_error("two-choice(d=)", "missing a value");
  expect_parse_error("two-choice(=2)", "expected a parameter key");
  expect_parse_error("two-choice(,)", "expected a parameter key");
  expect_parse_error("two-choice(d=2,)", "expected a parameter key");
}

TEST(StrategySpec, RejectsDuplicateKeys) {
  expect_parse_error("two-choice(d=2, d=3)", "duplicate parameter 'd'");
}

TEST(StrategySpec, RejectsUnknownKeywordValues) {
  expect_parse_error("two-choice(r=huge)",
                     "neither a number nor a known keyword");
  // Keyword values are scoped to their parameter: 'expand' means nothing
  // as a radius.
  expect_parse_error("two-choice(r=expand)",
                     "neither a number nor a known keyword");
}

TEST(StrategySpec, RejectsTrailingGarbage) {
  expect_parse_error("two-choice(d=2) extra", "trailing characters");
  expect_parse_error("nearest!", "unexpected character '!'");
}

}  // namespace
}  // namespace proxcache
