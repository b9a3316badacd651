// Property/fuzz suite for the shared `name(key=value, ...)` grammar
// (util/kvspec.hpp) through all three of its clients — strategy, topology
// and cache-policy specs — in one place:
//
//  1. seeded random round trips driven by the registries' own parameter
//     rules (every legal key, values across each rule's range, integral and
//     symbolic-keyword values, `inf` where the range allows it);
//  2. raw-grammar round trips over arbitrary names/keys/values (negatives,
//     exponents, huge integers past the bare-print cutoff);
//  3. a malformed-input corpus locking the exact error messages — the
//     parser's diagnostics are API (CLIs print them verbatim), so a rewording
//     is a breaking change this test makes visible;
//  4. a registry corpus locking the catalogs' full messages for specs that
//     parse but do not validate, and for entries `add` refuses.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "event/cache_policy.hpp"
#include "random/rng.hpp"
#include "scenario/registry.hpp"
#include "strategy/registry.hpp"
#include "strategy/spec.hpp"
#include "tier/registry.hpp"
#include "topology/registry.hpp"
#include "topology/spec.hpp"

namespace proxcache {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Draw a legal value for one rule: integral rules get whole numbers near
/// the low end of the range (huge ranges stay finite), real rules get a
/// uniform draw over the (clamped) range, and an unbounded rule
/// occasionally yields `inf`.
double draw_value(Rng& rng, double min_value, double max_value,
                  bool integral) {
  if (std::isinf(max_value) && rng.below(4) == 0) return kInf;
  const double lo = min_value;
  const double hi = std::isinf(max_value)
                        ? lo + 1000.0
                        : std::min(max_value, lo + 1.0e9);
  if (integral) {
    const double lo_int = std::ceil(lo);
    const auto span = static_cast<std::uint64_t>(
        std::min(1000.0, std::floor(hi) - lo_int));
    return lo_int + static_cast<double>(rng.below(span + 1));
  }
  return lo + rng.uniform() * (hi - lo);
}

// Registry-driven round trips: for every registered strategy, random
// subsets of its legal parameters with in-range values must survive
// to_string → parse exactly (doubles bit-equal — the formatter promises
// round-trip precision).
TEST(KvSpecFuzz, StrategyRegistryRoundTrips) {
  Rng rng(0xF022);
  for (const StrategyEntry& entry : StrategyRegistry::built_ins().all()) {
    for (int iteration = 0; iteration < 64; ++iteration) {
      StrategySpec spec;
      spec.name = entry.name;
      for (const ParamRule& rule : entry.params) {
        if (rng.below(2) == 0) continue;  // random subset of keys
        spec.params[rule.key] =
            draw_value(rng, rule.min_value, rule.max_value, rule.integral);
      }
      const std::string text = spec.to_string();
      EXPECT_EQ(parse_strategy_spec(text), spec) << text;
    }
  }
}

TEST(KvSpecFuzz, TopologyRegistryRoundTrips) {
  Rng rng(0xF023);
  for (const TopologyEntry& entry : TopologyRegistry::built_ins().all()) {
    for (int iteration = 0; iteration < 64; ++iteration) {
      TopologySpec spec;
      spec.name = entry.name;
      for (const ParamRule& rule : entry.params) {
        if (rng.below(2) == 0) continue;
        spec.params[rule.key] =
            draw_value(rng, rule.min_value, rule.max_value, rule.integral);
      }
      const std::string text = spec.to_string();
      EXPECT_EQ(parse_topology_spec(text), spec) << text;
    }
  }
}

TEST(KvSpecFuzz, CachePolicyRegistryRoundTrips) {
  Rng rng(0xF025);
  for (const CachePolicyEntry& entry : CachePolicyRegistry::built_ins().all()) {
    for (int iteration = 0; iteration < 64; ++iteration) {
      CachePolicySpec spec;
      spec.name = entry.name;
      for (const ParamRule& rule : entry.params) {
        if (rng.below(2) == 0) continue;
        spec.params[rule.key] =
            draw_value(rng, rule.min_value, rule.max_value, rule.integral);
      }
      const std::string text = spec.to_string();
      EXPECT_EQ(parse_cache_policy_spec(text), spec) << text;
    }
  }
}

// Raw-grammar round trips past the registries: arbitrary lowercase names
// and keys, values spanning negatives, exponent-range doubles, integers
// past the bare-print cutoff, and inf. Both spec kinds share one scanner,
// so exercising either exercises both; we alternate anyway.
TEST(KvSpecFuzz, ArbitraryValueRoundTrips) {
  Rng rng(0xF024);
  const auto random_word = [&](std::size_t min_len) {
    static constexpr char alphabet[] = "abcdefghijklmnopqrstuvwxyz";
    std::string word;
    const std::size_t len = min_len + rng.below(6);
    for (std::size_t i = 0; i < len; ++i) {
      word.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    return word;
  };
  const auto random_value = [&]() -> double {
    switch (rng.below(5)) {
      case 0:  // small integer, negative half the time
        return (rng.below(2) == 0 ? -1.0 : 1.0) *
               static_cast<double>(rng.below(1000));
      case 1:  // integer past the bare-print cutoff (1e15)
        return 1.0e15 + static_cast<double>(rng.below(1u << 20));
      case 2:  // tiny magnitude (exponent formatting)
        return (rng.uniform() - 0.5) * 1e-7;
      case 3:
        return kInf;
      default:  // generic double
        return (rng.uniform() - 0.5) * 2.0e6;
    }
  };
  for (int iteration = 0; iteration < 512; ++iteration) {
    StrategySpec spec;
    spec.name = random_word(1);
    const std::size_t keys = rng.below(4);
    for (std::size_t k = 0; k < keys; ++k) {
      spec.params[random_word(1)] = random_value();
    }
    const std::string text = spec.to_string();
    EXPECT_EQ(parse_strategy_spec(text), spec) << text;
    // The identical grammar backs topology specs.
    TopologySpec topo;
    topo.name = spec.name;
    topo.params = spec.params;
    EXPECT_EQ(parse_topology_spec(text), topo) << text;
  }
}

// Whitespace and case insensitivity; symbolic keywords canonicalize.
TEST(KvSpecFuzz, WhitespaceCaseAndKeywords) {
  EXPECT_EQ(parse_strategy_spec("  TWO-CHOICE ( D = 2 , R = Inf )  "),
            parse_strategy_spec("two-choice(d=2,r=inf)"));
  const StrategySpec spec =
      parse_strategy_spec("two-choice(fallback=Drop)");
  EXPECT_EQ(spec.params.at("fallback"), kSpecFallbackDrop);
  EXPECT_EQ(spec.to_string(), "two-choice(fallback=drop)");
  EXPECT_EQ(parse_strategy_spec("two-choice(fallback=2)").to_string(),
            "two-choice(fallback=drop)");
}

/// Assert `parse(text)` throws std::invalid_argument with exactly
/// `expected` — the diagnostics contract.
template <typename ParseFn>
void expect_error(ParseFn parse, const std::string& text,
                  const std::string& expected) {
  try {
    (void)parse(text);
    FAIL() << "expected parse failure for: " << text;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), expected) << text;
  }
}

TEST(KvSpecFuzz, MalformedStrategyCorpusLocksMessages) {
  const auto parse = [](const std::string& text) {
    return parse_strategy_spec(text);
  };
  expect_error(parse, "", "bad strategy spec '': expected a strategy name");
  expect_error(parse, "(d=2)",
               "bad strategy spec '(d=2)': expected a strategy name");
  expect_error(parse, "two-choice]",
               "bad strategy spec 'two-choice]': unexpected character ']' "
               "after the strategy name (expected '(')");
  expect_error(parse, "two-choice(",
               "bad strategy spec 'two-choice(': expected a parameter key");
  expect_error(parse, "two-choice(d)",
               "bad strategy spec 'two-choice(d)': parameter 'd' is missing "
               "'=value'");
  expect_error(parse, "two-choice(d=)",
               "bad strategy spec 'two-choice(d=)': parameter 'd' is missing "
               "a value");
  expect_error(parse, "two-choice(d=2, d=3)",
               "bad strategy spec 'two-choice(d=2, d=3)': duplicate "
               "parameter 'd'");
  expect_error(parse, "two-choice(d=zz)",
               "bad strategy spec 'two-choice(d=zz)': value 'zz' for key 'd' "
               "is neither a number nor a known keyword");
  expect_error(parse, "two-choice(d=2",
               "bad strategy spec 'two-choice(d=2': expected ',' or ')' "
               "after parameter 'd'");
  expect_error(parse, "two-choice() tail",
               "bad strategy spec 'two-choice() tail': trailing characters "
               "after ')': 't...'");
}

TEST(KvSpecFuzz, MalformedTopologyCorpusLocksMessages) {
  const auto parse = [](const std::string& text) {
    return parse_topology_spec(text);
  };
  expect_error(parse, "", "bad topology spec '': expected a topology name");
  expect_error(parse, "ring n=4",
               "bad topology spec 'ring n=4': unexpected character 'n' after "
               "the topology name (expected '(')");
  expect_error(parse, "ring(n",
               "bad topology spec 'ring(n': parameter 'n' is missing "
               "'=value'");
  expect_error(parse, "ring(n=4)x",
               "bad topology spec 'ring(n=4)x': trailing characters after "
               "')': 'x...'");
  expect_error(parse, "ring(n=4,n=5)",
               "bad topology spec 'ring(n=4,n=5)': duplicate parameter 'n'");
}

TEST(KvSpecFuzz, MalformedCachePolicyCorpusLocksMessages) {
  const auto parse = [](const std::string& text) {
    return parse_cache_policy_spec(text);
  };
  expect_error(parse, "",
               "bad cache-policy spec '': expected a cache-policy name");
  expect_error(parse, "(capacity=4)",
               "bad cache-policy spec '(capacity=4)': expected a cache-policy "
               "name");
  expect_error(parse, "lru capacity=4",
               "bad cache-policy spec 'lru capacity=4': unexpected character "
               "'c' after the cache-policy name (expected '(')");
  expect_error(parse, "lru(capacity",
               "bad cache-policy spec 'lru(capacity': parameter 'capacity' is "
               "missing '=value'");
  expect_error(parse, "lru(capacity=)",
               "bad cache-policy spec 'lru(capacity=)': parameter 'capacity' "
               "is missing a value");
  expect_error(parse, "lru(capacity=4, capacity=5)",
               "bad cache-policy spec 'lru(capacity=4, capacity=5)': "
               "duplicate parameter 'capacity'");
  expect_error(parse, "lru(capacity=big)",
               "bad cache-policy spec 'lru(capacity=big)': value 'big' for "
               "key 'capacity' is neither a number nor a known keyword");
  expect_error(parse, "lru(capacity=4",
               "bad cache-policy spec 'lru(capacity=4': expected ',' or ')' "
               "after parameter 'capacity'");
  expect_error(parse, "lru() tail",
               "bad cache-policy spec 'lru() tail': trailing characters "
               "after ')': 't...'");
}

// The registries' diagnostics are API too: every message a CLI prints for
// a well-formed spec the catalogs reject — unknown names in all five
// catalogs, unknown keys, out-of-range and non-integral values, the
// topology node-count cap, and `add`'s refusals — locked in full.
TEST(KvSpecFuzz, RegistryCorpusLocksMessages) {
  const auto strategy = [](const std::string& text) {
    StrategyRegistry::built_ins().validate(parse_strategy_spec(text));
  };
  const auto topology = [](const std::string& text) {
    TopologyRegistry::built_ins().validate(parse_topology_spec(text));
  };
  const auto policy = [](const std::string& text) {
    CachePolicyRegistry::built_ins().validate(parse_cache_policy_spec(text));
  };
  const auto scenario = [](const std::string& name) {
    return ScenarioRegistry::built_ins().at(name);
  };
  const auto tier = [](const std::string& name) {
    return TierRegistry::built_ins().at(name);
  };

  // Unknown names, with the catalog listed in registration order.
  expect_error(strategy, "nope",
               "unknown strategy 'nope' (known: nearest, two-choice, "
               "least-loaded, prox-weighted, cross-two-choice, front-first, "
               "cross-prox-weighted)");
  expect_error(topology, "nope",
               "unknown topology 'nope' (known: torus, grid, ring, clique, "
               "tree, rgg, hyperbolic)");
  expect_error(policy, "nope",
               "unknown cache policy 'nope' (known: static, lru, lfu, ewma)");
  expect_error(scenario, "nope",
               "unknown scenario 'nope' (known: baseline-uniform, "
               "baseline-zipf, hotspot, flash-crowd, diurnal, churn, "
               "temporal-locality, adversarial-topk)");
  expect_error(tier, "nope",
               "unknown tier preset 'nope' (known: cdn, edge-core, "
               "origin-only)");

  // Unknown keys, with the entry's keys in declaration order.
  expect_error(strategy, "two-choice(q=1)",
               "strategy 'two-choice' does not take parameter 'q' (known: d, "
               "r, beta, fallback, wr, stale)");
  expect_error(topology, "torus(n=64)",
               "topology 'torus' does not take parameter 'n' (known: side)");
  expect_error(policy, "lru(depth=3)",
               "cache policy 'lru' does not take parameter 'depth' (known: "
               "capacity)");
  expect_error(policy, "static(capacity=4)",
               "cache policy 'static' does not take parameter 'capacity' "
               "(known: <none>)");

  // Out-of-range values: finite and `inf` bounds, nan, small bounds.
  expect_error(strategy, "two-choice(d=9)",
               "strategy 'two-choice' parameter 'd' = 9 is outside [1, 8]");
  expect_error(strategy, "two-choice(r=-1)",
               "strategy 'two-choice' parameter 'r' = -1 is outside [0, inf]");
  expect_error(strategy, "two-choice(beta=nan)",
               "strategy 'two-choice' parameter 'beta' = nan is outside "
               "[0, 1]");
  expect_error(strategy, "two-choice(d=8.0000001)",
               "strategy 'two-choice' parameter 'd' = 8.0000000999999994 is "
               "outside [1, 8]");
  expect_error(strategy, "two-choice(stale=4294967296)",
               "strategy 'two-choice' parameter 'stale' = 4294967296 is "
               "outside [1, 4294967295]");
  expect_error(topology, "torus(side=0)",
               "topology 'torus' parameter 'side' = 0 is outside [1, 8192]");
  expect_error(topology, "rgg(radius=0)",
               "topology 'rgg' parameter 'radius' = 0 is outside [1e-09, "
               "1.5]");
  expect_error(topology, "rgg(n=16777217)",
               "topology 'rgg' parameter 'n' = 16777217 is outside [2, "
               "16777216]");
  expect_error(policy, "ewma(decay=-0.1)",
               "cache policy 'ewma' parameter 'decay' = -0.1 is outside [0, "
               "inf]");

  // Non-integral values for whole-number keys.
  expect_error(strategy, "two-choice(d=2.5)",
               "strategy 'two-choice' parameter 'd' = 2.5 must be an "
               "integer");
  expect_error(topology, "torus(side=2.5)",
               "topology 'torus' parameter 'side' = 2.5 must be an integer");
  expect_error(policy, "lru(capacity=2.5)",
               "cache policy 'lru' parameter 'capacity' = 2.5 must be an "
               "integer");

  // Per-key ranges pass, the implied node count does not.
  expect_error(topology, "tree(branching=4, depth=14)",
               "topology 'tree' implies 357913941 nodes, outside [1, "
               "134217728]");
  expect_error(topology, "tree(branching=3, depth=24)",
               "topology 'tree' implies more than 4294967295 nodes "
               "(overflows the node id space), outside [1, 134217728]");

  // The batch helpers fail with the registry's own message.
  expect_error(
      [](const std::string& text) {
        (void)parse_validated_specs({"nearest", text});
      },
      "nope",
      "unknown strategy 'nope' (known: nearest, two-choice, least-loaded, "
      "prox-weighted, cross-two-choice, front-first, cross-prox-weighted)");
  expect_error(
      [](const std::string& text) {
        (void)parse_validated_topology_specs({"ring", text});
      },
      "ring(n=0)",
      "topology 'ring' parameter 'n' = 0 is outside [1, 134217728]");
  expect_error(
      [](const std::string& text) {
        (void)parse_validated_policy_specs({"lru", text});
      },
      "lfu(capacity=-1)",
      "cache policy 'lfu' parameter 'capacity' = -1 is outside [0, "
      "4294967295]");
}

TEST(KvSpecFuzz, RegistryAddCorpusLocksMessages) {
  const auto add_strategy = [](const std::string& name) {
    StrategyRegistry registry = StrategyRegistry::with_built_ins();
    StrategyEntry entry = StrategyRegistry::built_ins().at("nearest");
    entry.name = name;
    if (name == "ghost") entry.factory = nullptr;
    registry.add(entry);
  };
  expect_error(add_strategy, "", "strategy entry needs a non-empty name");
  expect_error(add_strategy, "ghost",
               "strategy 'ghost' registered without a factory");
  expect_error(add_strategy, "nearest",
               "strategy 'nearest' is already registered");

  const auto add_topology = [](const std::string& name) {
    TopologyRegistry registry = TopologyRegistry::with_built_ins();
    TopologyEntry entry = TopologyRegistry::built_ins().at("ring");
    entry.name = name;
    if (name == "ghost") entry.factory = nullptr;
    if (name == "shapeless") entry.node_count = nullptr;
    registry.add(entry);
  };
  expect_error(add_topology, "", "topology entry needs a non-empty name");
  expect_error(add_topology, "ghost",
               "topology 'ghost' registered without a factory");
  expect_error(add_topology, "shapeless",
               "topology 'shapeless' registered without a node_count");
  expect_error(add_topology, "ring", "topology 'ring' is already registered");

  const auto add_policy = [](const std::string& name) {
    CachePolicyRegistry registry = CachePolicyRegistry::with_built_ins();
    CachePolicyEntry entry = CachePolicyRegistry::built_ins().at("lru");
    entry.name = name;
    if (name == "ghost") entry.factory = nullptr;
    registry.add(entry);
  };
  expect_error(add_policy, "", "cache-policy entry needs a non-empty name");
  expect_error(add_policy, "ghost",
               "cache policy 'ghost' registered without a factory");
  expect_error(add_policy, "lru", "cache policy 'lru' is already registered");
}

TEST(KvSpecFuzz, TruncatedCachePolicySpecsAlwaysThrow) {
  const std::string full = "ewma(capacity=8, decay=0.25)";
  for (std::size_t len = full.find('(') + 1; len < full.size(); ++len) {
    const std::string prefix = full.substr(0, len);
    EXPECT_THROW((void)parse_cache_policy_spec(prefix), std::invalid_argument)
        << prefix;
  }
}

// Fuzzed malformed inputs: truncating any valid spec string inside the
// parenthesized section must throw std::invalid_argument (never crash,
// never accept). This sweeps the scanner's error branches with arbitrary
// prefixes.
TEST(KvSpecFuzz, TruncatedSpecsAlwaysThrow) {
  const std::string full = "two-choice(beta=0.7, d=2, fallback=nearest, r=16)";
  for (std::size_t len = full.find('(') + 1; len < full.size(); ++len) {
    const std::string prefix = full.substr(0, len);
    EXPECT_THROW((void)parse_strategy_spec(prefix), std::invalid_argument)
        << prefix;
  }
}

}  // namespace
}  // namespace proxcache
