// Topology spec grammar (topology/spec.hpp): identical tolerance and
// round-trip behavior to the strategy grammar it mirrors (both ride on
// util/kvspec.hpp).
#include "topology/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace proxcache {
namespace {

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_topology_spec(text);
    FAIL() << "expected '" << text << "' to be rejected";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("bad topology spec"), std::string::npos)
        << message;
    EXPECT_NE(message.find(needle), std::string::npos)
        << "message '" << message << "' does not mention '" << needle << "'";
  }
}

TEST(TopologySpec, ParsesBareNameAndParameters) {
  const TopologySpec bare = parse_topology_spec("ring");
  EXPECT_EQ(bare.name, "ring");
  EXPECT_TRUE(bare.params.empty());

  const TopologySpec tree =
      parse_topology_spec("tree(branching=4, depth=6)");
  EXPECT_EQ(tree.name, "tree");
  EXPECT_EQ(tree.get_or("branching", 0.0), 4.0);
  EXPECT_EQ(tree.get_or("depth", 0.0), 6.0);
  EXPECT_FALSE(tree.has("side"));
}

TEST(TopologySpec, IsWhitespaceAndCaseTolerant) {
  const TopologySpec spec =
      parse_topology_spec("  RGG ( N = 512 ,  Radius = 0.1, SEED=9 )  ");
  EXPECT_EQ(spec.name, "rgg");
  EXPECT_EQ(spec.get_or("n", 0.0), 512.0);
  EXPECT_EQ(spec.get_or("radius", 0.0), 0.1);
  EXPECT_EQ(spec.get_or("seed", 0.0), 9.0);
}

TEST(TopologySpec, ToStringRoundTripsCanonically) {
  for (const char* text :
       {"torus(side=64)", "grid(side=3)", "ring(n=4096)",
        "tree(branching=4, depth=6)", "rgg(n=512, radius=0.03, seed=7)"}) {
    const TopologySpec spec = parse_topology_spec(text);
    EXPECT_EQ(spec.to_string(), text);
    EXPECT_EQ(parse_topology_spec(spec.to_string()), spec);
  }
}

TEST(TopologySpec, RejectsMalformedInputWithPreciseMessages) {
  expect_parse_error("", "expected a topology name");
  expect_parse_error("ring(n=4096", "expected ',' or ')'");
  expect_parse_error("ring(n)", "missing '=value'");
  expect_parse_error("ring(n=)", "missing a value");
  expect_parse_error("ring(n=4, n=5)", "duplicate parameter 'n'");
  expect_parse_error("ring(n=abc)", "neither a number nor a known keyword");
  expect_parse_error("ring(n=1) x", "trailing characters");
  expect_parse_error("ring{n=1}", "expected '('");
}

}  // namespace
}  // namespace proxcache
