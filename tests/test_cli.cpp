// Tests for util/cli: parsing, defaults, error reporting and help output.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/config.hpp"

namespace proxcache {
namespace {

ArgParser make_parser() {
  ArgParser args("prog", "test program");
  args.add_int("n", 2025, "node count");
  args.add_double("gamma", 0.8, "zipf parameter");
  args.add_string("topology", "torus", "wrap mode");
  args.add_flag("full", "paper scale");
  return args;
}

std::vector<const char*> argv_of(std::initializer_list<const char*> items) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), items.begin(), items.end());
  return argv;
}

TEST(Cli, DefaultsApplyWithoutArguments) {
  ArgParser args = make_parser();
  const auto argv = argv_of({});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("n"), 2025);
  EXPECT_DOUBLE_EQ(args.get_double("gamma"), 0.8);
  EXPECT_EQ(args.get_string("topology"), "torus");
  EXPECT_FALSE(args.get_flag("full"));
  EXPECT_FALSE(args.was_set("n"));
}

TEST(Cli, ParsesSeparatedValues) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"--n", "100", "--gamma", "1.5", "--topology",
                             "grid", "--full"});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(args.get_double("gamma"), 1.5);
  EXPECT_EQ(args.get_string("topology"), "grid");
  EXPECT_TRUE(args.get_flag("full"));
  EXPECT_TRUE(args.was_set("n"));
}

TEST(Cli, ParsesEqualsSyntax) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"--n=64", "--gamma=2.0"});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("n"), 64);
  EXPECT_DOUBLE_EQ(args.get_double("gamma"), 2.0);
}

TEST(Cli, NegativeNumbersParse) {
  ArgParser args("p", "d");
  args.add_int("offset", 0, "signed value");
  const auto argv = argv_of({"--offset", "-5"});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("offset"), -5);
}

TEST(Cli, IntRangeIsCheckedAtParse) {
  ArgParser args("p", "d");
  args.add_int("threads", 0, "workers", 0, 1024);
  args.add_int("runs", 20, "replications", 1);
  const std::pair<std::vector<const char*>, const char*> rejected[] = {
      {argv_of({"--threads", "-1"}),
       "option --threads must be in [0, 1024], got -1"},
      {argv_of({"--threads", "1025"}),
       "option --threads must be in [0, 1024], got 1025"},
      {argv_of({"--runs", "0"}), "option --runs must be >= 1, got 0"},
      {argv_of({"--runs=-1"}), "option --runs must be >= 1, got -1"},
  };
  for (const auto& [argv, message] : rejected) {
    try {
      args.parse(static_cast<int>(argv.size()), argv.data());
      ADD_FAILURE() << "accepted: " << message;
    } catch (const CliError& error) {
      EXPECT_STREQ(error.what(), message);
    }
  }
  const auto argv = argv_of({"--threads", "1024", "--runs", "1"});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("threads"), 1024);
  EXPECT_EQ(args.get_int("runs"), 1);
}

TEST(Cli, UnknownOptionThrows) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"--bogus", "1"});
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               CliError);
}

TEST(Cli, MissingValueThrows) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"--n"});
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               CliError);
}

TEST(Cli, BadTypeThrows) {
  {
    ArgParser args = make_parser();
    const auto argv = argv_of({"--n", "abc"});
    EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
                 CliError);
  }
  {
    ArgParser args = make_parser();
    const auto argv = argv_of({"--gamma", "abc"});
    EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
                 CliError);
  }
}

TEST(Cli, FlagRejectsValue) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"--full=yes"});
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               CliError);
}

TEST(Cli, PositionalArgumentsRejected) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"positional"});
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               CliError);
}

TEST(Cli, HelpRequested) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"--help"});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.help_requested());
  const std::string help = args.help_text();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("--gamma"), std::string::npos);
  EXPECT_NE(help.find("test program"), std::string::npos);
}

TEST(Cli, WrongTypeAccessThrows) {
  ArgParser args = make_parser();
  const auto argv = argv_of({});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW(static_cast<void>(args.get_double("n")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(args.get_int("unknown")), std::invalid_argument);
}

TEST(Cli, DuplicateRegistrationRejected) {
  ArgParser args("p", "d");
  args.add_int("x", 1, "first");
  EXPECT_THROW(args.add_flag("x", "again"), std::invalid_argument);
}

TEST(Cli, LastOccurrenceWins) {
  ArgParser args = make_parser();
  const auto argv = argv_of({"--n", "10", "--n", "20"});
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("n"), 20);
}

TEST(Cli, StringListDefaultsApplyWhenAbsent) {
  ArgParser args("p", "d");
  args.add_string_list("strategy", {"nearest", "two-choice"}, "spec");
  const auto argv = argv_of({});
  args.parse(static_cast<int>(argv.size()), argv.data());
  const std::vector<std::string> expected = {"nearest", "two-choice"};
  EXPECT_EQ(args.get_string_list("strategy"), expected);
  EXPECT_FALSE(args.was_set("strategy"));
}

TEST(Cli, StringListAccumulatesAndReplacesDefaults) {
  ArgParser args("p", "d");
  args.add_string_list("strategy", {"nearest"}, "spec");
  const auto argv = argv_of(
      {"--strategy", "least-loaded(r=8)", "--strategy=prox-weighted(d=2)"});
  args.parse(static_cast<int>(argv.size()), argv.data());
  const std::vector<std::string> expected = {"least-loaded(r=8)",
                                             "prox-weighted(d=2)"};
  EXPECT_EQ(args.get_string_list("strategy"), expected);
  EXPECT_TRUE(args.was_set("strategy"));
}

TEST(Cli, StringListHelpMarksRepeatable) {
  ArgParser args("p", "d");
  args.add_string_list("strategy", {"nearest"}, "spec");
  EXPECT_NE(args.help_text().find("repeatable"), std::string::npos);
}

// CLI-facing config validation: the knobs bench/example binaries forward
// from the command line must be rejected by ExperimentConfig::validate()
// before a run starts, not fail deep inside the simulator.

TEST(CliConfigValidation, RejectsOutOfRangeBetaFromCli) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.strategy_spec = parse_strategy_spec("two-choice(beta=2)");
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CliConfigValidation, RejectsHotspotRadiusCoveringTheLattice) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.origins.kind = OriginKind::Hotspot;
  config.origins.hotspot_radius = 12;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(CliConfigValidation, RejectsZeroStaleBatchFromCli) {
  ExperimentConfig config;
  config.topology_spec = parse_topology_spec("torus(side=10)");
  config.strategy_spec = parse_strategy_spec("two-choice(stale=0)");
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace proxcache
