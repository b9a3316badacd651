#pragma once
/// \file cli.hpp
/// Minimal dependency-free command-line option parser used by the `paper`
/// and example binaries.
///
/// Usage:
/// ```
/// ArgParser args("tradeoff_explorer", "sweep the proximity radius");
/// args.add_int("n", 2025, "number of servers (perfect square)");
/// args.add_flag("table", "print an aligned table instead of CSV");
/// args.parse(argc, argv);          // throws CliError on bad input
/// const auto n = args.get_int("n");
/// ```
/// `--help` prints the registered options and causes `parse` to report
/// `help_requested() == true`; callers are expected to exit cleanly.

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace proxcache {

/// Raised on malformed command lines (unknown flag, missing/bad value).
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declarative command-line parser for `--name value` / `--flag` options.
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Register an integer option with a default value. A command-line value
  /// outside [min, max] makes `parse` throw CliError.
  void add_int(const std::string& name, std::int64_t def,
               const std::string& help,
               std::int64_t min = std::numeric_limits<std::int64_t>::min(),
               std::int64_t max = std::numeric_limits<std::int64_t>::max());
  /// Register a floating-point option with a default value.
  void add_double(const std::string& name, double def, const std::string& help);
  /// Register a string option with a default value.
  void add_string(const std::string& name, std::string def,
                  const std::string& help);
  /// Register a boolean flag (false unless present on the command line).
  void add_flag(const std::string& name, const std::string& help);
  /// Register a repeatable string option: every occurrence appends to the
  /// list, so `--strategy a --strategy b` yields {"a", "b"}. The defaults
  /// apply only when the option never appears.
  void add_string_list(const std::string& name,
                       std::vector<std::string> defaults,
                       const std::string& help);

  /// Parse `argv`; throws CliError on malformed input. Returns *this.
  ArgParser& parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& get_string_list(
      const std::string& name) const;

  /// True if `--help` appeared; callers should print `help_text()` and exit.
  [[nodiscard]] bool help_requested() const { return help_requested_; }

  /// Human-readable option summary.
  [[nodiscard]] std::string help_text() const;

  /// True if the option was explicitly set on the command line.
  [[nodiscard]] bool was_set(const std::string& name) const;

 private:
  enum class Kind { Int, Double, String, Flag, StringList };

  struct Option {
    Kind kind;
    std::string help;
    std::int64_t int_value = 0;
    std::int64_t int_min = 0;
    std::int64_t int_max = 0;
    double double_value = 0.0;
    std::string string_value;
    std::vector<std::string> list_value;
    bool flag_value = false;
    bool set_on_cli = false;
  };

  const Option& find(const std::string& name, Kind kind) const;
  void register_option(const std::string& name, Option opt);

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
  bool help_requested_ = false;
};

}  // namespace proxcache
