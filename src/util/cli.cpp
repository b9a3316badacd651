#include "util/cli.hpp"

#include <charconv>
#include <sstream>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

std::int64_t parse_int(const std::string& name, const std::string& text) {
  std::int64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    throw CliError("option --" + name + " expects an integer, got '" + text +
                   "'");
  }
  return value;
}

double parse_double(const std::string& name, const std::string& text) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw CliError("option --" + name + " expects a number, got '" + text +
                   "'");
  }
}

/// "in [lo, hi]", or ">= lo" when the range has no upper bound.
std::string range_text(std::int64_t lo, std::int64_t hi) {
  if (hi == std::numeric_limits<std::int64_t>::max()) {
    return ">= " + std::to_string(lo);
  }
  return "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::register_option(const std::string& name, Option opt) {
  PROXCACHE_REQUIRE(!name.empty(), "option name must be non-empty");
  PROXCACHE_REQUIRE(options_.find(name) == options_.end(),
                    "duplicate option --" + name);
  options_.emplace(name, std::move(opt));
  order_.push_back(name);
}

void ArgParser::add_int(const std::string& name, std::int64_t def,
                        const std::string& help, std::int64_t min,
                        std::int64_t max) {
  Option opt;
  opt.kind = Kind::Int;
  opt.help = help;
  opt.int_value = def;
  opt.int_min = min;
  opt.int_max = max;
  register_option(name, std::move(opt));
}

void ArgParser::add_double(const std::string& name, double def,
                           const std::string& help) {
  Option opt;
  opt.kind = Kind::Double;
  opt.help = help;
  opt.double_value = def;
  register_option(name, std::move(opt));
}

void ArgParser::add_string(const std::string& name, std::string def,
                           const std::string& help) {
  Option opt;
  opt.kind = Kind::String;
  opt.help = help;
  opt.string_value = std::move(def);
  register_option(name, std::move(opt));
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  Option opt;
  opt.kind = Kind::Flag;
  opt.help = help;
  register_option(name, std::move(opt));
}

void ArgParser::add_string_list(const std::string& name,
                                std::vector<std::string> defaults,
                                const std::string& help) {
  Option opt;
  opt.kind = Kind::StringList;
  opt.help = help;
  opt.list_value = std::move(defaults);
  register_option(name, std::move(opt));
}

ArgParser& ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      help_requested_ = true;
      continue;
    }
    if (token.rfind("--", 0) != 0) {
      throw CliError("unexpected positional argument '" + token + "'");
    }
    std::string name = token.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw CliError("unknown option --" + name + " (try --help)");
    }
    Option& opt = it->second;
    // The first command-line occurrence of a list option clears the
    // registered defaults; later occurrences append.
    if (opt.kind == Kind::StringList && !opt.set_on_cli) {
      opt.list_value.clear();
    }
    opt.set_on_cli = true;
    if (opt.kind == Kind::Flag) {
      if (has_inline) {
        throw CliError("flag --" + name + " does not take a value");
      }
      opt.flag_value = true;
      continue;
    }
    std::string value;
    if (has_inline) {
      value = inline_value;
    } else {
      if (i + 1 >= argc) {
        throw CliError("option --" + name + " requires a value");
      }
      value = argv[++i];
    }
    switch (opt.kind) {
      case Kind::Int:
        opt.int_value = parse_int(name, value);
        if (opt.int_value < opt.int_min || opt.int_value > opt.int_max) {
          throw CliError("option --" + name + " must be " +
                         range_text(opt.int_min, opt.int_max) + ", got " +
                         value);
        }
        break;
      case Kind::Double:
        opt.double_value = parse_double(name, value);
        break;
      case Kind::String:
        opt.string_value = value;
        break;
      case Kind::StringList:
        opt.list_value.push_back(value);
        break;
      case Kind::Flag:
        break;  // handled above
    }
  }
  return *this;
}

const ArgParser::Option& ArgParser::find(const std::string& name,
                                         Kind kind) const {
  auto it = options_.find(name);
  PROXCACHE_REQUIRE(it != options_.end(), "option --" + name + " not declared");
  PROXCACHE_REQUIRE(it->second.kind == kind,
                    "option --" + name + " accessed with wrong type");
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return find(name, Kind::Int).int_value;
}

double ArgParser::get_double(const std::string& name) const {
  return find(name, Kind::Double).double_value;
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::String).string_value;
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name, Kind::Flag).flag_value;
}

const std::vector<std::string>& ArgParser::get_string_list(
    const std::string& name) const {
  return find(name, Kind::StringList).list_value;
}

bool ArgParser::was_set(const std::string& name) const {
  auto it = options_.find(name);
  PROXCACHE_REQUIRE(it != options_.end(), "option --" + name + " not declared");
  return it->second.set_on_cli;
}

std::string ArgParser::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::Int:
        os << " <int>      (default " << opt.int_value << ")";
        break;
      case Kind::Double:
        os << " <float>    (default " << opt.double_value << ")";
        break;
      case Kind::String:
        os << " <string>   (default '" << opt.string_value << "')";
        break;
      case Kind::StringList: {
        os << " <string>   (repeatable; default";
        if (opt.list_value.empty()) os << " empty";
        for (const std::string& item : opt.list_value) {
          os << " '" << item << "'";
        }
        os << ")";
        break;
      }
      case Kind::Flag:
        os << "            (flag)";
        break;
    }
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace proxcache
