#include "util/kvspec.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace proxcache {

namespace {

[[noreturn]] void fail(const std::string& message, std::string_view kind,
                       std::string_view text) {
  throw std::invalid_argument("bad " + std::string(kind) + " spec '" +
                              std::string(text) + "': " + message);
}

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
         c == '_' || c == '+' || c == '.';
}

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Cursor over the spec text; skips whitespace between every token.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  [[nodiscard]] bool done() {
    skip_space();
    return pos_ >= text_.size();
  }

  [[nodiscard]] char peek() {
    skip_space();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Longest run of name characters (identifier or value token).
  std::string token() {
    skip_space();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_name_char(text_[pos_])) ++pos_;
    return lower(text_.substr(start, pos_ - start));
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

double parse_value(const std::string& key, const std::string& token,
                   std::string_view kind, std::string_view text,
                   std::span<const SpecKeyword> keywords) {
  if (token == "inf" || token == "infinity") {
    return std::numeric_limits<double>::infinity();
  }
  for (const SpecKeyword& keyword : keywords) {
    if (key == keyword.param && token == keyword.word) return keyword.code;
  }
  const char* begin = token.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    fail("value '" + token + "' for key '" + key +
             "' is neither a number nor a known keyword",
         kind, text);
  }
  return value;
}

std::string format_value(const std::string& key, double value,
                         std::span<const SpecKeyword> keywords) {
  for (const SpecKeyword& keyword : keywords) {
    if (key == keyword.param && value == keyword.code) return keyword.word;
  }
  return format_spec_number(value);
}

}  // namespace

std::string format_spec_number(double value) {
  if (std::isinf(value) && value > 0.0) return "inf";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(value);
    return os.str();
  }
  std::ostringstream os;
  os << value;
  if (std::strtod(os.str().c_str(), nullptr) == value) return os.str();
  std::ostringstream precise;
  precise.precision(std::numeric_limits<double>::max_digits10);
  precise << value;
  return precise.str();
}

ParsedKvSpec parse_kv_spec(std::string_view text, std::string_view kind,
                           std::span<const SpecKeyword> keywords) {
  Scanner scanner(text);
  ParsedKvSpec spec;
  spec.name = scanner.token();
  if (spec.name.empty()) {
    fail("expected a " + std::string(kind) + " name", kind, text);
  }
  if (scanner.done()) return spec;
  if (!scanner.consume('(')) {
    fail(std::string("unexpected character '") + scanner.peek() +
             "' after the " + std::string(kind) + " name (expected '(')",
         kind, text);
  }
  if (!scanner.consume(')')) {
    while (true) {
      const std::string key = scanner.token();
      if (key.empty()) fail("expected a parameter key", kind, text);
      if (!scanner.consume('=')) {
        fail("parameter '" + key + "' is missing '=value'", kind, text);
      }
      const std::string token = scanner.token();
      if (token.empty()) {
        fail("parameter '" + key + "' is missing a value", kind, text);
      }
      if (spec.params.find(key) != spec.params.end()) {
        fail("duplicate parameter '" + key + "'", kind, text);
      }
      spec.params[key] = parse_value(key, token, kind, text, keywords);
      if (scanner.consume(',')) continue;
      if (scanner.consume(')')) break;
      fail("expected ',' or ')' after parameter '" + key + "'", kind, text);
    }
  }
  if (!scanner.done()) {
    fail(std::string("trailing characters after ')': '") + scanner.peek() +
             "...'",
         kind, text);
  }
  return spec;
}

std::string kv_spec_to_string(const std::string& name,
                              const std::map<std::string, double>& params,
                              std::span<const SpecKeyword> keywords) {
  if (params.empty()) return name;
  std::ostringstream os;
  os << name << '(';
  bool first = true;
  for (const auto& [key, value] : params) {  // std::map: sorted keys
    if (!first) os << ", ";
    first = false;
    os << key << '=' << format_value(key, value, keywords);
  }
  os << ')';
  return os.str();
}

}  // namespace proxcache
