#pragma once
/// \file spec_registry.hpp
/// The one catalog behind every `--<kind> <spec>` flag. `NamedCatalog` is
/// an ordered list of named items with lookup (the scenario and tier-preset
/// catalogs are exactly that); `SpecRegistry<Entry>` adds what the three
/// spec kinds share: per-parameter rules, validation with precise messages,
/// defaults filling, factory dispatch, and the built-in / process-wide
/// catalogs.
///
/// An `Entry` is an aggregate naming its spec type and carrying
///
///     using Spec = KvSpec<Kind>;     // util/kvspec.hpp
///     std::string name, summary;
///     std::vector<ParamRule> params;
///     Factory factory;               // called as factory(filled_spec, args...)
///
/// plus, where the kind has them, two rules of its own:
///
///     const char* missing() const;             // another required member
///                                              // it lacks, or nullptr
///     void check(const Spec& filled) const;    // cross-parameter rule on
///                                              // the defaults-filled spec
///
/// Adding a spec kind is: a `Kind` tag, an entry struct, and a
/// `built_ins()` specialization listing the kind's entries.

#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/kvspec.hpp"

namespace proxcache {

/// One legal parameter of a spec entry: inclusive range plus the value used
/// when the spec leaves the key unset.
struct ParamRule {
  std::string key;
  double min_value;
  double max_value;  ///< inclusive; use infinity for unbounded keys
  double default_value;
  std::string doc;  ///< one-liner for --help / README tables
  /// Whole numbers only (`inf` stays legal where the range allows it).
  /// Counts, sides and radii set this so e.g. `r=2.7` is rejected instead
  /// of silently truncating to a value the results never admit to.
  bool integral = false;
};

/// Items in registration order, looked up by their `name`. `Names::noun`
/// names an item in the unknown-name message.
template <typename Item, typename Names = Item>
class NamedCatalog {
 public:
  /// All items in registration order.
  [[nodiscard]] const std::vector<Item>& all() const { return items_; }

  /// Item by name, or nullptr when absent.
  [[nodiscard]] const Item* find(const std::string& name) const {
    for (const Item& item : items_) {
      if (item.name == name) return &item;
    }
    return nullptr;
  }

  /// Item by name; throws std::invalid_argument listing the known names
  /// when absent.
  [[nodiscard]] const Item& at(const std::string& name) const {
    const Item* item = find(name);
    if (item == nullptr) {
      throw std::invalid_argument("unknown " + std::string(Names::noun) +
                                  " '" + name + "' (known: " + names() + ")");
    }
    return *item;
  }

  /// Comma-separated names (for error messages and --help).
  [[nodiscard]] std::string names() const {
    std::string joined;
    for (const Item& item : items_) {
      if (!joined.empty()) joined += ", ";
      joined += item.name;
    }
    return joined;
  }

 protected:
  std::vector<Item> items_;
};

/// Catalog of one spec kind's entries. `built_ins()` is the immutable
/// default set; custom registries start from `with_built_ins()` and `add`
/// their own entries.
template <typename Entry>
class SpecRegistry : public NamedCatalog<Entry, typename Entry::Spec::Kind> {
 public:
  using Spec = typename Entry::Spec;
  using Kind = typename Spec::Kind;

  /// An empty registry (for fully custom catalogs).
  SpecRegistry() = default;

  /// The shared immutable catalog of built-in entries (one specialization
  /// per kind, beside its entries).
  static const SpecRegistry& built_ins();

  /// A mutable copy of the built-in catalog to extend with `add`.
  static SpecRegistry with_built_ins() { return built_ins(); }

  /// The process-wide catalog the simulator consults. Starts as a copy of
  /// `built_ins()`; `global().add(...)` makes a custom entry usable
  /// everywhere specs are accepted. Register at startup, before runs —
  /// registration is not synchronized with concurrent readers.
  static SpecRegistry& global() {
    static SpecRegistry registry = with_built_ins();
    return registry;
  }

  /// Register an entry; throws std::invalid_argument on an empty or
  /// duplicate name, or an entry without a factory or another member its
  /// kind requires.
  void add(Entry entry) {
    if (entry.name.empty()) {
      throw std::invalid_argument(std::string(Kind::grammar) +
                                  " entry needs a non-empty name");
    }
    const char* missing = entry.factory ? nullptr : "factory";
    if constexpr (requires(const Entry& e) { e.missing(); }) {
      if (missing == nullptr) missing = entry.missing();
    }
    if (missing != nullptr) {
      throw std::invalid_argument(quoted(entry.name) +
                                  " registered without a " + missing);
    }
    if (this->find(entry.name) != nullptr) {
      throw std::invalid_argument(quoted(entry.name) +
                                  " is already registered");
    }
    this->items_.push_back(std::move(entry));
  }

  /// Check `spec` against the named entry's rules. Throws
  /// std::invalid_argument on an unknown name, an unknown parameter key,
  /// an out-of-range or non-integral value, or a failed cross-parameter
  /// check.
  void validate(const Spec& spec) const {
    if constexpr (requires(const Entry& entry) { entry.check(spec); }) {
      (void)with_defaults(spec);
    } else {
      (void)checked_entry(spec);
    }
  }

  /// `spec`, validated, with every unset parameter filled in from the
  /// entry's declared defaults. This is the single source of truth for
  /// effective values: factories read the filled spec, so a rule's
  /// documented default can never drift from what runs.
  [[nodiscard]] Spec with_defaults(const Spec& spec) const {
    const Entry& entry = checked_entry(spec);
    Spec filled = spec;
    for (const ParamRule& rule : entry.params) {
      filled.params.try_emplace(rule.key, rule.default_value);
    }
    if constexpr (requires(const Entry& e) { e.check(filled); }) {
      entry.check(filled);
    }
    return filled;
  }

  /// Validate `spec` and build through the entry's factory, which receives
  /// the defaults-filled spec followed by `args`.
  template <typename... Args>
  [[nodiscard]] auto make(const Spec& spec, const Args&... args) const {
    return this->at(spec.name).factory(with_defaults(spec), args...);
  }

  /// Parse and validate a batch of spec strings (e.g. repeated `--<kind>`
  /// flags) all up front, so a typo in the last spec fails before the
  /// first expensive run. Throws std::invalid_argument on the first bad
  /// spec.
  [[nodiscard]] std::vector<Spec> parse_validated(
      const std::vector<std::string>& texts) const {
    std::vector<Spec> specs;
    specs.reserve(texts.size());
    for (const std::string& text : texts) {
      Spec spec = Spec::parse(text);
      validate(spec);
      specs.push_back(std::move(spec));
    }
    return specs;
  }

 private:
  /// `<noun> '<name>'`, the subject of every entry message.
  [[nodiscard]] static std::string quoted(const std::string& name) {
    return std::string(Kind::noun) + " '" + name + "'";
  }

  /// The entry `spec` names, after checking every explicit parameter
  /// against its rule. Messages are built only on the throwing paths.
  [[nodiscard]] const Entry& checked_entry(const Spec& spec) const {
    const Entry& entry = this->at(spec.name);
    for (const auto& [key, value] : spec.params) {
      const ParamRule* rule = nullptr;
      for (const ParamRule& candidate : entry.params) {
        if (candidate.key == key) {
          rule = &candidate;
          break;
        }
      }
      if (rule == nullptr) {
        std::string known;
        for (const ParamRule& candidate : entry.params) {
          if (!known.empty()) known += ", ";
          known += candidate.key;
        }
        throw std::invalid_argument(
            quoted(spec.name) + " does not take parameter '" + key +
            "' (known: " + (known.empty() ? "<none>" : known) + ")");
      }
      if (std::isnan(value) || value < rule->min_value ||
          value > rule->max_value) {
        throw std::invalid_argument(
            quoted(spec.name) + " parameter '" + key +
            "' = " + format_spec_number(value) + " is outside [" +
            format_spec_number(rule->min_value) + ", " +
            format_spec_number(rule->max_value) + "]");
      }
      if (rule->integral && !std::isinf(value) &&
          value != std::floor(value)) {
        throw std::invalid_argument(quoted(spec.name) + " parameter '" + key +
                                    "' = " + format_spec_number(value) +
                                    " must be an integer");
      }
    }
    return entry;
  }
};

}  // namespace proxcache
