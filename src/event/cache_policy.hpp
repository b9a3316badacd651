#pragma once
/// \file cache_policy.hpp
/// Replacement policies for the event-driven dynamic mode: the third client
/// of the shared `name(key=value, ...)` spec grammar (util/kvspec.hpp) and
/// of the shared spec registry (util/spec_registry.hpp), beside strategies
/// and topologies. A `CachePolicy` is *per-node* eviction metadata —
/// recency stamps, access counts, decayed rates — while the contents
/// themselves live in the shared `CacheState` (catalog/cache_state.hpp).
/// The event engine keeps the two in lock-step: it consults the policy for
/// a victim before every insert into a full cache and notifies it of every
/// hit, insert and eviction.
///
/// Built-ins (modeled on the classic LRU/LFU/arrival-rate-estimator cache
/// hierarchy used by the dynamic cache-network simulators in SNIPPETS.md):
///   static              frozen placement — never admits inserts; the
///                       bit-compatible supermarket / batch-model behavior
///   lru(capacity=..)    evict the least recently accessed file
///   lfu(capacity=..)    evict the least frequently accessed file
///                       (recency breaks ties)
///   ewma(capacity=.., decay=..)
///                       evict the smallest exponentially-decayed access
///                       rate: score = score * exp(-decay * dt) + 1
/// `capacity = 0` (the default) inherits the experiment's per-node cache
/// size M; a smaller capacity trims the seeded placement at startup and
/// forces churn from the first miss.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/kvspec.hpp"
#include "util/spec_registry.hpp"
#include "util/types.hpp"

namespace proxcache {

/// The cache-policy kind: message nouns and (no) keywords. Parse errors
/// read `bad cache-policy spec ...`, registry errors `cache policy '...'`.
struct CachePolicySpecKind {
  static constexpr std::string_view grammar = "cache-policy";
  static constexpr std::string_view noun = "cache policy";
  static constexpr std::span<const SpecKeyword> keywords{};
};

/// Parsed `name(key=value, ...)` cache-policy spec (e.g. `lru(capacity=8)`
/// or `ewma(decay=0.25)`), on the grammar of util/kvspec.hpp.
using CachePolicySpec = KvSpec<CachePolicySpecKind>;

/// Parse `text` as a cache-policy spec. Malformed input throws
/// std::invalid_argument as `bad cache-policy spec '<text>': <detail>`.
[[nodiscard]] inline CachePolicySpec parse_cache_policy_spec(
    std::string_view text) {
  return CachePolicySpec::parse(text);
}

/// Per-node eviction metadata. One instance per server; the engine drives
/// it serially in event order, so implementations need no synchronization
/// and may keep deterministic internal tick counters. The policy never
/// stores contents — membership queries go to `CacheState`.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  /// Slots this node may hold (>= 1).
  [[nodiscard]] virtual std::size_t capacity() const = 0;

  /// Record `file` as initially present (called once per seeded file, in
  /// ascending file order, before any event is processed).
  virtual void seed(FileId file) = 0;

  /// A request for `file` was served from this cache at time `now`.
  virtual void on_access(FileId file, double now) = 0;

  /// `file` was fetched and inserted at time `now`.
  virtual void on_insert(FileId file, double now) = 0;

  /// Choose the file to evict to make room; only called when the cache is
  /// non-empty. Must be deterministic (ties broken by insertion order then
  /// file id). The engine erases the returned file and then calls
  /// `on_evict`.
  [[nodiscard]] virtual FileId victim(double now) = 0;

  /// `file` was erased from the cache.
  virtual void on_evict(FileId file) = 0;
};

/// Builds one node's policy state. `spec` arrives defaults-filled;
/// `fallback_capacity` is the experiment's per-node cache size M, used when
/// the spec's `capacity` is 0/absent. Entries whose contents never change
/// (`static`) set `mutable_contents = false` and return null — the engine
/// skips all policy bookkeeping for them.
using CachePolicyFactory = std::function<std::unique_ptr<CachePolicy>(
    const CachePolicySpec&, std::size_t fallback_capacity)>;

/// One registered cache policy.
struct CachePolicyEntry {
  using Spec = CachePolicySpec;

  std::string name;     ///< registry key, canonical lowercase
  std::string summary;  ///< one-line description for --help / README tables
  std::vector<ParamRule> params;
  /// False when the policy freezes the seeded placement (no inserts, no
  /// evictions); the engine then skips per-node policy instances entirely.
  bool mutable_contents = true;
  CachePolicyFactory factory;
};

/// Catalog of cache-policy entries (util/spec_registry.hpp); `global()` is
/// what the event engine consults. `make(spec, fallback_capacity)`
/// validates and builds one node's policy.
using CachePolicyRegistry = SpecRegistry<CachePolicyEntry>;

template <>
const CachePolicyRegistry& CachePolicyRegistry::built_ins();

/// `registry.parse_validated(texts)` for repeated `--policy` flags.
[[nodiscard]] inline std::vector<CachePolicySpec> parse_validated_policy_specs(
    const std::vector<std::string>& texts,
    const CachePolicyRegistry& registry = CachePolicyRegistry::global()) {
  return registry.parse_validated(texts);
}

}  // namespace proxcache
