#include "event/cache_policy.hpp"

#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Effective slot count: an explicit `capacity` wins; 0 (the declared
/// default) inherits the experiment's per-node cache size M.
std::size_t resolve_capacity(const CachePolicySpec& spec,
                             std::size_t fallback_capacity) {
  const double raw = spec.get_or("capacity", 0.0);
  const auto capacity =
      raw > 0.0 ? static_cast<std::size_t>(raw) : fallback_capacity;
  PROXCACHE_REQUIRE(capacity >= 1, "cache-policy capacity resolves to 0");
  return capacity;
}

/// Shared bookkeeping for the built-in policies: a flat entry table (per
/// node caches hold ~M <= a few dozen files, so linear victim scans beat
/// any indexed structure) plus a monotone tick so recency comparisons
/// never depend on floating-point event-time ties.
class TrackedPolicy : public CachePolicy {
 public:
  explicit TrackedPolicy(std::size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity + 1);
  }

  [[nodiscard]] std::size_t capacity() const override { return capacity_; }

  void seed(FileId file) override { add_entry(file, 0.0); }

  void on_insert(FileId file, double now) override { add_entry(file, now); }

  void on_access(FileId file, double now) override {
    Entry& entry = entry_of(file);
    entry.tick = ++clock_;
    entry.count += 1;
    touch_score(entry, now);
  }

  void on_evict(FileId file) override {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].file == file) {
        entries_[i] = entries_.back();
        entries_.pop_back();
        return;
      }
    }
    PROXCACHE_CHECK(false, "evicting a file the policy never tracked");
  }

  [[nodiscard]] FileId victim(double now) override {
    PROXCACHE_CHECK(!entries_.empty(), "victim query on an empty cache");
    const Entry* best = &entries_[0];
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (worse_than(entries_[i], *best, now)) best = &entries_[i];
    }
    return best->file;
  }

 protected:
  struct Entry {
    FileId file;
    std::uint64_t tick;   ///< last access/insert order (monotone, exact)
    std::uint64_t count;  ///< accesses + the insert itself
    double score;         ///< EWMA access rate as of `last_time`
    double last_time;
  };

  /// True when `a` is a strictly better eviction victim than `b`. Derived
  /// policies order by their metric; ties must fall through to
  /// `older_then_smaller` so victims are unique and deterministic.
  [[nodiscard]] virtual bool worse_than(const Entry& a, const Entry& b,
                                        double now) const = 0;

  [[nodiscard]] static bool older_then_smaller(const Entry& a,
                                               const Entry& b) {
    if (a.tick != b.tick) return a.tick < b.tick;
    return a.file < b.file;
  }

  virtual void touch_score(Entry& entry, double now) {
    entry.score += 1.0;
    entry.last_time = now;
  }

 private:
  void add_entry(FileId file, double now) {
    entries_.push_back(Entry{file, ++clock_, 1, 1.0, now});
  }

  Entry& entry_of(FileId file) {
    for (Entry& entry : entries_) {
      if (entry.file == file) return entry;
    }
    PROXCACHE_CHECK(false, "access to a file the policy never tracked");
    return entries_.front();  // unreachable
  }

  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;
};

class LruPolicy final : public TrackedPolicy {
 public:
  using TrackedPolicy::TrackedPolicy;

 protected:
  bool worse_than(const Entry& a, const Entry& b,
                  double /*now*/) const override {
    return older_then_smaller(a, b);
  }
};

class LfuPolicy final : public TrackedPolicy {
 public:
  using TrackedPolicy::TrackedPolicy;

 protected:
  bool worse_than(const Entry& a, const Entry& b,
                  double /*now*/) const override {
    if (a.count != b.count) return a.count < b.count;
    return older_then_smaller(a, b);
  }
};

class EwmaPolicy final : public TrackedPolicy {
 public:
  EwmaPolicy(std::size_t capacity, double decay)
      : TrackedPolicy(capacity), decay_(decay) {}

 protected:
  bool worse_than(const Entry& a, const Entry& b, double now) const override {
    const double sa = decayed(a, now);
    const double sb = decayed(b, now);
    if (sa != sb) return sa < sb;
    return older_then_smaller(a, b);
  }

  void touch_score(Entry& entry, double now) override {
    entry.score = decayed(entry, now) + 1.0;
    entry.last_time = now;
  }

 private:
  [[nodiscard]] double decayed(const Entry& entry, double now) const {
    return entry.score * std::exp(-decay_ * (now - entry.last_time));
  }

  double decay_;
};

ParamRule capacity_rule() {
  return {"capacity", 0.0, 4294967295.0, 0.0,
          "cache slots per node (0 = the experiment's cache size M)",
          /*integral=*/true};
}

}  // namespace

template <>
const CachePolicyRegistry& CachePolicyRegistry::built_ins() {
  static const CachePolicyRegistry registry = [] {
    CachePolicyRegistry r;
    r.add({"static",
           "frozen placement: never inserts or evicts (the batch model)",
           {},
           /*mutable_contents=*/false,
           [](const CachePolicySpec&, std::size_t) {
             return std::unique_ptr<CachePolicy>();
           }});
    r.add({"lru",
           "evict the least recently accessed file",
           {capacity_rule()},
           /*mutable_contents=*/true,
           [](const CachePolicySpec& spec, std::size_t fallback) {
             return std::make_unique<LruPolicy>(
                 resolve_capacity(spec, fallback));
           }});
    r.add({"lfu",
           "evict the least frequently accessed file (recency breaks ties)",
           {capacity_rule()},
           /*mutable_contents=*/true,
           [](const CachePolicySpec& spec, std::size_t fallback) {
             return std::make_unique<LfuPolicy>(
                 resolve_capacity(spec, fallback));
           }});
    r.add({"ewma",
           "evict the smallest exponentially-decayed access rate",
           {capacity_rule(),
            {"decay", 0.0, kInf, 0.1,
             "per-unit-time exponential decay of the access-rate score"}},
           /*mutable_contents=*/true,
           [](const CachePolicySpec& spec, std::size_t fallback) {
             return std::make_unique<EwmaPolicy>(
                 resolve_capacity(spec, fallback), spec.get_or("decay", 0.1));
           }});
    return r;
  }();
  return registry;
}

}  // namespace proxcache
