#pragma once
// Span recording for the traced benchmark run.
//
// Spans are taken by the benchmark itself, around its calls into each
// layer's public functions (outside-in). Per-request spans are aggregated
// into a count, a total and the part of that total covered by child spans,
// because keeping millions of spans would dominate the run. Per-run and
// per-call spans are aggregated the same way and also kept in memory, then
// written at exit as a Chrome trace-event file (chrome://tracing, Perfetto).
//
// A span's layer is its name up to the first '.', e.g. `scenario.next`
// belongs to `scenario` and `strategy.nearest.propose` to `strategy`.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Every span with one name, aggregated.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed span durations
  double child_s = 0.0;  ///< part of total_s that child spans cover

  [[nodiscard]] double self_s() const { return total_s - child_s; }
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0 : total_s * 1e9 / static_cast<double>(count);
  }
  [[nodiscard]] double mean_s() const {
    return count == 0 ? 0.0 : total_s / static_cast<double>(count);
  }
};

/// One kept per-run or per-call span.
struct SpanRecord {
  std::string name;
  std::string parent;      ///< enclosing span's name; empty at top level
  std::string unit;        ///< benchmark unit the span belongs to
  double start_s = 0.0;    ///< offset from the tracer's origin
  double dur_s = 0.0;
  std::uint32_t lane = 0;  ///< 0 = main thread, k = k-th pool worker
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Time zero of the span records (share it with per-thread tracers).
  [[nodiscard]] Clock::time_point origin() const { return origin_; }

  /// Aggregate `count` spans named `name` lasting `seconds` in all.
  /// `parent` empty = top level. An `overlapped` span ran on another thread
  /// while its parent ran: it is counted, but not charged to the parent.
  void add(const std::string& name, const std::string& parent,
           double seconds, std::uint64_t count = 1, bool overlapped = false) {
    SpanTotals& totals = totals_[name];
    totals.count += count;
    totals.total_s += seconds;
    if (overlapped) return;
    if (parent.empty()) {
      top_level_s_ += seconds;
    } else {
      totals_[parent].child_s += seconds;
    }
  }

  /// Aggregate one span and keep it for the trace file.
  void record(const std::string& name, const std::string& parent,
              const std::string& unit, Clock::time_point begin,
              Clock::time_point end, std::uint32_t lane = 0,
              bool overlapped = false) {
    const double seconds = seconds_between(begin, end);
    add(name, parent, seconds, 1, overlapped);
    records_.push_back(
        {name, parent, unit, seconds_between(origin_, begin), seconds, lane});
  }

  /// Add `value` to the counter `name` (work done, paths taken, ...).
  void count(const std::string& name, double value) {
    counters_[name] += value;
  }

  /// Keep the largest `value` seen for `name`.
  void peak(const std::string& name, double value) {
    double& slot = peaks_[name];
    slot = std::max(slot, value);
  }

  /// Fold another tracer (e.g. a pool worker's) into this one.
  void merge(const Tracer& other) {
    for (const auto& [name, totals] : other.totals_) {
      SpanTotals& mine = totals_[name];
      mine.count += totals.count;
      mine.total_s += totals.total_s;
      mine.child_s += totals.child_s;
    }
    for (const auto& [name, value] : other.counters_) counters_[name] += value;
    for (const auto& [name, value] : other.peaks_) peak(name, value);
    records_.insert(records_.end(), other.records_.begin(),
                    other.records_.end());
    top_level_s_ += other.top_level_s_;
  }

  [[nodiscard]] SpanTotals totals(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? SpanTotals{} : it->second;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double peak_value(const std::string& name) const {
    const auto it = peaks_.find(name);
    return it == peaks_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, SpanTotals>& all() const {
    return totals_;
  }
  /// Summed duration of the top-level (parent-less) spans.
  [[nodiscard]] double top_level_s() const { return top_level_s_; }

  /// Self time of every span whose name starts with `layer` + '.'.
  [[nodiscard]] double layer_self_s(const std::string& layer) const {
    double self = 0.0;
    const std::string prefix = layer + ".";
    for (const auto& [name, totals] : totals_) {
      if (name.compare(0, prefix.size(), prefix) == 0) self += totals.self_s();
    }
    return self;
  }

  /// Write the kept spans as Chrome trace events plus the aggregates.
  /// `metadata_json` is a JSON object stored under "otherData".
  bool write(const std::string& path, const std::string& metadata_json) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"otherData\": " << metadata_json << ",\n\"spanTotals\": {";
    bool first = true;
    for (const auto& [name, totals] : totals_) {
      out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
          << totals.count << ", \"total_s\": " << number(totals.total_s)
          << ", \"self_s\": " << number(totals.self_s()) << "}";
      first = false;
    }
    out << "},\n\"traceEvents\": [";
    first = true;
    for (const SpanRecord& span : records_) {
      const std::string layer = span.name.substr(0, span.name.find('.'));
      out << (first ? "\n" : ",\n") << "  {\"name\": \"" << span.name
          << "\", \"cat\": \"" << layer << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << span.lane
          << ", \"ts\": " << number(span.start_s * 1e6)
          << ", \"dur\": " << number(span.dur_s * 1e6)
          << ", \"args\": {\"unit\": \"" << span.unit << "\", \"parent\": \""
          << span.parent << "\"}}";
      first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::string number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    return buffer;
  }

  Clock::time_point origin_;
  std::map<std::string, SpanTotals> totals_;
  std::map<std::string, double> counters_;
  std::map<std::string, double> peaks_;
  std::vector<SpanRecord> records_;
  double top_level_s_ = 0.0;
};

}  // namespace perfbench
