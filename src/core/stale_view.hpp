#pragma once
/// \file stale_view.hpp
/// Stale load information (paper §VI): in a distributed deployment the
/// requesting server learns queue lengths by *periodic polling*, not by
/// reading ground truth. `StaleLoadView` models that: the strategies
/// compare loads from a snapshot that is refreshed only every `period`
/// assignments. `period = 1` degenerates to the paper's fresh-information
/// model; large periods quantify how much staleness the power of two
/// choices tolerates (`paper --claim ext_stale_info`).

#include <vector>

#include "core/metrics.hpp"
#include "util/contracts.hpp"
#include "util/types.hpp"

namespace proxcache {

/// LoadView that lags the live tracker by up to `period` assignments.
class StaleLoadView final : public LoadView {
 public:
  /// Snapshot `live` now and thereafter on every `period`-th assignment.
  StaleLoadView(const LoadTracker& live, std::uint32_t period)
      : live_(&live), period_(period), snapshot_(live.loads()) {
    PROXCACHE_REQUIRE(period >= 1, "refresh period must be >= 1");
  }

  /// Load as of the last refresh (never the live value unless period = 1
  /// and refresh() is called per assignment).
  [[nodiscard]] Load load(NodeId server) const override {
    return snapshot_[server];
  }

  /// Call after every assignment; refreshes when `assigned_so_far` crosses
  /// a multiple of the period.
  void on_assignment(std::uint64_t assigned_so_far) {
    if (assigned_so_far % period_ == 0) refresh();
  }

  /// Force-refresh the snapshot from the live tracker.
  void refresh() { snapshot_ = live_->loads(); }

  [[nodiscard]] std::uint32_t period() const { return period_; }

 private:
  const LoadTracker* live_;
  std::uint32_t period_;
  std::vector<Load> snapshot_;
};

}  // namespace proxcache
