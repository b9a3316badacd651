#pragma once
/// \file metrics.hpp
/// Load and communication-cost accounting (paper Definition 1).
///
/// `LoadTracker` is both the strategies' read path (Strategy II compares
/// current loads) and the metrics sink: per-server assignment counts `T_i`,
/// the running maximum load `L = max_i T_i`, and the cumulative hop count
/// whose mean over requests is the communication cost `C`. It is the only
/// state the streaming request loop accumulates — O(n), never
/// O(trace length) — which is what keeps `SimulationContext::run` in
/// constant space at any request volume.

#include <cstdint>
#include <vector>

#include "stats/histogram.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Read-only view of per-server load used by the strategies' comparisons.
/// The batch simulator supplies cumulative assignment counts (LoadTracker);
/// the queueing extension supplies instantaneous queue lengths.
class LoadView {
 public:
  virtual ~LoadView() = default;

  /// Current load of `server`.
  [[nodiscard]] virtual Load load(NodeId server) const = 0;
};

/// A view over a plain load vector — the adapter for loads that live in a
/// raw buffer rather than a LoadTracker (e.g. a test's hand-set loads).
class VectorLoadView final : public LoadView {
 public:
  explicit VectorLoadView(const std::vector<Load>& loads) : loads_(&loads) {}

  [[nodiscard]] Load load(NodeId server) const override {
    return (*loads_)[server];
  }

 private:
  const std::vector<Load>* loads_;
};

/// Mutable per-run load state and metric accumulator.
class LoadTracker : public LoadView {
 public:
  explicit LoadTracker(std::size_t num_nodes);

  /// Record an assignment of one request to `server` at `hops` distance.
  void assign(NodeId server, Hop hops);

  /// Record a dropped request (Drop policies); counted but not assigned.
  void drop() { ++dropped_; }

  /// Record that a fallback path was taken (radius expansion etc.).
  void note_fallback() { ++fallbacks_; }

  /// Current load of `server` (the strategies' comparison read).
  [[nodiscard]] Load load(NodeId server) const override {
    return loads_[server];
  }

  /// Current maximum load `L`.
  [[nodiscard]] Load max_load() const { return max_load_; }

  /// Number of assigned requests so far.
  [[nodiscard]] std::uint64_t assigned() const { return assigned_; }

  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t fallbacks() const { return fallbacks_; }

  /// Mean hops per assigned request (0 if none) — the paper's `C`.
  [[nodiscard]] double comm_cost() const;

  [[nodiscard]] std::uint64_t total_hops() const { return total_hops_; }

  [[nodiscard]] const std::vector<Load>& loads() const { return loads_; }

  /// Load-distribution histogram over servers (`#servers with load = k`).
  [[nodiscard]] Histogram load_histogram() const;

 private:
  std::vector<Load> loads_;
  Load max_load_ = 0;
  std::uint64_t assigned_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t total_hops_ = 0;
};

}  // namespace proxcache
