#pragma once
/// \file queue_view.hpp
/// Live queue lengths as a `LoadView`: the load signal of the queueing /
/// event-driven modes. Where the batch simulator's `LoadTracker` counts
/// assignments monotonically, a queue view rises on enqueue and falls on
/// departure, so "least loaded" means "shortest queue *right now*" — the
/// supermarket-model semantics. The event engine and the supermarket
/// reference loop in test_event_supermarket share this one definition.

#include <vector>

#include "core/metrics.hpp"
#include "util/contracts.hpp"
#include "util/types.hpp"

namespace proxcache {

class QueueLoadView final : public LoadView {
 public:
  explicit QueueLoadView(std::size_t num_nodes) : lengths_(num_nodes, 0) {}

  [[nodiscard]] Load load(NodeId server) const override {
    return lengths_[server];
  }
  [[nodiscard]] Load length(NodeId server) const { return lengths_[server]; }

  void push(NodeId server) { ++lengths_[server]; }
  void pop(NodeId server) {
    PROXCACHE_CHECK(lengths_[server] > 0, "pop from empty queue");
    --lengths_[server];
  }

 private:
  std::vector<Load> lengths_;
};

}  // namespace proxcache
