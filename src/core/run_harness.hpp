#pragma once
/// \file run_harness.hpp
/// Per-replication state shared by both execution engines.
///
/// `SimulationContext::run` historically built all per-run state inline:
/// placement, trace source + sanitizer (with the repair-stream scout
/// pre-advance), replica index, strategy, load tracker, stale view. The
/// sharded engine (src/parallel/sharded_runner.hpp) needs the *same* state
/// built in the *same* order — any drift would silently break the engines'
/// shared semantics — so the construction lives here once and both engines
/// drive the resulting bundle. The members are deliberately public: this is
/// a plain state bundle with an invariant-free surface, not an abstraction;
/// the engines own the control flow.

#include <cstdint>
#include <memory>

#include "catalog/placement.hpp"
#include "core/metrics.hpp"
#include "core/simulation.hpp"
#include "core/stale_view.hpp"
#include "core/strategy.hpp"
#include "random/rng.hpp"
#include "scenario/trace_source.hpp"
#include "spatial/replica_index.hpp"
#include "strategy/spec.hpp"

namespace proxcache {

/// Everything one replication needs, constructed exactly as the historical
/// serial loop did (same seed phases, same scout pre-advance condition, same
/// registry path). Non-copyable: the sanitizer and stale view hold stable
/// pointers into sibling members.
class RunHarness {
 public:
  RunHarness(const SimulationContext& context, std::uint64_t run_index);
  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  [[nodiscard]] const SimulationContext& context() const { return *context_; }

  /// Apply one decision to the trackers — the exact tail of the historical
  /// request loop (fallback note, drop handling, stale refresh).
  void commit(const Assignment& assignment) {
    if (assignment.fallback) tracker.note_fallback();
    if (assignment.server == kInvalidNode) {
      tracker.drop();
      return;
    }
    tracker.assign(assignment.server, assignment.hops);
    if (stale) stale->on_assignment(tracker.assigned());
  }

  /// Collect the RunResult once the trace is drained.
  [[nodiscard]] RunResult finalize() const;

 private:
  const SimulationContext* context_;

 public:
  // Members in construction (= historical) order; later members point into
  // earlier ones.
  Placement placement;
  Rng trace_rng;
  /// Positioned per the repair-stream contract: a copy of the fresh trace
  /// stream, scout-advanced through the whole generation sequence only when
  /// the Resample policy can actually fire (see trace_source.hpp).
  Rng repair_rng;
  std::unique_ptr<TraceSource> source;
  SanitizingTraceSource sanitized;
  /// Built for the passes the strategy declares (`index_plan`,
  /// strategy/registry.hpp).
  ReplicaIndex index;
  StrategySpec spec;  ///< resolved strategy spec, registry defaults filled
  std::unique_ptr<Strategy> strategy;
  Rng strategy_rng;  ///< the serial engine's sequential strategy stream
  LoadTracker tracker;
  std::unique_ptr<StaleLoadView> stale;  ///< non-null when spec stale > 1
  const LoadView* load_view;             ///< stale snapshot or live tracker
};

}  // namespace proxcache
