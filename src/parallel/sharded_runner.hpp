#pragma once
/// \file sharded_runner.hpp
/// The sharded split-phase execution engine: parallelism *within* one run.
///
/// ## Why the serial loop cannot simply be replayed in parallel
/// The serial engine draws one sequential strategy stream whose per-request
/// draw *count* depends on live loads (tie-break draws happen only on load
/// equality), so request i's stream position depends on every prior
/// assignment — under that contract nothing is parallelizable. The sharded
/// engine therefore pins an independent strategy stream per request:
///
///     Rng(derive_seed(seed, {run_index, seed_phase::kStrategy, ordinal}))
///
/// where `ordinal` is the request's admitted position in the (unchanged,
/// serially generated) trace. That makes the load-independent half of every
/// decision a pure function of (request, ordinal) — computable on any
/// thread, in any order — while the load-dependent half commits serially in
/// request order against live loads, preserving the paper's sequential
/// balls-into-bins semantics exactly.
///
/// ## Pipeline
///
///     main thread                     worker pool (threads - 1)
///     ───────────                     ─────────────────────────
///     fill batch B  ──chunks──▶       propose chunk (lane-private
///     (trace gen + sanitize +          strategy + CandidateArena,
///      per-request pinned Rng          per-request pinned Rng)
///      derivation, serial, legacy
///      streams)
///     fill batch B+1 (overlapped)
///     join B ◀────────────────        …
///     commit B (choose + commit       propose B+1
///      per request, in order)
///
/// Two batch buffers double-buffer the pipeline: while batch B's proposals
/// are in flight, the main thread generates batch B+1; while B+1 proposes,
/// B commits. Each chunk owns a private strategy instance ("lane") and
/// arena, so workers share only immutable state (topology, placement,
/// replica index). The commit loop is the serial loop's tail: for each
/// slot in request order, `choose` on the commit thread's strategy against
/// the effective loads (live tracker, or the stale snapshot when
/// `stale > 1`), then `RunHarness::commit`.
///
/// ## Determinism
/// Results are bit-identical across every thread count >= 1 (of *this*
/// engine) and every batch size, because no value ever depends on
/// scheduling: the trace is generated serially on the legacy streams, each
/// proposal is a pure function of its pinned stream, and the commit order
/// is the request order. They are *not* bit-identical to the serial
/// engine's single-stream contract (`config.threads == 1`) — locked either
/// way by tests/test_sharded_equivalence.cpp and the golden masters in
/// tests/test_determinism.cpp.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simulation.hpp"
#include "parallel/thread_pool.hpp"

namespace proxcache {

/// Engine knobs. `threads = 1` runs the sharded *schedule* inline (the
/// equivalence suites' serial reference); `threads >= 2` spawns a pool of
/// `threads - 1` workers, the main thread being the generator/committer.
struct ShardedRunOptions {
  std::uint32_t threads = 2;
  std::size_t batch = 4096;  ///< requests per pipeline batch
};

/// Per-run engine counters and per-stage wall times (reported by perfbench's
/// traced `torus-sharded` run as `parallel.*` — the measured, not asserted,
/// Amdahl story).
struct ShardStats {
  std::uint64_t batches = 0;    ///< pipeline batches filled
  std::uint64_t requests = 0;   ///< admitted requests committed
  std::uint64_t proposed_off_thread = 0;  ///< requests proposed on the pool

  // Per-stage wall time, seconds, accumulated over the run. fill/join/
  // commit are main-thread stages; propose sums the task-side wall time
  // across workers (so propose_seconds > commit wall time means the pool
  // genuinely carried the load).
  double fill_seconds = 0.0;
  double propose_seconds = 0.0;
  double join_seconds = 0.0;
  double commit_seconds = 0.0;

  /// Requests proposed per lane (chunk slot within a batch). Lanes are the
  /// unit of worker-side sharding; the vector length is the chunk count.
  std::vector<std::uint64_t> lane_requests;
  /// Propose wall time per lane, seconds — the lane-utilization profile.
  std::vector<double> lane_seconds;
};

/// The engine. Construct once per (context, options); `run` is const and
/// builds only per-run state, like `SimulationContext::run`.
class ShardedRunner {
 public:
  ShardedRunner(const SimulationContext& context, ShardedRunOptions options);

  /// Execute replication `run_index` under the sharded seed contract.
  /// Optionally reports engine counters into `stats`.
  [[nodiscard]] RunResult run(std::uint64_t run_index,
                              ShardStats* stats = nullptr) const;

  [[nodiscard]] std::uint32_t threads() const { return options_.threads; }
  [[nodiscard]] std::size_t batch() const { return options_.batch; }

 private:
  const SimulationContext* context_;
  ShardedRunOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when threads == 1
};

}  // namespace proxcache
