#pragma once
/// \file trace_source.hpp
/// The workload-generation seam of the simulator: a `TraceSource` streams
/// one `Request` per call, drawing all randomness from the caller-supplied
/// trace-phase RNG (`derive_seed(config.seed, {run, kTrace})`), so a trace
/// is a pure function of (config, run_index) regardless of which process
/// produced it. `run_simulation` consumes a source instead of inlining
/// origin + file sampling; the paper's model is the `Static` source
/// (scenario/generators.hpp), which reproduces the pre-streaming vector
/// generator's draw sequence bit-for-bit.
///
/// Sources declare marginals over the trace they *generate*. The
/// missing-file repair that follows (`SanitizingTraceSource` below) is a
/// placement-side fix: it redraws requests for zero-replica files
/// from the base popularity law, outside the trace process — a deliberate
/// trade to keep the seed contract (repair draws follow all generation
/// draws on one stream), at the cost of slightly diluting a dynamic
/// source's declared marginal when a placement leaves files uncached.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/request.hpp"
#include "random/alias_sampler.hpp"
#include "random/rng.hpp"
#include "topology/topology.hpp"

namespace proxcache {

/// Streaming request generator. `next` is called once per request index in
/// order; implementations may keep internal clocks (request counters) but
/// must take all randomness from the passed `rng`.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produce the next request of the stream.
  virtual Request next(Rng& rng) = 0;

  /// One-line description for logs and tables.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Drain `count` requests from `source` into a vector, for tests and
/// offline trace inspection — the simulation loop streams requests one at
/// a time (`SimulationContext::run`) and never materializes a trace.
std::vector<Request> materialize(TraceSource& source, std::size_t count,
                                 Rng& rng);

/// Streaming decorator over a `TraceSource`: applies the missing-file
/// policies (`MissingFilePolicy`) one request at a time, so the trace
/// never exists in memory. Draws up to `horizon` requests from `inner`,
/// and per request either passes it through (file cached), redraws its
/// file from the popularity law restricted to cached files (Resample),
/// silently skips it (Drop, counted), or throws std::runtime_error
/// (Strict) — exactly the per-request behavior of the pre-streaming
/// materialized sanitize pass, in the same order.
///
/// Draw-order contract (bit-compatibility with the materialized pipeline):
/// generation draws come from the rng passed to `try_next`; Resample repair
/// draws come from the separate `repair_rng`. The materialized pipeline
/// drew all repairs *after* the full generation sequence on one stream, so
/// a caller that needs bit-identical results must position `repair_rng` at
/// that post-generation state (see `SimulationContext::run`, which advances
/// a scout copy only when the placement actually leaves files uncached —
/// otherwise no repair draw ever happens and the position is irrelevant).
class SanitizingTraceSource final : public TraceSource {
 public:
  /// `inner`, `placement`, `popularity`, and `repair_rng` must outlive this
  /// decorator.
  SanitizingTraceSource(TraceSource& inner, std::size_t horizon,
                        const Placement& placement,
                        const Popularity& popularity, MissingFilePolicy policy,
                        Rng& repair_rng);

  /// Produce the next admitted request, consuming inner requests (and
  /// skipping Drop-rejected ones) as needed. Returns false once all
  /// `horizon` inner requests are consumed.
  bool try_next(Rng& rng, Request& out);

  /// TraceSource conformance; throws std::invalid_argument when drained.
  Request next(Rng& rng) override;

  [[nodiscard]] std::string describe() const override;

  /// Repair/drop counters accumulated so far (totals once drained).
  [[nodiscard]] const SanitizeStats& stats() const { return stats_; }

  /// Inner requests consumed so far (admitted + dropped).
  [[nodiscard]] std::size_t consumed() const { return consumed_; }
  [[nodiscard]] bool exhausted() const { return consumed_ == horizon_; }

 private:
  TraceSource* inner_;
  std::size_t horizon_;
  std::size_t consumed_ = 0;
  const Placement* placement_;
  const Popularity* popularity_;
  MissingFilePolicy policy_;
  Rng* repair_rng_;
  bool any_cached_ = false;
  std::optional<AliasSampler> sampler_;  // built lazily on the first repair
  SanitizeStats stats_;
};

/// Build the trace source described by `config.trace` (falling back to the
/// Static source over `config.origins` / `popularity`). `topology` and
/// `popularity` must outlive the returned source. `horizon` is the number
/// of requests the run will draw — time-varying processes scale their
/// schedules (pulse window, cycles, epochs) to it.
std::unique_ptr<TraceSource> make_trace_source(const ExperimentConfig& config,
                                               const Topology& topology,
                                               const Popularity& popularity,
                                               std::size_t horizon);

}  // namespace proxcache
