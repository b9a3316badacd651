#pragma once
/// \file generators.hpp
/// The concrete trace processes behind `TraceSource`. Each one documents its
/// *declared marginal* — the distribution a long trace's origins/files must
/// match — which the statistical envelope tests (tests/test_scenario_stats)
/// verify by chi-square goodness of fit.

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/popularity.hpp"
#include "core/config.hpp"
#include "random/alias_sampler.hpp"
#include "scenario/trace_source.hpp"
#include "scenario/trace_spec.hpp"
#include "topology/topology.hpp"

namespace proxcache {

/// Samples request origins per an `OriginSpec`, reproducing the
/// pre-streaming trace generator's draw order exactly: Uniform = one
/// `below(n)` draw; Hotspot = `bernoulli(fraction)`, then `below(|disc|)`
/// or `below(n)`.
class OriginModel {
 public:
  /// Uniform origins over `num_nodes` servers.
  explicit OriginModel(std::size_t num_nodes);

  /// Origins per `spec` on `topology` (hotspot disc around
  /// `topology.central_node()`).
  OriginModel(const Topology& topology, const OriginSpec& spec);

  [[nodiscard]] NodeId sample(Rng& rng) const;

  /// The hotspot disc (empty for Uniform origins).
  [[nodiscard]] const std::vector<NodeId>& disc() const { return disc_; }

 private:
  std::size_t num_nodes_;
  double fraction_ = 0.0;
  std::vector<NodeId> disc_;
};

/// The paper's model (and the pre-scenario simulator): origin ~ OriginSpec,
/// file i.i.d. from a fixed popularity law. Declared marginals: the
/// OriginSpec mixture over nodes and `popularity.pmf()` over files.
class StaticTraceSource final : public TraceSource {
 public:
  StaticTraceSource(std::size_t num_nodes, const Popularity& popularity);
  StaticTraceSource(const Topology& topology, const OriginSpec& origins,
                    const Popularity& popularity);

  Request next(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

 private:
  OriginModel origins_;
  AliasSampler files_;
};

/// Flash crowd: a triangular pulse of spatially concentrated demand. The
/// in-disc probability rises linearly from 0 at `flash_start·m` to
/// `flash_peak` at the window midpoint, then falls back to 0 at
/// `flash_end·m`; outside the window origins are uniform. Files are i.i.d.
/// from the fixed popularity law. Declared origin marginal: node u gets
/// (1-F)/n + F·[u ∈ disc]/|disc| where F = mean of `pulse_fraction` over
/// the horizon (≈ flash_peak·(end-start)/2).
class FlashCrowdTraceSource final : public TraceSource {
 public:
  FlashCrowdTraceSource(const Topology& topology, const Popularity& popularity,
                        const TraceSpec& spec, std::size_t horizon);

  Request next(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

  /// In-disc probability at request index `t` (the triangular pulse).
  [[nodiscard]] double pulse_fraction(std::size_t t) const;

  /// Exact mean of `pulse_fraction` over the horizon.
  [[nodiscard]] double mean_pulse() const;

  [[nodiscard]] const std::vector<NodeId>& disc() const { return disc_; }

 private:
  std::size_t num_nodes_;
  std::vector<NodeId> disc_;
  AliasSampler files_;
  TraceSpec spec_;
  std::size_t horizon_;
  std::size_t clock_ = 0;
};

/// Diurnal popularity: the Zipf exponent oscillates over the trace,
/// gamma(t) = gamma + A·sin(2π·t·cycles/m), discretized into `kPhases`
/// buckets per cycle (one alias sampler each). Origins follow the supplied
/// OriginModel (so a static hotspot composes with the popularity cycle).
/// Declared file marginal: the bucket-occupancy-weighted mixture of the
/// per-bucket Zipf laws (`marginal_pmf`).
class DiurnalTraceSource final : public TraceSource {
 public:
  static constexpr std::uint32_t kPhases = 8;

  DiurnalTraceSource(OriginModel origins, const Popularity& popularity,
                     const TraceSpec& spec, std::size_t horizon);

  Request next(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

  /// Phase bucket of request index `t`, in [0, kPhases).
  [[nodiscard]] std::uint32_t phase_of(std::size_t t) const;

  /// Zipf exponent of phase bucket `phase`.
  [[nodiscard]] double phase_gamma(std::uint32_t phase) const;

  /// Exact file marginal of a `horizon`-length trace: the mixture of the
  /// per-phase pmfs weighted by how often each phase is visited.
  [[nodiscard]] std::vector<double> marginal_pmf() const;

 private:
  OriginModel origins_;
  double base_gamma_;
  std::vector<std::vector<double>> phase_pmfs_;
  std::vector<AliasSampler> phase_samplers_;
  TraceSpec spec_;
  std::size_t horizon_;
  std::size_t clock_ = 0;
};

/// Catalog churn: the trace is split into `churn_epochs` equal epochs; at
/// each epoch boundary a fresh uniform subset of
/// `floor(K·churn_offline_fraction)` files goes offline and requests for
/// them are redrawn (rejection against the fixed popularity law). Origins
/// follow the supplied OriginModel. Within an epoch the file marginal is
/// the popularity law conditioned on the online set. Caveat: the
/// offline-file invariant holds for the *generated* trace; the later
/// missing-file repair (`SanitizingTraceSource`) redraws zero-replica
/// requests from the unconditioned base law — it repairs placement gaps
/// and knows nothing of the epoch clock, so a repaired request may land on
/// an offline-but-cached file.
class ChurnTraceSource final : public TraceSource {
 public:
  ChurnTraceSource(OriginModel origins, const Popularity& popularity,
                   const TraceSpec& spec, std::size_t horizon);

  Request next(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

  /// True if `file` is offline in the current epoch (tests observe this
  /// right after `next` to assert no offline file is ever requested).
  [[nodiscard]] bool is_offline(FileId file) const {
    return offline_[file];
  }

 private:
  void rotate_offline_set(Rng& rng);

  OriginModel origins_;
  AliasSampler files_;
  std::size_t num_files_;
  TraceSpec spec_;
  std::size_t epoch_length_;
  std::vector<bool> offline_;
  std::size_t offline_count_;
  std::size_t clock_ = 0;
};

/// Temporal locality: with probability `locality_prob` the request reuses a
/// uniformly chosen file from the last `locality_depth` requests (an
/// LRU-stack-correlated redraw); otherwise it draws fresh from the
/// popularity law. Origins follow the supplied OriginModel. The stationary
/// file marginal is the popularity law itself (reuse draws resample past
/// marginal draws), which the envelope test checks with a
/// correlation-tolerant threshold.
class TemporalLocalityTraceSource final : public TraceSource {
 public:
  TemporalLocalityTraceSource(OriginModel origins,
                              const Popularity& popularity,
                              const TraceSpec& spec);

  Request next(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

 private:
  OriginModel origins_;
  AliasSampler files_;
  TraceSpec spec_;
  std::vector<FileId> window_;  ///< ring buffer of recent files
  std::size_t filled_ = 0;
  std::size_t head_ = 0;
};

/// Adversarial hot keys: with probability `attack_fraction` the request
/// targets a uniform file among the `attack_top_k` most popular; otherwise
/// it draws from the popularity law. Origins follow the supplied
/// OriginModel. Declared file marginal: (1-a)·p_j + a·[j ∈ topk]/k.
class AdversarialTraceSource final : public TraceSource {
 public:
  AdversarialTraceSource(OriginModel origins, const Popularity& popularity,
                         const TraceSpec& spec);

  Request next(Rng& rng) override;
  [[nodiscard]] std::string describe() const override;

  /// The attacked file set (ids of the top-k most popular files).
  [[nodiscard]] const std::vector<FileId>& hot_set() const { return hot_; }

  /// Exact file marginal of the mixed process.
  [[nodiscard]] std::vector<double> marginal_pmf() const;

 private:
  OriginModel origins_;
  AliasSampler files_;
  std::vector<double> base_pmf_;
  TraceSpec spec_;
  std::vector<FileId> hot_;
};

}  // namespace proxcache
