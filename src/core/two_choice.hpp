#pragma once
/// \file two_choice.hpp
/// Strategy II (paper Definition 3): the proximity-aware power of two
/// choices — the paper's primary contribution, generalized to `d` choices.
///
/// For a request born at `u` for file `j`, sample `d` (default 2) uniform
/// candidates from `F_j(u)` = replicas of `j` within hop distance `r` of `u`
/// (a single streaming pass with a k-reservoir — no candidate list is
/// materialized), then serve at the least-loaded candidate (uniform tie
/// break). `r = ∞` samples from the global replica list `S_j` directly.
///
/// When `|F_j(u)| == 0` the configured FallbackPolicy applies (the paper's
/// theorems guarantee this is vanishingly rare in the good regime; we count
/// every fallback so benches can report the rate). A lone candidate is used
/// directly. An optional observer receives each sampled candidate pair,
/// which is how the `lemma3_config_graph` claim measures the edge-sampling
/// probabilities of Lemma 3(b).

#include <functional>

#include "core/config.hpp"
#include "core/strategy.hpp"
#include "spatial/replica_index.hpp"

namespace proxcache {

/// Strategy II options (bound from the `two-choice` spec parameters).
struct TwoChoiceOptions {
  Hop radius = kUnboundedRadius;
  std::uint32_t num_choices = 2;
  bool with_replacement = false;
  FallbackPolicy fallback = FallbackPolicy::ExpandRadius;
  /// (1+β) process: probability of performing the d-choice comparison;
  /// otherwise a single uniform candidate is used. β = 1 ⇒ paper model.
  double beta = 1.0;
};

/// The proximity-aware d-choice strategy. Split-phase: the (1+β) draw,
/// candidate sampling, fallback handling and per-candidate distances all
/// happen in `propose`; `choose` is just the d-way min-load comparison.
class TwoChoiceStrategy final : public Strategy {
 public:
  TwoChoiceStrategy(const ReplicaIndex& index, TwoChoiceOptions options);

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;

  [[nodiscard]] std::string name() const override;

  /// Observer invoked with the full candidate set of every request that
  /// sampled >= 2 candidates (before the load comparison). Used by the
  /// Lemma 3(b) instrumentation; pass nullptr to disable.
  using PairObserver = std::function<void(std::span<const NodeId>)>;
  void set_observer(PairObserver observer) { observer_ = std::move(observer); }

 private:
  /// Sample up to `num_choices` candidates within `radius` of `origin`;
  /// returns the number found (all replicas if fewer than num_choices).
  std::uint32_t sample_candidates(NodeId origin, FileId file, Hop radius,
                                  Rng& rng, NodeId out[8]) const;

  const ReplicaIndex* index_;
  TwoChoiceOptions options_;
  PairObserver observer_;
};

}  // namespace proxcache
