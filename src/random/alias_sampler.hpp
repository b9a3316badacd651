#pragma once
/// \file alias_sampler.hpp
/// Walker/Vose alias method for O(1) sampling from an arbitrary discrete
/// distribution. Used for file popularity draws (Uniform and Zipf) in both
/// trace generation and cache placement, where billions of draws occur per
/// benchmark sweep.

#include <cstdint>
#include <vector>

#include "random/rng.hpp"

namespace proxcache {

/// O(1)-per-draw sampler over `{0, …, K-1}` with probabilities proportional
/// to the constructor weights. Construction is O(K) (Vose's algorithm).
class AliasSampler {
 public:
  /// Build from non-negative weights; at least one must be positive.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draw one index with the configured probabilities: a uniform column,
  /// kept with its acceptance probability, else its alias. Inline, and the
  /// choice stays a branch: a uniform catalog keeps every column, so it
  /// never mispredicts, and a mask select read slower on the sharded
  /// engine, whose one fill thread makes every draw.
  [[nodiscard]] std::uint32_t sample(Rng& rng) const {
    const auto column = static_cast<std::uint32_t>(rng.below(prob_.size()));
    return rng.uniform() < prob_[column] ? column : alias_[column];
  }

  /// Number of categories K.
  [[nodiscard]] std::size_t size() const { return prob_.size(); }

  /// Exact probability of category `i` as encoded by the alias table
  /// (reconstructed from the internal tables; used by tests to verify the
  /// construction is lossless up to floating-point rounding).
  [[nodiscard]] std::vector<double> encoded_pmf() const;

 private:
  std::vector<double> prob_;          // acceptance threshold per column
  std::vector<std::uint32_t> alias_;  // alias target per column
};

}  // namespace proxcache
