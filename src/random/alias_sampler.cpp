#include "random/alias_sampler.hpp"

#include <limits>
#include <numeric>

#include "util/contracts.hpp"

namespace proxcache {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  PROXCACHE_REQUIRE(!weights.empty(), "alias sampler needs >= 1 category");
  PROXCACHE_REQUIRE(weights.size() <= std::numeric_limits<std::uint32_t>::max(),
                    "too many categories");
  double total = 0.0;
  for (const double w : weights) {
    PROXCACHE_REQUIRE(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  PROXCACHE_REQUIRE(total > 0.0, "at least one weight must be positive");

  const std::size_t k = weights.size();
  prob_.assign(k, 0.0);
  alias_.assign(k, 0);

  // Vose's algorithm: scale weights to mean 1, split into small/large piles,
  // pair each small column with a large donor.
  std::vector<double> scaled(k);
  for (std::size_t i = 0; i < k; ++i) {
    scaled[i] = weights[i] * static_cast<double>(k) / total;
  }
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(k);
  large.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<std::uint32_t>(i));
    } else {
      large.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Numerical leftovers are exactly-1 columns.
  for (const std::uint32_t i : large) prob_[i] = 1.0;
  for (const std::uint32_t i : small) prob_[i] = 1.0;
}

std::vector<double> AliasSampler::encoded_pmf() const {
  const std::size_t k = prob_.size();
  std::vector<double> pmf(k, 0.0);
  const double column_mass = 1.0 / static_cast<double>(k);
  for (std::size_t i = 0; i < k; ++i) {
    pmf[i] += column_mass * prob_[i];
    pmf[alias_[i]] += column_mass * (1.0 - prob_[i]);
  }
  return pmf;
}

}  // namespace proxcache
