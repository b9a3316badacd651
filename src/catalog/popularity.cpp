#include "catalog/popularity.hpp"

#include <cmath>
#include <sstream>

#include "util/contracts.hpp"

namespace proxcache {

Popularity Popularity::uniform(std::size_t num_files) {
  PROXCACHE_REQUIRE(num_files >= 1, "library needs >= 1 file");
  std::vector<double> pmf(num_files, 1.0 / static_cast<double>(num_files));
  return Popularity(PopularityKind::Uniform, std::move(pmf), 0.0);
}

Popularity Popularity::zipf(std::size_t num_files, double gamma) {
  PROXCACHE_REQUIRE(num_files >= 1, "library needs >= 1 file");
  PROXCACHE_REQUIRE(gamma >= 0.0, "zipf gamma must be >= 0");
  std::vector<double> pmf(num_files);
  double norm = 0.0;
  for (std::size_t j = 0; j < num_files; ++j) {
    pmf[j] = std::pow(static_cast<double>(j + 1), -gamma);
    norm += pmf[j];
  }
  for (double& p : pmf) p /= norm;
  return Popularity(PopularityKind::Zipf, std::move(pmf), gamma);
}

std::string Popularity::describe() const {
  if (kind_ == PopularityKind::Uniform) return "uniform";
  std::ostringstream os;
  os << "zipf(" << gamma_ << ")";
  return os.str();
}

double generalized_harmonic(std::size_t num_files, double gamma) {
  double total = 0.0;
  for (std::size_t j = 1; j <= num_files; ++j) {
    total += std::pow(static_cast<double>(j), -gamma);
  }
  return total;
}

double nearest_cost_reference(const Popularity& popularity,
                              std::size_t cache_size) {
  PROXCACHE_REQUIRE(cache_size >= 1, "cache size must be >= 1");
  double cost = 0.0;
  for (FileId j = 0; j < popularity.num_files(); ++j) {
    const double p = popularity.pmf(j);
    if (p <= 0.0) continue;
    // Probability a given node caches file j under proportional placement
    // with replacement of M slots: q_j = 1 - (1 - p_j)^M.
    const double q =
        1.0 - std::pow(1.0 - p, static_cast<double>(cache_size));
    cost += p / std::sqrt(q);
  }
  return cost;
}

double nearest_cost_reference_finite(const Popularity& popularity,
                                     std::size_t cache_size,
                                     std::size_t num_nodes) {
  PROXCACHE_REQUIRE(cache_size >= 1, "cache size must be >= 1");
  PROXCACHE_REQUIRE(num_nodes >= 1, "need >= 1 node");
  const double cap = std::sqrt(static_cast<double>(num_nodes)) / 2.0;
  double weighted_cost = 0.0;
  double weight = 0.0;
  for (FileId j = 0; j < popularity.num_files(); ++j) {
    const double p = popularity.pmf(j);
    if (p <= 0.0) continue;
    const double q =
        1.0 - std::pow(1.0 - p, static_cast<double>(cache_size));
    // Availability: at least one of the n nodes cached file j.
    const double available =
        1.0 - std::pow(1.0 - q, static_cast<double>(num_nodes));
    if (available <= 0.0) continue;
    const double distance = std::min(1.0 / std::sqrt(q), cap);
    weighted_cost += p * available * distance;
    weight += p * available;
  }
  PROXCACHE_REQUIRE(weight > 0.0, "no file is ever available");
  return weighted_cost / weight;
}

std::string theorem3_regime(double gamma) {
  if (gamma < 1.0) return "Theta(sqrt(K/M))";
  if (gamma == 1.0) return "Theta(sqrt(K/(M log K)))";
  if (gamma < 2.0) return "Theta(K^(1-gamma/2)/sqrt(M))";
  if (gamma == 2.0) return "Theta(log(K)/sqrt(M))";
  return "Theta(1/sqrt(M))";
}

}  // namespace proxcache
