#pragma once
/// \file popularity.hpp
/// File library popularity profiles (paper §II-B).
///
/// Two families are modelled exactly as in the paper: Uniform
/// (`p_i = 1/K`) and Zipf with parameter γ (`p_i ∝ i^{-γ}`, rank 1 most
/// popular). Also provides the generalized harmonic number `Λ(γ)` and the
/// closed-form Theorem 3 communication-cost reference
/// `C = Σ_j p_j / √(1 - (1 - p_j)^M)` (paper Eq. 13–14) that the Figure 2
/// and Theorem 3 benches compare against.

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace proxcache {

/// Popularity family tag.
enum class PopularityKind : std::uint8_t { Uniform, Zipf };

/// An immutable popularity profile `P = {p_1, …, p_K}` over a K-file library.
class Popularity {
 public:
  /// Uniform profile: `p_i = 1/K`.
  static Popularity uniform(std::size_t num_files);

  /// Zipf profile with parameter `gamma >= 0`:
  /// `p_i = i^{-γ} / Λ(γ)` for rank `i = 1..K` (file id `i-1`).
  static Popularity zipf(std::size_t num_files, double gamma);

  [[nodiscard]] PopularityKind kind() const { return kind_; }
  [[nodiscard]] std::size_t num_files() const { return pmf_.size(); }
  [[nodiscard]] double gamma() const { return gamma_; }

  /// Probability of file `j` (0-based id; Zipf rank is `j+1`).
  [[nodiscard]] double pmf(FileId j) const { return pmf_[j]; }

  /// The whole probability vector (sums to 1 up to rounding).
  [[nodiscard]] const std::vector<double>& pmf() const { return pmf_; }

  /// Short identifier for table headers, e.g. "uniform" / "zipf(0.8)".
  [[nodiscard]] std::string describe() const;

 private:
  Popularity(PopularityKind kind, std::vector<double> pmf, double gamma)
      : kind_(kind), pmf_(std::move(pmf)), gamma_(gamma) {}

  PopularityKind kind_;
  std::vector<double> pmf_;
  double gamma_;
};

/// Generalized harmonic number `Λ(γ) = Σ_{j=1..K} j^{-γ}` (paper Eq. 17).
double generalized_harmonic(std::size_t num_files, double gamma);

/// Closed-form per-request expected probe distance of the nearest-replica
/// strategy up to a constant factor (paper Eq. 13–14):
/// `C ≈ Σ_j p_j / √(1 - (1 - p_j)^M)`. Exact in K and M, Θ-accurate in
/// shape; benches normalize by one measured point before comparing.
double nearest_cost_reference(const Popularity& popularity,
                              std::size_t cache_size);

/// Finite-network variant of `nearest_cost_reference`: corrects Eq. 13–14
/// for a torus of `num_nodes` servers under the Resample missing-file
/// policy. Two corrections matter at skewed popularity: (i) a file absent
/// from the whole network (probability `(1-q_j)^n`) is resampled, so its
/// probability mass is redistributed over the *available* files; (ii) no
/// probe can exceed the mean network distance (≈ √n/2 on the torus).
/// Reduces to the plain reference as `n → ∞`.
double nearest_cost_reference_finite(const Popularity& popularity,
                                     std::size_t cache_size,
                                     std::size_t num_nodes);

/// Asymptotic exponent table of Theorem 3 for Zipf (`M = Θ(1)`): returns the
/// predicted growth of C as a *description string* used in bench output,
/// e.g. "Θ(sqrt(K/M))" for γ<1.
std::string theorem3_regime(double gamma);

}  // namespace proxcache
