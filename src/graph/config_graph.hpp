#pragma once
/// \file config_graph.hpp
/// The paper's configuration graph H (Definition 4): vertices are servers;
/// `{u, v}` is an edge iff the two nodes cached at least one common file and
/// `d(u, v) <= 2r` on the lattice. Lemma 3 shows H is almost Δ-regular with
/// `Δ = Θ(M²r²/K)` in the Theorem 4 regime and that Strategy II samples
/// edges of H with probability O(1/e(H)) — both verified by
/// `paper --claim lemma3_config_graph` and the graph tests.

#include <cstddef>

#include "catalog/placement.hpp"
#include "graph/compact_graph.hpp"
#include "topology/lattice.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Build H for proximity parameter `r` (`kUnboundedRadius` = no distance
/// constraint). Cost is `O(Σ_j |S_j|²)` pair enumeration; intended for the
/// paper's simulation sizes (n in the thousands).
CompactGraph build_config_graph(const Lattice& lattice,
                                const Placement& placement, Hop r);

/// Lemma 3(a)'s predicted degree `Δ = M² (2r)² / K` with unit constant
/// (callers normalize; `r` capped at the lattice diameter).
double predicted_config_degree(const Lattice& lattice, std::size_t cache_size,
                               std::size_t num_files, Hop r);

}  // namespace proxcache
