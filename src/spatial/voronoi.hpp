#pragma once
/// \file voronoi.hpp
/// Per-file Voronoi tessellation of the lattice (paper §III, Lemma 1).
///
/// Strategy I induces, for each file `j`, a Voronoi partition of the torus
/// around the replica set `S_j`: every node belongs to the cell of its
/// nearest replica. Lemma 1 bounds the maximum cell size by
/// `O(K log n / M)`; the tessellation here lets tests cross-check the
/// nearest-replica search and lets the `lemma1_voronoi_cells` claim measure the
/// actual cell-size distribution.
///
/// Ties are resolved to the smallest center id, which yields a deterministic
/// partition (the layered multi-source BFS propagates the minimum owner
/// exactly; see the correctness note in voronoi.cpp).

#include <cstddef>
#include <vector>

#include "topology/lattice.hpp"
#include "util/types.hpp"

namespace proxcache {

/// A complete assignment of lattice nodes to their nearest center.
class VoronoiTessellation {
 public:
  /// Multi-source BFS from `centers` (at least one). O(n) time and space.
  VoronoiTessellation(const Lattice& lattice,
                      const std::vector<NodeId>& centers);

  /// Owning center of node `u` (smallest id among equidistant centers).
  [[nodiscard]] NodeId owner(NodeId u) const { return owner_[u]; }

  /// Hop distance from `u` to its nearest center.
  [[nodiscard]] Hop distance(NodeId u) const { return distance_[u]; }

  /// Number of nodes owned by `center` (0 if not a center).
  [[nodiscard]] std::size_t cell_size(NodeId center) const;

  /// Largest cell size across all centers.
  [[nodiscard]] std::size_t max_cell_size() const;

  /// Average distance of a node to its nearest center (= the exact
  /// communication cost of Strategy I for this file under smallest-id tie
  /// breaking; random tie breaking has the same distances).
  [[nodiscard]] double mean_distance() const;

  [[nodiscard]] const std::vector<NodeId>& owners() const { return owner_; }
  [[nodiscard]] const std::vector<Hop>& distances() const { return distance_; }

 private:
  std::vector<NodeId> owner_;
  std::vector<Hop> distance_;
  std::vector<std::size_t> cell_sizes_;  // indexed by center id, sparse
};

}  // namespace proxcache
