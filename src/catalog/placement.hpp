#pragma once
/// \file placement.hpp
/// Cache content placement (paper §II-B).
///
/// In the paper's placement phase each of the `n` servers independently
/// caches `M` files drawn from the popularity law **with replacement**
/// ("proportional placement"); duplicates occupy slots but only the distinct
/// set matters for serving. This module materializes a placement as two
/// CSR views (offsets plus one flat array each):
///
///   * per-node sorted distinct file lists, and
///   * per-file sorted replica lists `S_j` (the nodes that cached file j),
///
/// which are the two access paths everything else (nearest-replica search,
/// two-choice candidate sampling, configuration graph, goodness statistics)
/// is built on. `generate`, `full` and `compose` build only the node lists;
/// one counting pass over them fills the replica lists. Both views index
/// with `uint32_t` offsets, so a placement holds at most 2³²−1 (node, file)
/// entries: the builders reject `n·min(M, K)` past that before allocating.
/// A distinct-sampling mode is kept as an ablation
/// (`bench/ablation_placement.cpp`; see `docs/architecture.md`).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/popularity.hpp"
#include "random/rng.hpp"
#include "util/types.hpp"

namespace proxcache {

/// How the M cache slots of a node are filled.
enum class PlacementMode : std::uint8_t {
  /// Paper default: M i.i.d. draws from P, duplicates allowed
  /// (so `t(u) = |distinct(u)| <= M`).
  ProportionalWithReplacement,
  /// Ablation: M *distinct* files per node, drawn popularity-biased without
  /// replacement (all K files if `M >= K`).
  DistinctProportional,
};

/// Human-readable mode name.
std::string to_string(PlacementMode mode);

/// An immutable cache placement for `n` nodes over a `K`-file library.
class Placement {
 public:
  /// Sample a placement for `num_nodes` servers with `cache_size` slots per
  /// node. Deterministic given `rng` state. Throws std::invalid_argument
  /// when `n·min(M, K)` exceeds the offsets' range.
  static Placement generate(std::size_t num_nodes,
                            const Popularity& popularity,
                            std::size_t cache_size, PlacementMode mode,
                            Rng& rng);

  /// Every node caches the whole `num_files` library — the placement of an
  /// origin tier (an origin *has* everything; nothing to sample). Throws
  /// std::invalid_argument when `n·K` exceeds the offsets' range.
  static Placement full(std::size_t num_nodes, std::size_t num_files,
                        PlacementMode mode);

  /// Concatenate per-tier placements into one placement over the composed
  /// node-id space: part `i`'s node `u` becomes global node
  /// `sum of earlier part sizes + u`. All parts must cover the same file
  /// library. `cache_size()` of the composition is the largest per-part
  /// capacity. Throws std::invalid_argument when the parts together hold
  /// more entries than the offsets index.
  static Placement compose(std::span<const Placement> parts);

  [[nodiscard]] std::size_t num_nodes() const {
    return node_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_files() const {
    return replica_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t cache_size() const { return cache_size_; }
  [[nodiscard]] PlacementMode mode() const { return mode_; }

  /// Sorted distinct files cached at node `u`.
  [[nodiscard]] std::span<const FileId> files_of(NodeId u) const {
    return {node_files_.data() + node_offsets_[u],
            node_offsets_[u + 1] - node_offsets_[u]};
  }

  /// Number of distinct files cached at `u` (the paper's `t(u)`).
  [[nodiscard]] std::size_t distinct_count(NodeId u) const {
    return node_offsets_[u + 1] - node_offsets_[u];
  }

  /// True iff node `u` cached file `j` (binary search, O(log M)).
  [[nodiscard]] bool caches(NodeId u, FileId j) const;

  /// Sorted list of nodes that cached file `j` (the paper's `S_j`).
  [[nodiscard]] std::span<const NodeId> replicas(FileId j) const {
    return {replica_nodes_.data() + replica_offsets_[j], replica_count(j)};
  }

  /// `|S_j|`.
  [[nodiscard]] std::size_t replica_count(FileId j) const {
    return replica_offsets_[j + 1] - replica_offsets_[j];
  }

  /// Number of library files with at least one replica network-wide.
  [[nodiscard]] std::size_t files_with_replicas() const;

  /// Distinct-file overlap `t(u, v) = |T(u, v)|` between two nodes
  /// (paper Definition 4/5); O(M) merge of the sorted lists.
  [[nodiscard]] std::size_t overlap(NodeId u, NodeId v) const;

 private:
  /// Take the node lists and invert them into the replica lists.
  Placement(std::size_t num_files, std::vector<std::uint32_t> offsets,
            std::vector<FileId> files, std::size_t cache_size,
            PlacementMode mode);

  std::vector<std::uint32_t> node_offsets_;     // CSR offsets, size n+1
  std::vector<FileId> node_files_;              // concatenated sorted lists
  std::vector<std::uint32_t> replica_offsets_;  // CSR offsets, size K+1
  std::vector<NodeId> replica_nodes_;           // concatenated sorted S_j
  std::size_t cache_size_;
  PlacementMode mode_;
};

}  // namespace proxcache
