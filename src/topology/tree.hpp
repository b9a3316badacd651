#pragma once
/// \file tree.hpp
/// A complete rooted b-ary tree — the shape of hierarchical cache tiers
/// (edge → regional → origin, as in DistCache). Nodes are numbered in
/// level order: the root is 0 and the children of `i` are
/// `i*b + 1 … i*b + b`, so parent/level arithmetic is closed-form and
/// distances are computed by walking to the lowest common ancestor.

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Complete b-ary tree of the given depth (depth 0 = a single root).
class TreeTopology final : public Topology {
 public:
  /// `branching >= 1`, `depth >= 0`; throws when the node count overflows
  /// the NodeId space.
  TreeTopology(std::uint32_t branching, std::uint32_t depth);

  /// Nodes of a complete b-ary tree of the given depth, or
  /// `kInvalidNode + 1` when the count overflows the NodeId space (the
  /// registry reports it; the constructor throws).
  static std::size_t node_count(std::uint32_t branching, std::uint32_t depth);

  [[nodiscard]] std::uint32_t branching() const { return branching_; }
  [[nodiscard]] std::uint32_t depth() const { return depth_; }

  [[nodiscard]] std::size_t size() const override { return size_; }
  [[nodiscard]] Hop distance(NodeId u, NodeId v) const override;
  /// Leaf → root → leaf for a branching tree; a unary tree is a path, so
  /// its two most distant nodes are the root and the single deepest node.
  [[nodiscard]] Hop diameter() const override {
    return static_cast<Hop>(branching_ >= 2 ? 2 * depth_ : depth_);
  }
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId u) const override;

  /// Level (distance from the root) of node `u`.
  [[nodiscard]] std::uint32_t level(NodeId u) const;

  /// Parent of `u`; the root is its own parent.
  [[nodiscard]] NodeId parent(NodeId u) const;

  /// Demand discs anchor at the root: the natural "center" of a hierarchy.
  [[nodiscard]] NodeId central_node() const override { return 0; }

  [[nodiscard]] std::string describe() const override;

  /// `level:id` label, e.g. `2:5`.
  [[nodiscard]] std::string node_label(NodeId u) const override;

 private:
  std::uint32_t branching_;
  std::uint32_t depth_;
  std::size_t size_;
  std::vector<NodeId> level_first_;  ///< first id of each level
};

}  // namespace proxcache
