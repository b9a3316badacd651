#pragma once
/// \file lattice.hpp
/// The paper's topology substrate: a `side × side` square lattice of
/// servers with hop (L1 / Manhattan) distance, in one of two wrap modes:
///
/// * `Wrap::Torus` — opposite edges identified (the paper's default model,
///   Remark 1: avoids boundary effects, all asymptotics carry to the grid);
/// * `Wrap::Grid`  — bounded grid with true boundaries (ablation).
///
/// Nodes are identified by `NodeId = y * side + x`. `Lattice` implements
/// the abstract `Topology` interface (topology/topology.hpp) bit-identically
/// to its pre-interface behavior — same distances, same shell enumeration
/// order — so the paper's goldens are unchanged by the topology seam. The
/// lattice-specific coordinate API (`coord`, `node`, `node_wrapped`) stays
/// public for the analyses that are genuinely lattice-bound (Voronoi cells,
/// the configuration graph, the bucket grid).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "topology/point.hpp"
#include "topology/topology.hpp"
#include "util/contracts.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Edge-identification mode of the lattice.
enum class Wrap : std::uint8_t {
  Torus,  ///< wraparound in both axes (paper default)
  Grid,   ///< bounded; no wraparound
};

/// Human-readable wrap-mode name.
std::string to_string(Wrap wrap);

/// A square lattice topology with L1 hop distance.
class Lattice final : public Topology {
 public:
  /// Construct a `side × side` lattice; `side >= 1`.
  Lattice(std::int32_t side, Wrap wrap);

  /// Construct from a node count that must be a perfect square.
  static Lattice from_node_count(std::size_t n, Wrap wrap);

  /// True iff `n` has an exact integer square root.
  static bool is_perfect_square(std::size_t n);

  [[nodiscard]] std::int32_t side() const { return side_; }
  [[nodiscard]] std::size_t size() const override {
    return static_cast<std::size_t>(side_) * static_cast<std::size_t>(side_);
  }
  [[nodiscard]] Wrap wrap() const { return wrap_; }

  /// Coordinate of a node id.
  [[nodiscard]] Point coord(NodeId u) const {
    PROXCACHE_REQUIRE(u < size(), "node id out of range");
    const auto side = static_cast<NodeId>(side_);
    return Point{static_cast<std::int32_t>(u % side),
                 static_cast<std::int32_t>(u / side)};
  }

  /// Node id of an in-bounds coordinate.
  [[nodiscard]] NodeId node(Point p) const;

  /// Node id of a possibly out-of-bounds coordinate after wrap reduction.
  /// Only valid in torus mode; grid callers must pass in-bounds points.
  [[nodiscard]] NodeId node_wrapped(Point p) const;

  /// Hop (shortest-path) distance between two nodes.
  [[nodiscard]] Hop distance(NodeId u, NodeId v) const override {
    return distance_from(coord(u), v);
  }

  /// Hop distance from an already resolved coordinate `pu` to node `v`:
  /// the distance kernel. Scans from one origin resolve `coord(u)` once
  /// and pay a single coordinate division per node visited.
  [[nodiscard]] Hop distance_from(Point pu, NodeId v) const {
    const Point pv = coord(v);
    return static_cast<Hop>(axis_distance(pu.x, pv.x) +
                            axis_distance(pu.y, pv.y));
  }

  /// Largest possible hop distance between any two nodes (the diameter).
  [[nodiscard]] Hop diameter() const override;

  /// Exact `|B_r(u)|` — number of nodes within distance `r` of `u`
  /// (including `u`). On the torus this is independent of `u`.
  [[nodiscard]] std::size_t ball_size(NodeId u, Hop r) const override;

  /// Exact number of nodes at distance exactly `d` from `u`. On the
  /// bounded grid, shells truncated by the boundary are counted exactly —
  /// never approximated by the torus closed form.
  [[nodiscard]] std::size_t shell_size(NodeId u, Hop d) const override;

  /// Enumerate the shell at distance `d` (Topology conformance). Same
  /// order as the inlined `for_each_at_distance` template in shells.hpp.
  void visit_shell(NodeId u, Hop d, NodeVisitor fn) const override;

  [[nodiscard]] bool directly_enumerates_shells() const override {
    return true;
  }

  /// The 2–4 lattice neighbours of `u` (4 on a torus with side >= 3).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId u) const override;

  /// Average hop distance from a fixed node to a uniformly random node.
  /// Used as the reference "no proximity constraint" communication cost,
  /// which is Θ(√n).
  [[nodiscard]] double mean_distance_to_random_node(NodeId u) const override;

  /// The lattice center `(side/2, side/2)` — the historical anchor of the
  /// hotspot and flash-crowd demand discs.
  [[nodiscard]] NodeId central_node() const override;

  /// Canonical spec string, e.g. `torus(side=45)`.
  [[nodiscard]] std::string describe() const override;

  /// `(x, y)` coordinate label.
  [[nodiscard]] std::string node_label(NodeId u) const override;

  [[nodiscard]] const Lattice* as_lattice() const override { return this; }

 private:
  /// Per-axis ring (torus) or line (grid) distance.
  [[nodiscard]] std::int32_t axis_distance(std::int32_t a,
                                           std::int32_t b) const {
    const std::int32_t direct = std::abs(a - b);
    if (wrap_ == Wrap::Grid) return direct;
    return std::min(direct, side_ - direct);
  }

  /// Number of axis offsets at ring distance exactly `a` (torus only).
  [[nodiscard]] std::int32_t torus_axis_multiplicity(std::int32_t a) const;

  std::int32_t side_;
  Wrap wrap_;
};

}  // namespace proxcache
