#pragma once
/// \file bucket_grid.hpp
/// Uniform bucket-grid spatial index over a point set on the lattice.
///
/// Used by the replica index to answer "replicas of file j within hop
/// distance r of u" without scanning the whole replica list when `|S_j|` is
/// large. Cells are `cell × cell` squares; a radius query visits only the
/// cells intersecting the L1 ball's bounding box (with torus wraparound) and
/// applies the exact distance predicate per point.

#include <cstdint>
#include <span>
#include <vector>

#include "topology/lattice.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Immutable bucket-grid over a fixed set of lattice nodes.
class BucketGrid {
 public:
  /// Index a copy of `points` (node ids on `lattice`); `cell_hint == 0`
  /// picks a cell size targeting ~1 point per cell.
  BucketGrid(const Lattice& lattice, std::span<const NodeId> points,
             std::int32_t cell_hint = 0);

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  /// Chosen cell edge length.
  [[nodiscard]] std::int32_t cell() const { return cell_; }

  /// Invoke `fn(NodeId point, Hop distance)` for every indexed point within
  /// hop distance `r` of `center`. Order is unspecified; each point is
  /// visited exactly once.
  template <typename Fn>
  void for_each_within(NodeId center, Hop r, Fn&& fn) const {
    const Point c = lattice_->coord(center);
    const auto radius = static_cast<std::int32_t>(
        std::min<Hop>(r, lattice_->diameter()));
    // Bounding box of the L1 ball in cell coordinates. In torus mode the
    // constructor guarantees cell_ | side, so shifting a coordinate by
    // ±side shifts the cell index by ±cells_per_axis_ — modular reduction
    // of cell indices is then exact.
    std::int32_t lo_cx = floor_div(c.x - radius, cell_);
    std::int32_t hi_cx = floor_div(c.x + radius, cell_);
    std::int32_t lo_cy = floor_div(c.y - radius, cell_);
    std::int32_t hi_cy = floor_div(c.y + radius, cell_);
    if (lattice_->wrap() == Wrap::Grid) {
      lo_cx = std::max(lo_cx, 0);
      lo_cy = std::max(lo_cy, 0);
      hi_cx = std::min(hi_cx, cells_per_axis_ - 1);
      hi_cy = std::min(hi_cy, cells_per_axis_ - 1);
      if (lo_cx > hi_cx || lo_cy > hi_cy) return;
    }
    // Never visit the same cell twice when the box wraps all the way round.
    const std::int32_t span_x =
        std::min(hi_cx - lo_cx + 1, cells_per_axis_);
    const std::int32_t span_y =
        std::min(hi_cy - lo_cy + 1, cells_per_axis_);
    for (std::int32_t dy = 0; dy < span_y; ++dy) {
      for (std::int32_t dx = 0; dx < span_x; ++dx) {
        const std::int32_t cx = wrap_cell(lo_cx + dx);
        const std::int32_t cy = wrap_cell(lo_cy + dy);
        const std::size_t cell_index =
            static_cast<std::size_t>(cy) *
                static_cast<std::size_t>(cells_per_axis_) +
            static_cast<std::size_t>(cx);
        for (std::uint32_t i = offsets_[cell_index];
             i < offsets_[cell_index + 1]; ++i) {
          const NodeId point = points_[i];
          const Hop d = lattice_->distance_from(c, point);
          if (d <= r) fn(point, d);
        }
      }
    }
  }

 private:
  static std::int32_t floor_div(std::int32_t a, std::int32_t b) {
    std::int32_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }

  [[nodiscard]] std::int32_t wrap_cell(std::int32_t c) const {
    if (lattice_->wrap() == Wrap::Grid) return c;  // caller bounds-checks
    c %= cells_per_axis_;
    if (c < 0) c += cells_per_axis_;
    return c;
  }

  const Lattice* lattice_;
  std::int32_t cell_;
  std::int32_t cells_per_axis_;
  std::vector<std::uint32_t> offsets_;  // CSR over cells
  std::vector<NodeId> points_;          // bucket-sorted point ids
};

}  // namespace proxcache
