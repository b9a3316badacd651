#pragma once
/// \file bucket_grid.hpp
/// Uniform bucket grids over many point sets on one lattice, stored flat.
///
/// Used by the replica index to answer "replicas of file j within hop
/// distance r of u" without scanning the whole replica list when `|S_j|` is
/// large. Each set's cells are `cell × cell` squares; a radius query visits
/// only the cells intersecting the L1 ball's bounding box (with torus
/// wraparound) and applies the exact distance predicate per point.
///
/// All sets share one array: the cell offsets of every set's cells, set
/// after set (a CSR), then the points they index, filled by one counting
/// pass per set through one reused scratch buffer. The build makes the
/// same few allocations whatever the number of sets. Points are stored
/// once, as packed coordinates (spatial/packed_coord.hpp); a query reports
/// the node id `y·side + x` and needs no division per cell or point.

#include <cstdint>
#include <span>
#include <vector>

#include "spatial/packed_coord.hpp"
#include "topology/lattice.hpp"
#include "util/function_ref.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Immutable bucket grids over fixed sets of lattice nodes.
class BucketGrids {
 public:
  /// No grids.
  BucketGrids() = default;

  /// Index every set `s < num_sets` of at least `min_points` points, with
  /// `points(s)` its node ids on `lattice`; `cell_hint == 0` picks a cell
  /// size targeting ~1 point per cell.
  BucketGrids(const Lattice& lattice, std::size_t num_sets,
              FunctionRef<std::span<const NodeId>(std::size_t)> points,
              std::size_t min_points, std::int32_t cell_hint = 0);

  /// True iff set `s` has a grid.
  [[nodiscard]] bool has_grid(std::size_t s) const {
    return s < shapes_.size() && shapes_[s].cells_per_axis > 0;
  }

  /// Number of points in set `s`'s grid; `has_grid(s)` must hold.
  [[nodiscard]] std::size_t size(std::size_t s) const {
    const auto cells = cells_of(s);
    return cells.back() - cells.front();
  }

  /// Invoke `fn(NodeId point, Hop distance)` for every point of set `s`
  /// within hop distance `r` of `center`, each exactly once. Cells are
  /// visited row-major from the bounding box's low corner (wrapped on the
  /// torus), the points of a cell in their order in `points(s)`.
  template <typename Fn>
  void for_each_within(std::size_t s, NodeId center, Hop r, Fn&& fn) const {
    const Shape& shape = shapes_[s];
    const std::int32_t cell = shape.cell;
    const std::int32_t per_axis = shape.cells_per_axis;
    const Point c = lattice_->coord(center);
    const PackedDistance distance(*lattice_, c);
    const auto radius = static_cast<std::int32_t>(
        std::min<Hop>(r, lattice_->diameter()));
    // Bounding box of the L1 ball in cell coordinates. In torus mode the
    // constructor guarantees cell | side, so shifting a coordinate by
    // ±side shifts the cell index by ±cells_per_axis — modular reduction
    // of cell indices is then exact.
    std::int32_t lo_cx = floor_div(c.x - radius, cell);
    std::int32_t hi_cx = floor_div(c.x + radius, cell);
    std::int32_t lo_cy = floor_div(c.y - radius, cell);
    std::int32_t hi_cy = floor_div(c.y + radius, cell);
    if (lattice_->wrap() == Wrap::Grid) {
      lo_cx = std::max(lo_cx, 0);
      lo_cy = std::max(lo_cy, 0);
      hi_cx = std::min(hi_cx, per_axis - 1);
      hi_cy = std::min(hi_cy, per_axis - 1);
      if (lo_cx > hi_cx || lo_cy > hi_cy) return;
    }
    // Never visit the same cell twice when the box wraps all the way round.
    const std::int32_t span_x = std::min(hi_cx - lo_cx + 1, per_axis);
    const std::int32_t span_y = std::min(hi_cy - lo_cy + 1, per_axis);
    const auto cells = cells_of(s);
    const std::int32_t side = lattice_->side();
    // Wrap the box's low corner once; stepping a cell index past the last
    // cell wraps it to 0 (on the grid the clipped box never gets there).
    const std::int32_t first_cx = wrap_cell(lo_cx, per_axis);
    std::int32_t cy = wrap_cell(lo_cy, per_axis);
    for (std::int32_t dy = 0; dy < span_y; ++dy) {
      const auto row = cells.subspan(
          static_cast<std::size_t>(cy) * static_cast<std::size_t>(per_axis),
          static_cast<std::size_t>(per_axis) + 1);
      std::int32_t cx = first_cx;
      for (std::int32_t dx = 0; dx < span_x; ++dx) {
        const auto x = static_cast<std::size_t>(cx);
        for (const PackedCoord point :
             points().subspan(row[x], row[x + 1] - row[x])) {
          const Hop d = distance(point);
          if (d <= r) fn(packed_node(point, side), d);
        }
        if (++cx == per_axis) cx = 0;
      }
      if (++cy == per_axis) cy = 0;
    }
  }

 private:
  /// One set's grid: `cells_per_axis²` cells whose point ranges are
  /// `storage_[first_cell + c]` to `[first_cell + c + 1]`.
  struct Shape {
    std::int32_t cell = 0;
    std::int32_t cells_per_axis = 0;  ///< 0: the set has no grid
    std::size_t first_cell = 0;
  };

  /// Set `s`'s cell offsets (one more than its cells), as a view: an
  /// overrun past them stays inside the shared array, where only the
  /// view's bounds check sees it.
  [[nodiscard]] std::span<const std::uint32_t> cells_of(std::size_t s) const {
    const Shape& shape = shapes_[s];
    const auto per_axis = static_cast<std::size_t>(shape.cells_per_axis);
    return std::span(storage_).subspan(shape.first_cell,
                                       per_axis * per_axis + 1);
  }

  /// Every set's points, indexed by the cell offsets.
  [[nodiscard]] std::span<const PackedCoord> points() const {
    return std::span(storage_).subspan(points_begin_);
  }

  static std::int32_t floor_div(std::int32_t a, std::int32_t b) {
    std::int32_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }

  [[nodiscard]] std::int32_t wrap_cell(std::int32_t c,
                                       std::int32_t per_axis) const {
    if (lattice_->wrap() == Wrap::Grid) return c;  // caller clips the box
    c %= per_axis;
    if (c < 0) c += per_axis;
    return c;
  }

  const Lattice* lattice_ = nullptr;
  std::vector<Shape> shapes_;  ///< per set
  /// Cell offsets of all sets, then the points, bucket-sorted set by set.
  std::vector<std::uint32_t> storage_;
  std::size_t points_begin_ = 0;  ///< index of the first point in storage_
};

}  // namespace proxcache
