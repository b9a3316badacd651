#include "spatial/bucket_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

/// Cell edge for `count` points: the hint, or ~1 point per cell
/// (side / sqrt(count)); on the torus rounded down to a divisor of the
/// side, which the wrapped cell arithmetic requires (1 always divides).
std::int32_t cell_edge(const Lattice& lattice, std::size_t count,
                       std::int32_t cell_hint) {
  std::int32_t cell = cell_hint;
  if (cell <= 0) {
    const double target =
        static_cast<double>(lattice.side()) /
        std::sqrt(static_cast<double>(std::max<std::size_t>(count, 1)));
    cell = std::max<std::int32_t>(1, static_cast<std::int32_t>(target));
  }
  cell = std::min(cell, lattice.side());
  if (lattice.wrap() == Wrap::Torus) {
    while (lattice.side() % cell != 0) --cell;
  }
  return cell;
}

}  // namespace

BucketGrids::BucketGrids(
    const Lattice& lattice, std::size_t num_sets,
    FunctionRef<std::span<const NodeId>(std::size_t)> points,
    std::size_t min_points, std::int32_t cell_hint)
    : lattice_(&lattice), shapes_(num_sets) {
  PROXCACHE_REQUIRE(lattice.side() <= kMaxPackedSide,
                    "lattice side exceeds the packed coordinate range");
  // Shapes first, so the shared array is allocated once.
  std::size_t cells = 0;
  std::size_t total = 0;
  std::size_t scratch_size = 0;
  for (std::size_t s = 0; s < num_sets; ++s) {
    const std::size_t count = points(s).size();
    if (count < min_points) continue;
    Shape& shape = shapes_[s];
    shape.cell = cell_edge(lattice, count, cell_hint);
    shape.cells_per_axis = (lattice.side() + shape.cell - 1) / shape.cell;
    shape.first_cell = cells;
    const auto per_axis = static_cast<std::size_t>(shape.cells_per_axis);
    cells += per_axis * per_axis;
    total += count;
    scratch_size = std::max(scratch_size, 2 * count);
  }
  PROXCACHE_REQUIRE(total <= std::numeric_limits<std::uint32_t>::max(),
                    "bucket grids hold more points than 32-bit offsets");
  // One allocation for offsets and points: with the two in separate
  // arrays, paper-sweep's replications faulted their grid memory in again
  // (~535k minor faults in a 10 s run on 4 workers, against ~117k, none of
  // them after the first passes).
  storage_.assign(cells + 2 + total, 0);
  points_begin_ = cells + 2;
  const auto sorted = std::span(storage_).subspan(points_begin_);

  // Counting sort of each set by cell, after the previous set's points: its
  // first offset is the previous set's end. With `offsets` the set's view
  // and c a cell, the count of c goes to offsets[c + 2], the prefix sum
  // turns offsets[c + 1] into c's start, and the scatter advances it to
  // c's end, which is c + 1's start. The count of the last cell lands one
  // slot past the set's offsets: in the next set's offsets[1], which that
  // set overwrites with its start, or in the spare slot before the points.
  // The scatter runs in set order, so a cell keeps its points in that order.
  // The scratch holds each point's packed coordinate and cell.
  std::vector<std::uint32_t> scratch(scratch_size);
  const Divider by_side(static_cast<std::uint32_t>(lattice.side()));
  for (std::size_t s = 0; s < num_sets; ++s) {
    if (!has_grid(s)) continue;
    const auto set = points(s);
    const Shape& shape = shapes_[s];
    const auto per_axis = static_cast<std::uint32_t>(shape.cells_per_axis);
    const std::size_t num_cells = static_cast<std::size_t>(per_axis) * per_axis;
    const auto offsets =
        std::span(storage_).subspan(shape.first_cell, num_cells + 2);
    const std::span<PackedCoord> coord_of(scratch.data(), set.size());
    const std::span<std::uint32_t> cell_of(scratch.data() + set.size(),
                                           set.size());
    const Divider by_cell(static_cast<std::uint32_t>(shape.cell));
    for (std::size_t i = 0; i < set.size(); ++i) {
      PROXCACHE_REQUIRE(set[i] < lattice.size(), "node id out of range");
      const Point p = by_side.coord(set[i]);
      coord_of[i] = pack_coord(p);
      cell_of[i] = by_cell(static_cast<std::uint32_t>(p.y)) * per_axis +
                   by_cell(static_cast<std::uint32_t>(p.x));
      ++offsets[cell_of[i] + 2];
    }
    offsets[1] = offsets[0];
    for (std::size_t c = 2; c <= num_cells; ++c) offsets[c] += offsets[c - 1];
    for (std::size_t i = 0; i < set.size(); ++i) {
      sorted[offsets[cell_of[i] + 1]++] = coord_of[i];
    }
  }
}

}  // namespace proxcache
