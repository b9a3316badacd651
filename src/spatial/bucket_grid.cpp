#include "spatial/bucket_grid.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace proxcache {

BucketGrid::BucketGrid(const Lattice& lattice, std::span<const NodeId> points,
                       std::int32_t cell_hint)
    : lattice_(&lattice) {
  if (cell_hint > 0) {
    cell_ = cell_hint;
  } else {
    // Target roughly one point per cell: cell ≈ side / sqrt(|points|).
    const double target = static_cast<double>(lattice.side()) /
                          std::sqrt(static_cast<double>(
                              std::max<std::size_t>(points.size(), 1)));
    cell_ = std::max<std::int32_t>(1, static_cast<std::int32_t>(target));
  }
  cell_ = std::min(cell_, lattice.side());
  if (lattice.wrap() == Wrap::Torus) {
    // Wraparound cell arithmetic requires cell_ | side; round down to the
    // nearest divisor (terminates at 1, which always divides).
    while (lattice.side() % cell_ != 0) --cell_;
  }
  cells_per_axis_ = (lattice.side() + cell_ - 1) / cell_;

  // Counting sort by cell: resolve each point's cell once, count the cells
  // into offsets_, then scatter the points through the stored cell ids.
  const std::size_t num_cells = static_cast<std::size_t>(cells_per_axis_) *
                                static_cast<std::size_t>(cells_per_axis_);
  offsets_.assign(num_cells + 1, 0);
  std::vector<std::uint32_t> cell_of(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point pt = lattice.coord(points[i]);
    cell_of[i] = static_cast<std::uint32_t>(pt.y / cell_) *
                     static_cast<std::uint32_t>(cells_per_axis_) +
                 static_cast<std::uint32_t>(pt.x / cell_);
    ++offsets_[cell_of[i] + 1];
  }
  for (std::size_t i = 0; i < num_cells; ++i) offsets_[i + 1] += offsets_[i];
  points_.resize(points.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points_[cursor[cell_of[i]]++] = points[i];
  }
}

}  // namespace proxcache
