#pragma once
/// \file packed_coord.hpp
/// Division-free lattice distances. A node's `(x, y)` packs into one 32-bit
/// word, x in the low half and y in the high half: node ids are 32-bit, so
/// every lattice a placement can cover has side <= 65535 and each axis fits
/// 16 bits. The replica index keeps these beside the replica lists it scans
/// and in its bucket grids, so the passes over them divide by nothing per
/// replica.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "topology/lattice.hpp"
#include "topology/point.hpp"
#include "util/types.hpp"

namespace proxcache {

/// A lattice coordinate packed as `x | y << 16`.
using PackedCoord = std::uint32_t;

/// Largest lattice side whose coordinates pack.
inline constexpr std::int32_t kMaxPackedSide = 65535;

[[nodiscard]] inline PackedCoord pack_coord(Point p) {
  return static_cast<PackedCoord>(p.x) |
         (static_cast<PackedCoord>(p.y) << 16);
}

[[nodiscard]] inline std::int32_t packed_x(PackedCoord c) {
  return static_cast<std::int32_t>(c & 0xFFFFu);
}

[[nodiscard]] inline std::int32_t packed_y(PackedCoord c) {
  return static_cast<std::int32_t>(c >> 16);
}

/// The node id `y·side + x` of a packed coordinate.
[[nodiscard]] inline NodeId packed_node(PackedCoord c, std::int32_t side) {
  return static_cast<NodeId>(packed_y(c)) * static_cast<NodeId>(side) +
         static_cast<NodeId>(packed_x(c));
}

/// Exact `x / d` for any 32-bit x and 1 <= d <= kMaxPackedSide by one
/// multiply: with m = ceil(2^48 / d) = (2^48 + e) / d, e < d, the product
/// x·m / 2^48 exceeds x / d by x·e / (d·2^48) < 1/d, which never reaches
/// the next integer. Builds use it to resolve many coordinates at once.
class Divider {
 public:
  explicit Divider(std::uint32_t d)
      : d_(d), m_(((std::uint64_t{1} << 48) + d - 1) / d) {}

  [[nodiscard]] std::uint32_t operator()(std::uint32_t x) const {
    __extension__ using u128 = unsigned __int128;
    return static_cast<std::uint32_t>((static_cast<u128>(x) * m_) >> 48);
  }

  /// The coordinate of node `v` on a lattice whose side is the divisor.
  [[nodiscard]] Point coord(NodeId v) const {
    const std::uint32_t y = (*this)(v);
    return Point{static_cast<std::int32_t>(v - y * d_),
                 static_cast<std::int32_t>(y)};
  }

 private:
  std::uint32_t d_;
  std::uint64_t m_;
};

/// Hop distances on one lattice from a fixed origin, without a division.
/// Each axis takes `min(|a − b|, period − |a − b|)`: the period is the side
/// on the torus and twice the side on the grid, where `|a − b| < side`
/// never lets the way round win. Equal to `Lattice::distance` on both.
class PackedDistance {
 public:
  PackedDistance(const Lattice& lattice, Point origin)
      : x_(origin.x),
        y_(origin.y),
        period_(lattice.wrap() == Wrap::Torus ? lattice.side()
                                              : 2 * lattice.side()) {}

  /// Ring (torus) or line (grid) distance between two coordinates of one
  /// axis.
  [[nodiscard]] std::int32_t axis(std::int32_t a, std::int32_t b) const {
    const std::int32_t direct = std::abs(a - b);
    return std::min(direct, period_ - direct);
  }

  /// Distance from the origin to `c`.
  [[nodiscard]] Hop operator()(PackedCoord c) const {
    return static_cast<Hop>(axis(x_, packed_x(c)) + axis(y_, packed_y(c)));
  }

  /// `out[i]` = distance to `coords[i]` for every i (`out` at least as
  /// long): one branch-free pass, which the compiler vectorizes at the
  /// baseline Release flags.
  void fill(std::span<const PackedCoord> coords, std::span<Hop> out) const {
    for (std::size_t i = 0; i < coords.size(); ++i) out[i] = (*this)(coords[i]);
  }

 private:
  std::int32_t x_;
  std::int32_t y_;
  std::int32_t period_;
};

}  // namespace proxcache
