// Reverse min-link field: an obstacle-aware lower bound on the bends a
// fixed-target search still needs (DESIGN §1 "Bound pruning").
//
// The field is computed on a relaxed plane: only the grid's closed points
// (module bodies, pure-obstacle system terminals, the plane edge) block;
// terminals, claims and routed tracks count as open.  Every move of the
// real search is a move of the relaxed one, so the fewest relaxed bends
// from a state never exceed the real ones.  The closed mask is static for
// a routing pass, so a field reads nothing a commit could change.
//
// Levels are built breadth-first, one bend per level, as bitmap fills:
// level k holds, per heading d, the open points from which running
// straight along d through open points reaches a point of level k - 1 of
// a perpendicular heading (a turn) or the target's entry run.  Vertical
// headings fill row by row, 64 columns per word; horizontal headings fill
// along each row word by word, with shift-doubling inside a word and a
// carry bit between words.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "schematic/grid.hpp"

namespace na::detail {

class MinLinkField {
 public:
  /// The deepest level a field holds exactly; bend counts live in 4 bits.
  static constexpr int kMaxLevel = 14;

  /// Builds the field of `grid`'s area for a goal entered by a straight
  /// step onto `target` with heading `entry` (nullopt: any heading).
  /// Levels 0 .. min(max_level, kMaxLevel) are exact; every other state
  /// holds that limit + 1, which never exceeds its true count.  Closed
  /// points hold 0.
  void build(const RoutingGrid& grid, geom::Point target,
             std::optional<geom::Dir> entry, int max_level);

  /// The bound for the state heading `d` at `cell`, the row-major index of
  /// a point of the area (the search core's state index / 4): the smaller
  /// of the bounds of the two headings on d's axis.
  int bends(int cell, geom::Dir d) const {
    return bytes_[cell] >> ((static_cast<int>(d) & 2) << 1) & 15;
  }

 private:
  using Bitmap = std::vector<std::uint64_t>;

  /// Extends `heading` (the points reached with that heading) by the
  /// straight runs into its points or into `extra`'s (the turns).
  void fill_vertical(Bitmap& heading, const Bitmap& extra, bool up);
  /// The same for both horizontal headings.
  void fill_rows(const Bitmap& extra);
  /// Writes `level` into the axis nibble of every open cell set in `now_a`
  /// or `now_b` but not in `before`; returns whether there was one.
  bool record(const Bitmap& now_a, const Bitmap& now_b, const Bitmap& before,
              int shift, int level);

  int width_ = 0;
  int height_ = 0;
  int row_words_ = 0;
  Bitmap open_;
  Bitmap heading_[4];  ///< reached points per geom::Dir
  Bitmap before_h_;    ///< points reached horizontally by the previous level
  Bitmap before_v_;    ///< points reached vertically by the previous level
  /// One byte per cell: the horizontal headings' bound in the low nibble,
  /// the vertical headings' in the high one.
  std::vector<std::uint8_t> bytes_;
};

}  // namespace na::detail
