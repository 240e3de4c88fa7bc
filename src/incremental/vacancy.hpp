// Gravity-insertion rasters — the lookups incremental placement uses in
// place of whole-diagram loops.
//
// Inserting a partition into the frozen placement (gravity_vacancy) asks
// two questions of every candidate spot: does its spaced footprint hit a
// frozen symbol or a hole already promised this pass, and how many routed
// track cells of the cached diagram would it displace.  For the frozen
// symbols and the routed cells both are counts of marked lattice points
// inside a closed rectangle — Rect is closed, so two rectangles overlap
// exactly when they share a lattice point — answered by summed-area tables
// (PointCounts): built once per pass in time proportional to the area they
// cover, four reads per question after that.  The few pinned holes are
// tested one by one.
// A cover of the placed symbols, built only when a surviving system
// terminal's old spot lies inside their hull, answers whether that spot is
// now under a symbol.  The final overlap check of the placement is a
// left-edge sweep (the idiom validate.cpp uses for symbol overlap) instead
// of a comparison of every module pair.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "schematic/diagram.hpp"

namespace na {

/// Marked lattice points over a fixed extent, counted inside any closed
/// rectangle from a summed-area table.  Mark first, then finish(), then
/// count(); points outside the extent are never marked.
class PointCounts {
 public:
  PointCounts() = default;  ///< empty extent: every count is 0
  explicit PointCounts(geom::Rect extent);

  /// Marks every lattice point of `r` inside the extent (idempotent).
  void mark(geom::Rect r);
  /// Turns the marks into prefix sums; call once, after the last mark().
  void finish();
  /// Number of marked points inside `r`.
  int count(geom::Rect r) const;

 private:
  size_t index(int x, int y) const {  // (x, y) relative to the extent, +1
    return static_cast<size_t>(y) * stride_ + static_cast<size_t>(x);
  }

  geom::Rect extent_;
  size_t stride_ = 0;      ///< extent width + 2: one zero column in front
  std::vector<int> sums_;  ///< (height + 2) rows, row 0 and column 0 zero
};

/// Every grid point the routed polylines of `dia` occupy: orthogonal
/// segments cell by cell, a one-point polyline as its point (the cells an
/// inserted symbol would displace).
PointCounts routed_cells(const Diagram& dia);

/// The lattice points covered by the symbols of the (placed) `modules`.
PointCounts symbol_cover(const Diagram& dia, std::span<const ModuleId> modules);

/// The gravity-seeded vacancy search: the position for a `size` rectangle
/// near `ideal` minimising squared gravity distance plus a displacement
/// penalty per routed cell the footprint would sit on, whose footprint
/// expanded by `spacing` meets no `frozen` symbol and no `pinned` hole.
/// "Hole-pinned vacancies first" — a spot a few tracks further that tears
/// up no routing beats one directly on a channel — "then local hull
/// expansion": ring by ring until the score bound proves no better cell
/// exists, out to `max_radius`.
std::optional<geom::Point> gravity_vacancy(geom::Point ideal, geom::Point size,
                                           const PointCounts& frozen,
                                           std::span<const geom::Rect> pinned,
                                           int spacing, int max_radius,
                                           const PointCounts& routed);

/// Per spot: true when no placed module symbol of `dia` covers it.  Spots
/// outside the symbols' hull (system terminals on the ring) are answered
/// at once; the first one inside builds the symbols' cover.
std::vector<bool> uncovered_spots(const Diagram& dia, std::span<const geom::Point> spots);

/// True when every module of `dia` is placed and no two module symbols
/// share a lattice point.
bool placement_feasible(const Diagram& dia);

}  // namespace na
