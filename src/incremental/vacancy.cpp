#include "incremental/vacancy.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace na {

PointCounts::PointCounts(geom::Rect extent) : extent_(extent) {
  if (extent.empty()) return;
  stride_ = static_cast<size_t>(extent.width()) + 2;
  sums_.assign((static_cast<size_t>(extent.height()) + 2) * stride_, 0);
}

void PointCounts::mark(geom::Rect r) {
  const geom::Rect c = r.intersect(extent_);
  if (c.empty()) return;
  for (int y = c.lo.y; y <= c.hi.y; ++y) {
    const size_t row = index(0, y - extent_.lo.y + 1);
    std::fill(sums_.begin() + static_cast<std::ptrdiff_t>(row) + (c.lo.x - extent_.lo.x + 1),
              sums_.begin() + static_cast<std::ptrdiff_t>(row) + (c.hi.x - extent_.lo.x + 2), 1);
  }
}

void PointCounts::finish() {
  const size_t rows = stride_ == 0 ? 0 : sums_.size() / stride_;
  for (size_t y = 1; y < rows; ++y) {
    int run = 0;  // marks in this row up to x
    for (size_t x = 1; x < stride_; ++x) {
      run += sums_[y * stride_ + x];
      sums_[y * stride_ + x] = sums_[(y - 1) * stride_ + x] + run;
    }
  }
}

int PointCounts::count(geom::Rect r) const {
  const geom::Rect c = r.intersect(extent_);
  if (c.empty()) return 0;
  // Prefix sums at the corners: columns/rows before lo, through hi.
  const int lx = c.lo.x - extent_.lo.x, hx = c.hi.x - extent_.lo.x + 1;
  const int ly = c.lo.y - extent_.lo.y, hy = c.hi.y - extent_.lo.y + 1;
  return sums_[index(hx, hy)] - sums_[index(lx, hy)] - sums_[index(hx, ly)] +
         sums_[index(lx, ly)];
}

PointCounts routed_cells(const Diagram& dia) {
  geom::Rect hull;
  for (const NetRoute& r : dia.routes()) {
    for (const auto& pl : r.polylines) {
      for (const geom::Point p : pl) hull = hull.hull(p);
    }
  }
  PointCounts cells(hull);
  for (const NetRoute& r : dia.routes()) {
    for (const auto& pl : r.polylines) {
      if (pl.size() == 1) cells.mark({pl[0], pl[0]});
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Segment seg{pl[i - 1], pl[i]};
        if (seg.horizontal() || seg.vertical()) cells.mark(seg.bounds());
      }
    }
  }
  cells.finish();
  return cells;
}

PointCounts symbol_cover(const Diagram& dia, std::span<const ModuleId> modules) {
  geom::Rect hull;
  for (const ModuleId m : modules) hull = hull.hull(dia.module_rect(m));
  PointCounts cover(hull);
  for (const ModuleId m : modules) cover.mark(dia.module_rect(m));
  cover.finish();
  return cover;
}

std::optional<geom::Point> gravity_vacancy(geom::Point ideal, geom::Point size,
                                           const PointCounts& frozen,
                                           std::span<const geom::Rect> pinned,
                                           int spacing, int max_radius,
                                           const PointCounts& routed) {
  // One displaced routed cell weighs like four extra tracks of distance:
  // proximity still dominates, but dense channels repel the insertion.
  constexpr std::int64_t kCellPenalty = 16;
  auto feasible = [&](geom::Point pos) {
    const geom::Rect candidate = geom::Rect::from_size(pos, size).expanded(spacing);
    if (frozen.count(candidate) > 0) return false;
    return std::none_of(pinned.begin(), pinned.end(),
                        [&](const geom::Rect& r) { return candidate.overlaps(r); });
  };
  auto score = [&](geom::Point pos) {
    return geom::dist2(pos, ideal) +
           kCellPenalty * routed.count(geom::Rect::from_size(pos, size));
  };

  std::optional<geom::Point> best;
  std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
  auto consider = [&](geom::Point pos) {
    if (geom::dist2(pos, ideal) >= best_score || !feasible(pos)) return;
    const std::int64_t s = score(pos);
    if (s < best_score) {
      best = pos;
      best_score = s;
    }
  };
  consider(ideal);
  for (int r = 1; r <= max_radius; ++r) {
    // Every position on ring r is at least r tracks out, so its score is
    // at least r*r; once that exceeds the best score, no later ring wins.
    if (best_score < static_cast<std::int64_t>(r) * r) break;
    for (int dx = -r; dx <= r; ++dx) {
      consider(ideal + geom::Point{dx, r});
      consider(ideal + geom::Point{dx, -r});
    }
    for (int dy = -r + 1; dy < r; ++dy) {
      consider(ideal + geom::Point{r, dy});
      consider(ideal + geom::Point{-r, dy});
    }
  }
  return best;
}

std::vector<bool> uncovered_spots(const Diagram& dia, std::span<const geom::Point> spots) {
  const Network& net = dia.network();
  std::vector<ModuleId> placed;
  geom::Rect symbols;
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    placed.push_back(m);
    symbols = symbols.hull(dia.module_rect(m));
  }
  std::optional<PointCounts> cover;
  std::vector<bool> clear(spots.size(), true);
  for (size_t i = 0; i < spots.size(); ++i) {
    if (!symbols.contains(spots[i])) continue;
    if (!cover) cover = symbol_cover(dia, placed);
    clear[i] = cover->count({spots[i], spots[i]}) == 0;
  }
  return clear;
}

bool placement_feasible(const Diagram& dia) {
  const Network& net = dia.network();
  std::vector<geom::Rect> rects;
  rects.reserve(static_cast<size_t>(net.module_count()));
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) return false;
    rects.push_back(dia.module_rect(m));
  }
  // Left-edge sweep: a rectangle can only meet the ones whose left edge
  // lies at or before its right edge.
  std::sort(rects.begin(), rects.end(),
            [](const geom::Rect& a, const geom::Rect& b) { return a.lo.x < b.lo.x; });
  for (size_t i = 0; i < rects.size(); ++i) {
    for (size_t j = i + 1; j < rects.size() && rects[j].lo.x <= rects[i].hi.x; ++j) {
      if (rects[i].overlaps(rects[j])) return false;
    }
  }
  return true;
}

}  // namespace na
