#include "schematic/grid.hpp"

#include <stdexcept>

namespace na {

RoutingGrid::RoutingGrid(geom::Rect area) : area_(area) {
  if (area.empty()) throw std::invalid_argument("routing area is empty");
  width_ = area.width() + 1;
  cells_.resize(static_cast<size_t>(width_) * (area.height() + 1));
}

void RoutingGrid::block(geom::Point p) {
  if (in_bounds(p)) at(p).blocked = true;
}

void RoutingGrid::block_rect(geom::Rect r) {
  const geom::Rect clipped = r.intersect(area_);
  for (int y = clipped.lo.y; y <= clipped.hi.y; ++y) {
    for (int x = clipped.lo.x; x <= clipped.hi.x; ++x) {
      at({x, y}).blocked = true;
    }
  }
}

void RoutingGrid::set_terminal(geom::Point p, NetId n) {
  if (!in_bounds(p)) throw std::invalid_argument("terminal outside routing area");
  Cell& c = at(p);
  c.blocked = true;
  c.owner = n;
}

void RoutingGrid::set_claim(geom::Point p, NetId n) {
  if (in_bounds(p)) at(p).claim = n;
}

void RoutingGrid::clear_claim(geom::Point p) {
  if (in_bounds(p)) at(p).claim = kNone;
}

void RoutingGrid::occupy_polyline(NetId n, std::span<const geom::Point> pts,
                                  std::vector<TrackWrite>* journal) {
  auto take = [&](geom::Point p, bool horizontal) {
    Cell& c = at(p);
    NetId& slot = horizontal ? c.h : c.v;
    if (slot == n) return;  // idempotent re-occupation
    if (slot != kNone) {
      throw std::logic_error("net overlap at " + geom::to_string(p));
    }
    slot = n;
    if (journal) journal->push_back({p, horizontal});
  };
  for (size_t i = 1; i < pts.size(); ++i) {
    const geom::Point a = pts[i - 1];
    const geom::Point b = pts[i];
    if (a.x != b.x && a.y != b.y) {
      throw std::invalid_argument("polyline segment not axis-parallel");
    }
    const bool horizontal = a.y == b.y;
    const geom::Point step = {a.x == b.x ? 0 : (b.x > a.x ? 1 : -1),
                              a.y == b.y ? 0 : (b.y > a.y ? 1 : -1)};
    if (a == b) continue;
    for (geom::Point p = a;; p += step) {
      take(p, horizontal);
      if (p == b) break;
    }
  }
}

bool RoutingGrid::polyline_fits(NetId n, std::span<const geom::Point> pts) const {
  for (size_t i = 1; i < pts.size(); ++i) {
    const geom::Point a = pts[i - 1];
    const geom::Point b = pts[i];
    if (a.x != b.x && a.y != b.y) return false;
    const bool horizontal = a.y == b.y;
    const geom::Point step = {a.x == b.x ? 0 : (b.x > a.x ? 1 : -1),
                              a.y == b.y ? 0 : (b.y > a.y ? 1 : -1)};
    if (a == b) continue;
    for (geom::Point p = a;; p += step) {
      if (!in_bounds(p)) return false;
      const Cell& c = cell(p);
      const NetId slot = horizontal ? c.h : c.v;
      if (slot != kNone && slot != n) return false;
      if (p == b) break;
    }
  }
  return true;
}

void RoutingGrid::set_track(geom::Point p, bool horizontal, NetId n) {
  Cell& c = at(p);
  (horizontal ? c.h : c.v) = n;
}

RoutingGrid RoutingGrid::clipped(geom::Rect sub) const {
  const geom::Rect inter = sub.intersect(area_);
  if (inter.empty()) throw std::invalid_argument("clip outside routing area");
  RoutingGrid g(inter);
  for (int y = inter.lo.y; y <= inter.hi.y; ++y) {
    for (int x = inter.lo.x; x <= inter.hi.x; ++x) {
      g.at({x, y}) = cell({x, y});
    }
  }
  return g;
}

int RoutingGrid::crossing_count() const {
  int count = 0;
  for (const Cell& c : cells_) {
    if (c.h != kNone && c.v != kNone && c.h != c.v) ++count;
  }
  return count;
}

RoutingGrid build_grid(const Diagram& dia, int margin) {
  const Network& net = dia.network();
  geom::Rect bounds = dia.placement_bounds();
  if (bounds.empty()) throw std::invalid_argument("diagram has no placed elements");
  // Include prerouted geometry in the plane.
  for (const NetRoute& r : dia.routes()) {
    for (const auto& pl : r.polylines) {
      for (geom::Point p : pl) bounds = bounds.hull(p);
    }
  }
  RoutingGrid grid(bounds.expanded(margin));

  for (int m = 0; m < net.module_count(); ++m) {
    if (dia.module_placed(m)) grid.block_rect(dia.module_rect(m));
  }
  // Connected terminals are entry points of their net; unconnected subsystem
  // terminals stay plain module boundary.  System terminals get "type
  // module" (section 5.6.3 ADD_OBSTACLE_BOUNDINGS) — blocked for all nets
  // but their own.
  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (term.is_system()) {
      if (!dia.system_term_placed(t)) continue;
      grid.set_terminal(dia.term_pos(t), term.net);  // kNone => pure obstacle
    } else if (term.net != kNone && dia.module_placed(term.module)) {
      grid.set_terminal(dia.term_pos(t), term.net);
    }
  }
  // Prerouted nets are obstacles from the start.
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    for (const auto& pl : r.polylines) grid.occupy_polyline(n, pl);
  }
  // A prerouted polyline may end mid-plane (the incremental router keeps
  // the clean runs of a net split at a dirty region).  Such an endpoint is
  // a *node* of its net — no other net may touch it — so occupy both
  // orientations there, making the grid itself enforce the validator's
  // node-contact rule.  Full routes end at terminal cells (blocked), so
  // the ordinary pipeline is unaffected.
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    for (const auto& pl : r.polylines) {
      if (pl.size() < 2) continue;
      for (geom::Point p : {pl.front(), pl.back()}) {
        if (grid.blocked(p)) continue;
        if (grid.h_net(p) == kNone) grid.set_track(p, true, n);
        if (grid.v_net(p) == kNone) grid.set_track(p, false, n);
      }
    }
  }
  return grid;
}

}  // namespace na
