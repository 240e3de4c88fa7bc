#include "schematic/validate.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace na {
namespace {

/// What the checker knows about one grid point of its scope.
struct Site {
  ModuleId module = kNone;  ///< module whose symbol covers the point (lowest id)
  /// Terminal cell: the owning net (>= 0, last writer wins), or an
  /// unconnected system terminal encoded by bare_term(), or kNone.
  int term = kNone;
  NetId h = kNone;     ///< net running horizontally through (first writer)
  NetId v = kNone;     ///< net running vertically through (first writer)
  NetId node = kNone;  ///< net with a corner, branch or endpoint here (last writer)
};

/// An unconnected system terminal blocks every net; its Site::term holds
/// the terminal, below kNone so it never reads as a net.
constexpr int bare_term(TermId t) { return -2 - t; }
constexpr TermId bare_term_id(int code) { return -2 - code; }

/// Dense per-point arrays over the validation scope: the hull of the
/// placement and of every drawn point (the plane build_grid covers, without
/// its margin), clipped to the region in region mode.  Geometry is
/// rasterized into it once; every point check is then an array read.
class Raster {
 public:
  explicit Raster(geom::Rect extent) : extent_(extent) {
    if (extent.empty()) return;
    width_ = static_cast<size_t>(extent.width()) + 1;
    sites_.resize(width_ * (static_cast<size_t>(extent.height()) + 1));
  }

  size_t cells() const { return sites_.size(); }
  bool contains(geom::Point p) const { return extent_.contains(p); }
  Site& at(geom::Point p) {
    return sites_[static_cast<size_t>(p.y - extent_.lo.y) * width_ +
                  static_cast<size_t>(p.x - extent_.lo.x)];
  }

 private:
  geom::Rect extent_;
  size_t width_ = 0;
  std::vector<Site> sites_;
};

/// Sort key of a point, ordered by (y, x).
std::uint64_t key_of(geom::Point p) {
  const auto biased = [](int v) { return static_cast<std::uint32_t>(v) ^ 0x80000000u; };
  return static_cast<std::uint64_t>(biased(p.y)) << 32 | biased(p.x);
}

/// Every point of `r`'s orthogonal segments plus each polyline's first
/// point, sorted by key_of and deduplicated.
void net_points(const NetRoute& r, std::vector<std::uint64_t>& out) {
  out.clear();
  for (const auto& pl : r.polylines) {
    for (size_t i = 1; i < pl.size(); ++i) {
      const geom::Point a = pl[i - 1];
      const geom::Point b = pl[i];
      if (a.x != b.x && a.y != b.y) continue;
      const geom::Point step = {(b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)};
      for (geom::Point p = a;; p += step) {
        out.push_back(key_of(p));
        if (p == b) break;
      }
    }
    if (!pl.empty()) out.push_back(key_of(pl.front()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Is the sorted point set `pts` one figure under unit adjacency?
bool connected(const std::vector<std::uint64_t>& pts) {
  constexpr std::uint64_t kRow = std::uint64_t{1} << 32;
  auto find = [&](std::uint64_t k) -> size_t {
    const auto it = std::lower_bound(pts.begin(), pts.end(), k);
    if (it == pts.end() || *it != k) return pts.size();
    return static_cast<size_t>(it - pts.begin());
  };
  std::vector<char> seen(pts.size(), 0);
  std::vector<size_t> stack = {0};
  seen[0] = 1;
  size_t reached = 1;
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    const std::uint64_t k = pts[i];
    // Row neighbours sit next to each other in (y, x) order.
    const size_t near[] = {i > 0 && pts[i - 1] == k - 1 ? i - 1 : pts.size(),
                           i + 1 < pts.size() && pts[i + 1] == k + 1 ? i + 1 : pts.size(),
                           find(k - kRow), find(k + kRow)};
    for (const size_t j : near) {
      if (j == pts.size() || seen[j]) continue;
      seen[j] = 1;
      ++reached;
      stack.push_back(j);
    }
  }
  return reached == pts.size();
}

struct ScopeStats {
  size_t points = 0;          ///< distinct in-scope points occupied by nets
  size_t cells = 0;           ///< raster size
  size_t nets_rechecked = 0;  ///< nets whose connectivity was re-proved
};

/// Shared checker body.  `region == nullptr` validates the whole diagram;
/// otherwise only geometry intersecting `*region` is examined (see the
/// scope rules on validate_region in the header), and a non-null `recheck`
/// further limits connectivity to the nets it flags.  The per-point work is
/// identical in both modes, so an in-region violation produces the same
/// message either way.
std::vector<std::string> validate_impl(const Diagram& dia, bool require_all_routed,
                                       const geom::Rect* region,
                                       const std::vector<bool>* recheck,
                                       ScopeStats& stats) {
  const Network& net = dia.network();
  std::vector<std::string> problems;
  auto report = [&](std::string msg) { problems.push_back(std::move(msg)); };
  // A net with fewer than two terminals is not routable (the router's rule).
  auto routable = [&](NetId n) { return net.net(n).terms.size() >= 2; };

  geom::Rect extent = dia.placement_bounds();
  for (const NetRoute& r : dia.routes()) {
    for (const auto& pl : r.polylines) {
      for (const geom::Point p : pl) extent = extent.hull(p);
    }
  }
  if (region) extent = extent.intersect(*region);
  Raster raster(extent);
  stats.cells = raster.cells();

  // --- placement: everything placed, no symbol overlap ----------------------
  // Completeness is global (a property of the diagram, no geometry to
  // scope); the geometric checks run over the symbols touching the region.
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) report("module '" + net.module(m).name + "' unplaced");
  }
  for (TermId t : net.system_terms()) {
    if (!dia.system_term_placed(t)) {
      report("system terminal '" + net.term(t).name + "' unplaced");
    }
  }
  std::vector<int> scoped_mods;  // placed modules whose rect touches the scope
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    if (region && !region->overlaps(dia.module_rect(m))) continue;
    scoped_mods.push_back(m);
    // Rasterize in id order, first writer kept: the lowest module wins.
    const geom::Rect in = dia.module_rect(m).intersect(extent);
    for (int y = in.lo.y; y <= in.hi.y; ++y) {
      for (int x = in.lo.x; x <= in.hi.x; ++x) {
        Site& s = raster.at({x, y});
        if (s.module == kNone) s.module = m;
      }
    }
  }
  std::vector<std::pair<geom::Point, TermId>> scoped_terms;  // placed, in scope
  for (TermId t : net.system_terms()) {
    if (!dia.system_term_placed(t)) continue;
    if (region && !region->contains(dia.term_pos(t))) continue;
    scoped_terms.emplace_back(dia.term_pos(t), t);
  }
  // Overlapping symbols: a sweep over rectangles sorted by left edge.
  std::vector<int> by_x = scoped_mods;
  std::sort(by_x.begin(), by_x.end(), [&](int a, int b) {
    return dia.module_rect(a).lo.x < dia.module_rect(b).lo.x;
  });
  for (size_t i = 0; i < by_x.size(); ++i) {
    const geom::Rect ra = dia.module_rect(by_x[i]);
    for (size_t j = i + 1;
         j < by_x.size() && dia.module_rect(by_x[j]).lo.x <= ra.hi.x; ++j) {
      if (ra.overlaps(dia.module_rect(by_x[j]))) {
        const auto [a, b] = std::minmax(by_x[i], by_x[j]);
        report("modules '" + net.module(a).name + "' and '" + net.module(b).name +
               "' overlap");
      }
    }
  }
  for (const auto& [p, t] : scoped_terms) {
    if (raster.at(p).module == kNone) continue;
    for (const int m : scoped_mods) {  // every module holding it, not just the first
      if (dia.module_rect(m).contains(p)) {
        report("system terminal '" + net.term(t).name + "' overlaps module '" +
               net.module(m).name + "'");
      }
    }
  }
  // Coinciding terminals: equal points are adjacent once sorted, and each
  // run reports its pairs in system-terminal order.
  std::sort(scoped_terms.begin(), scoped_terms.end());
  for (size_t i = 0; i < scoped_terms.size(); ++i) {
    const auto& [pi, ti] = scoped_terms[i];
    for (size_t j = i + 1; j < scoped_terms.size() && scoped_terms[j].first == pi; ++j) {
      report("system terminals '" + net.term(ti).name + "' and '" +
             net.term(scoped_terms[j].second).name + "' coincide");
    }
  }
  if (!problems.empty()) return problems;  // routing checks need full placement

  // --- per-net terminal cells ------------------------------------------------
  for (const auto& [p, t] : scoped_terms) {
    if (net.term(t).net == kNone) raster.at(p).term = bare_term(t);
  }
  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (term.net == kNone) continue;
    const geom::Point p = dia.term_pos(t);
    if (raster.contains(p)) raster.at(p).term = term.net;
  }

  // --- routing geometry -------------------------------------------------------
  std::vector<geom::Point> occupied;  // points with an h or v net, once each
  std::vector<geom::Point> nodes;     // points with a node net, once each
  auto set_node = [&](geom::Point p, NetId n) {
    if (!raster.contains(p)) return;
    Site& s = raster.at(p);
    if (s.node == kNone) nodes.push_back(p);
    s.node = n;
  };
  std::vector<bool> touches(net.net_count(), region == nullptr);

  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (require_all_routed && region == nullptr && !r.routed && routable(n)) {
      report("net '" + net.net(n).name + "' unrouted");
    }
    for (const auto& pl : r.polylines) {
      if (pl.size() < 2) {
        // A single point is only meaningful when joining at a terminal that
        // already lies on the net; treat as node.
        if (!pl.empty() && raster.contains(pl[0])) {
          set_node(pl[0], n);
          touches[n] = true;
        }
        continue;
      }
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a.x != b.x && a.y != b.y) {
          if (!region || region->overlaps(geom::Segment{a, b}.bounds())) {
            report("net '" + net.net(n).name + "' has a non-orthogonal segment " +
                   geom::to_string(a) + "-" + geom::to_string(b));
          }
          continue;
        }
        if (a == b) continue;
        // Only the scope's part of the segment is examined; the first net
        // to claim a point's orientation owns it, whatever the walk order.
        const geom::Rect in = geom::Segment{a, b}.bounds().intersect(extent);
        if (in.empty()) continue;
        touches[n] = true;
        const bool horizontal = a.y == b.y;
        const geom::Point step = horizontal ? geom::Point{1, 0} : geom::Point{0, 1};
        for (geom::Point p = in.lo;; p += step) {
          Site& s = raster.at(p);
          if (s.h == kNone && s.v == kNone) occupied.push_back(p);
          NetId& owner = horizontal ? s.h : s.v;
          if (owner == kNone) {
            owner = n;
          } else if (owner != n) {
            report("nets '" + net.net(n).name + "' and '" + net.net(owner).name +
                   "' overlap at " + geom::to_string(p));
          }
          if (p == in.hi) break;
        }
      }
      set_node(pl.front(), n);
      set_node(pl.back(), n);
      for (size_t i = 1; i + 1 < pl.size(); ++i) set_node(pl[i], n);  // corner
    }
    if (require_all_routed && region != nullptr && !r.routed && touches[n] &&
        routable(n)) {
      report("net '" + net.net(n).name + "' unrouted");
    }
  }
  stats.points = occupied.size();

  // --- nets vs module symbols and foreign terminals ---------------------------
  auto check_point = [&](geom::Point p, const Site& s, NetId n) {
    if (s.term >= 0) {
      if (s.term != n) {
        report("net '" + net.net(n).name + "' touches a foreign terminal at " +
               geom::to_string(p));
      }
      return;  // a terminal cell, own or foreign
    }
    if (s.module != kNone) {
      report("net '" + net.net(n).name + "' enters module '" + net.module(s.module).name +
             "' at " + geom::to_string(p));
      return;
    }
    if (s.term != kNone) {
      report("net '" + net.net(n).name + "' covers system terminal '" +
             net.term(bare_term_id(s.term)).name + "'");
    }
  };
  for (const geom::Point p : occupied) {
    const Site& s = raster.at(p);
    if (s.h != kNone) check_point(p, s, s.h);
    if (s.v != kNone && s.v != s.h) check_point(p, s, s.v);
  }

  // --- node contact rule: a corner/endpoint of net A may not be touched by
  // any other net (crossing requires both straight through).
  for (const geom::Point p : nodes) {
    const Site& s = raster.at(p);
    for (const NetId other : {s.h, s.v}) {
      if (other != kNone && other != s.node) {
        report("net '" + net.net(other).name + "' touches a node of net '" +
               net.net(s.node).name + "' at " + geom::to_string(p));
      }
    }
  }

  // --- connectivity: each routed net is one figure containing all terminals --
  // In region mode only the nets with in-scope geometry are re-checked, but
  // always over their *full* geometry: being one figure is not a local
  // property, and a patch can only disconnect a net at an edited point.
  // `recheck` narrows that to the nets the patch drew.
  std::vector<std::uint64_t> points;
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (!r.routed || !touches[n] || (recheck && !(*recheck)[n])) continue;
    ++stats.nets_rechecked;
    net_points(r, points);
    if (points.empty()) {
      report("net '" + net.net(n).name + "' marked routed but has no geometry");
      continue;
    }
    if (!connected(points)) {
      report("net '" + net.net(n).name + "' geometry is disconnected");
    }
    for (TermId t : net.net(n).terms) {
      if (!std::binary_search(points.begin(), points.end(), key_of(dia.term_pos(t)))) {
        report("net '" + net.net(n).name + "' does not reach terminal '" +
               net.term(t).name + "'");
      }
    }
  }

  return problems;
}

}  // namespace

std::vector<std::string> validate_diagram(const Diagram& dia, bool require_all_routed) {
  NA_TRACE_SPAN(span, "validate.full");
  ScopeStats stats;
  auto problems = validate_impl(dia, require_all_routed, nullptr, nullptr, stats);
  span.arg("issues", static_cast<long long>(problems.size()));
  span.arg("points", stats.points);
  span.arg("cells", stats.cells);
  return problems;
}

std::vector<std::string> validate_region(const Diagram& dia, geom::Rect region,
                                         bool require_all_routed,
                                         const std::vector<bool>* recheck) {
  NA_TRACE_SPAN(span, "validate.region");
  if (region.empty()) return {};
  if (recheck && recheck->size() != static_cast<size_t>(dia.network().net_count())) {
    throw std::invalid_argument("validate_region: recheck mask size != net count");
  }
  ScopeStats stats;
  auto problems = validate_impl(dia, require_all_routed, &region, recheck, stats);
  span.arg("issues", static_cast<long long>(problems.size()));
  span.arg("points", stats.points);
  span.arg("cells", stats.cells);
  span.arg("nets_rechecked", stats.nets_rechecked);
  return problems;
}

}  // namespace na
