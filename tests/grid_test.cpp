// Unit tests for the routing grid: obstacle bookkeeping, passability,
// crossing/turn rules, claimpoints and grid construction from diagrams,
// plus an oracle test of the packed cell against the former five-field one.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/module_library.hpp"
#include "route/search_workspace.hpp"
#include "schematic/grid.hpp"

namespace na {
namespace {

TEST(RoutingGrid, Bounds) {
  RoutingGrid g({{0, 0}, {9, 9}});
  EXPECT_TRUE(g.in_bounds({0, 0}));
  EXPECT_TRUE(g.in_bounds({9, 9}));
  EXPECT_FALSE(g.in_bounds({10, 0}));
  EXPECT_FALSE(g.in_bounds({-1, 5}));
  // Out of bounds is blocked (the border of the plane is an obstacle).
  EXPECT_TRUE(g.blocked({-1, 0}));
  EXPECT_FALSE(g.blocked({5, 5}));
  EXPECT_THROW(RoutingGrid(geom::Rect{}), std::invalid_argument);
}

TEST(RoutingGrid, BlockRect) {
  RoutingGrid g({{0, 0}, {9, 9}});
  g.block_rect({{2, 2}, {4, 4}});
  EXPECT_TRUE(g.blocked({2, 2}));
  EXPECT_TRUE(g.blocked({4, 4}));
  EXPECT_TRUE(g.blocked({3, 3}));
  EXPECT_FALSE(g.blocked({5, 4}));
  // Clipping against the plane is silent.
  g.block_rect({{8, 8}, {20, 20}});
  EXPECT_TRUE(g.blocked({9, 9}));
}

TEST(RoutingGrid, TerminalOwnership) {
  RoutingGrid g({{0, 0}, {9, 9}});
  g.set_terminal({3, 3}, 7);
  EXPECT_TRUE(g.blocked({3, 3}));
  EXPECT_EQ(g.terminal_owner({3, 3}), 7);
  EXPECT_TRUE(g.enterable({3, 3}, 7));
  EXPECT_FALSE(g.enterable({3, 3}, 8));
  EXPECT_THROW(g.set_terminal({99, 0}, 1), std::invalid_argument);
}

TEST(RoutingGrid, Claims) {
  RoutingGrid g({{0, 0}, {9, 9}});
  g.set_claim({4, 4}, 2);
  EXPECT_EQ(g.claim_owner({4, 4}), 2);
  EXPECT_TRUE(g.enterable({4, 4}, 2));
  EXPECT_FALSE(g.enterable({4, 4}, 3));
  EXPECT_FALSE(g.passable({4, 4}, 3, true));
  g.clear_claim({4, 4});
  EXPECT_EQ(g.claim_owner({4, 4}), kNone);
  EXPECT_TRUE(g.enterable({4, 4}, 3));
}

TEST(RoutingGrid, OccupancyRules) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point pts[] = {{1, 5}, {8, 5}};  // horizontal run of net 0
  g.occupy_polyline(0, pts);
  EXPECT_EQ(g.h_net({4, 5}), 0);
  EXPECT_EQ(g.v_net({4, 5}), kNone);
  // Another net cannot run horizontally over it...
  EXPECT_FALSE(g.passable({4, 5}, 1, true));
  // ...but may cross vertically.
  EXPECT_TRUE(g.passable({4, 5}, 1, false));
  EXPECT_TRUE(g.crosses_at({4, 5}, 1, false));
  EXPECT_FALSE(g.crosses_at({4, 5}, 0, false));  // own net: no crossing
  // Nobody can put a corner on it, not even net 0 itself.
  EXPECT_FALSE(g.can_turn({4, 5}, 1));
  EXPECT_FALSE(g.can_turn({4, 5}, 0));
  EXPECT_TRUE(g.can_turn({4, 6}, 1));
  EXPECT_TRUE(g.occupied_by({4, 5}, 0));
  EXPECT_FALSE(g.occupied_by({4, 5}, 1));
}

TEST(RoutingGrid, CornerOccupiesBothOrientations) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point pts[] = {{1, 1}, {5, 1}, {5, 5}};  // L with corner at (5,1)
  g.occupy_polyline(0, pts);
  EXPECT_EQ(g.h_net({5, 1}), 0);
  EXPECT_EQ(g.v_net({5, 1}), 0);
  EXPECT_FALSE(g.passable({5, 1}, 1, true));
  EXPECT_FALSE(g.passable({5, 1}, 1, false));
}

TEST(RoutingGrid, OverlapThrows) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point a[] = {{1, 5}, {8, 5}};
  g.occupy_polyline(0, a);
  const geom::Point b[] = {{3, 5}, {6, 5}};
  EXPECT_THROW(g.occupy_polyline(1, b), std::logic_error);
  // Same net re-occupying is fine.
  g.occupy_polyline(0, b);
  // Crossing is fine.
  const geom::Point c[] = {{4, 2}, {4, 8}};
  g.occupy_polyline(1, c);
  EXPECT_EQ(g.crossing_count(), 1);
}

TEST(RoutingGrid, NonOrthogonalPolylineThrows) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point bad[] = {{0, 0}, {3, 3}};
  EXPECT_THROW(g.occupy_polyline(0, bad), std::invalid_argument);
}

TEST(RoutingGrid, CrossingCount) {
  RoutingGrid g({{0, 0}, {9, 9}});
  const geom::Point h[] = {{0, 4}, {9, 4}};
  const geom::Point v1[] = {{2, 0}, {2, 9}};
  const geom::Point v2[] = {{7, 0}, {7, 9}};
  g.occupy_polyline(0, h);
  g.occupy_polyline(1, v1);
  g.occupy_polyline(2, v2);
  EXPECT_EQ(g.crossing_count(), 2);
}

// --- packed cells against the former five-field cell -----------------------

static_assert(sizeof(RoutingGrid::Cell) == 12);
static_assert(sizeof(std::uint64_t) * 8 ==
              detail::StateTable::kStampShift + 8);  // one 8-byte search slot

/// The routing grid as it was before cells were packed: five plain fields
/// per point and the rules written over them.  The reference for
/// PackedCellsMatchFiveFieldReference.
class ReferenceGrid {
 public:
  explicit ReferenceGrid(geom::Rect area)
      : area_(area),
        width_(area.width() + 1),
        cells_(static_cast<size_t>(width_) * (area.height() + 1)) {}

  bool in_bounds(geom::Point p) const { return area_.contains(p); }
  void block(geom::Point p) {
    if (in_bounds(p)) at(p).blocked = true;
  }
  void block_rect(geom::Rect r) {
    const geom::Rect c = r.intersect(area_);
    for (int y = c.lo.y; y <= c.hi.y; ++y) {
      for (int x = c.lo.x; x <= c.hi.x; ++x) at({x, y}).blocked = true;
    }
  }
  void set_terminal(geom::Point p, NetId n) {
    at(p).blocked = true;
    at(p).owner = n;
  }
  void set_claim(geom::Point p, NetId n) {
    if (in_bounds(p)) at(p).claim = n;
  }
  void clear_claim(geom::Point p) { set_claim(p, kNone); }
  void set_track(geom::Point p, bool horizontal, NetId n) {
    (horizontal ? at(p).h : at(p).v) = n;
  }
  /// Same walk and the same partial writes before a throw as the grid's.
  void occupy_polyline(NetId n, const std::vector<geom::Point>& pts) {
    for (size_t i = 1; i < pts.size(); ++i) {
      const geom::Point a = pts[i - 1];
      const geom::Point b = pts[i];
      if (a == b) continue;
      const bool horizontal = a.y == b.y;
      const geom::Point step = {a.x == b.x ? 0 : (b.x > a.x ? 1 : -1),
                                a.y == b.y ? 0 : (b.y > a.y ? 1 : -1)};
      for (geom::Point p = a;; p += step) {
        NetId& slot = horizontal ? at(p).h : at(p).v;
        if (slot != n && slot != kNone) throw std::logic_error("overlap");
        slot = n;
        if (p == b) break;
      }
    }
  }
  ReferenceGrid clipped(geom::Rect sub) const {
    ReferenceGrid g(sub.intersect(area_));
    for (int y = g.area_.lo.y; y <= g.area_.hi.y; ++y) {
      for (int x = g.area_.lo.x; x <= g.area_.hi.x; ++x) g.at({x, y}) = cell({x, y});
    }
    return g;
  }

  bool blocked(geom::Point p) const { return !in_bounds(p) || cell(p).blocked; }
  NetId terminal_owner(geom::Point p) const { return in_bounds(p) ? cell(p).owner : kNone; }
  NetId claim_owner(geom::Point p) const { return in_bounds(p) ? cell(p).claim : kNone; }
  NetId h_net(geom::Point p) const { return in_bounds(p) ? cell(p).h : kNone; }
  NetId v_net(geom::Point p) const { return in_bounds(p) ? cell(p).v : kNone; }
  bool enterable(geom::Point p, NetId n) const {
    if (!in_bounds(p)) return false;
    const Cell& c = cell(p);
    return (!c.blocked || c.owner == n) && (c.claim == kNone || c.claim == n);
  }
  bool passable(geom::Point p, NetId n, bool horizontal) const {
    return enterable(p, n) && (horizontal ? cell(p).h : cell(p).v) == kNone;
  }
  bool can_turn(geom::Point p, NetId n) const {
    return enterable(p, n) && cell(p).h == kNone && cell(p).v == kNone;
  }
  bool crosses_at(geom::Point p, NetId n, bool horizontal) const {
    if (!in_bounds(p)) return false;
    const NetId other = horizontal ? cell(p).v : cell(p).h;
    return other != kNone && other != n;
  }
  bool occupied_by(geom::Point p, NetId n) const {
    return in_bounds(p) && (cell(p).h == n || cell(p).v == n);
  }
  bool node_free(geom::Point p, NetId n) const {
    if (!in_bounds(p)) return false;
    const Cell& c = cell(p);
    return (c.h == kNone || c.h == n) && (c.v == kNone || c.v == n);
  }
  bool closed(geom::Point p) const {
    return !in_bounds(p) || (cell(p).blocked && cell(p).owner == kNone);
  }

 private:
  struct Cell {
    NetId h = kNone;
    NetId v = kNone;
    NetId owner = kNone;
    NetId claim = kNone;
    bool blocked = false;
  };
  const Cell& cell(geom::Point p) const {
    return cells_[static_cast<size_t>(p.y - area_.lo.y) * width_ + (p.x - area_.lo.x)];
  }
  Cell& at(geom::Point p) {
    return cells_[static_cast<size_t>(p.y - area_.lo.y) * width_ + (p.x - area_.lo.x)];
  }

  geom::Rect area_;
  int width_;
  std::vector<Cell> cells_;
};

/// Every accessor and predicate at every point of `area` (which may reach
/// beyond the grid), for nets 0-3.
template <class Grid>
std::vector<int> observe(const Grid& g, geom::Rect area) {
  std::vector<int> out;
  for (int y = area.lo.y; y <= area.hi.y; ++y) {
    for (int x = area.lo.x; x <= area.hi.x; ++x) {
      const geom::Point p{x, y};
      out.insert(out.end(), {g.blocked(p), g.terminal_owner(p), g.claim_owner(p),
                             g.h_net(p), g.v_net(p), g.closed(p)});
      for (NetId n = 0; n <= 3; ++n) {
        out.insert(out.end(),
                   {g.enterable(p, n), g.passable(p, n, true), g.passable(p, n, false),
                    g.can_turn(p, n), g.crosses_at(p, n, true), g.crosses_at(p, n, false),
                    g.occupied_by(p, n), g.node_free(p, n)});
      }
    }
  }
  return out;
}

TEST(RoutingGrid, PackedCellsMatchFiveFieldReference) {
  const geom::Rect area{{-2, -1}, {4, 4}};
  const geom::Rect ring = area.expanded(1);
  std::mt19937 rng(20261019);
  auto uni = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  auto point_in = [&](geom::Rect r) {
    return geom::Point{uni(r.lo.x, r.hi.x), uni(r.lo.y, r.hi.y)};
  };
  // Terminals and claims land on a few hot points half the time, so that
  // they meet each other and blocked cells often.
  const geom::Rect hot{{0, 0}, {2, 1}};
  auto target = [&](geom::Rect r) { return point_in(uni(0, 1) ? hot : r); };
  auto net_or_none = [&] { return uni(kNone, 3); };
  // How often the rare combinations came up (each before the op's check).
  int claim_on_blocked = 0, claim_on_terminal = 0, terminal_on_claimed = 0;
  int same_net_both = 0;
  for (int scenario = 0; scenario < 150; ++scenario) {
    RoutingGrid g(area);
    ReferenceGrid ref(area);
    for (int op = 0; op < 40; ++op) {
      const std::string what = "scenario " + std::to_string(scenario) + " op " +
                               std::to_string(op);
      switch (uni(0, 6)) {
        case 0: {
          const geom::Point p = point_in(ring);
          g.block(p);
          ref.block(p);
          break;
        }
        case 1: {
          const geom::Point a = point_in(ring);
          const geom::Rect r{a, a + geom::Point{uni(0, 2), uni(0, 2)}};
          g.block_rect(r);
          ref.block_rect(r);
          break;
        }
        case 2: {
          const geom::Point p = target(area);
          const NetId n = net_or_none();
          terminal_on_claimed += ref.claim_owner(p) != kNone;
          g.set_terminal(p, n);
          ref.set_terminal(p, n);
          break;
        }
        case 3: {
          const geom::Point p = target(ring);
          const NetId n = net_or_none();
          if (n != kNone && ref.in_bounds(p) && ref.blocked(p)) {
            ++claim_on_blocked;
            claim_on_terminal += ref.terminal_owner(p) != kNone;
            same_net_both += ref.terminal_owner(p) == n;
          }
          g.set_claim(p, n);
          ref.set_claim(p, n);
          break;
        }
        case 4: {
          const geom::Point p = target(ring);
          g.clear_claim(p);
          ref.clear_claim(p);
          break;
        }
        case 5: {
          const geom::Point p = point_in(area);
          const bool horizontal = uni(0, 1) == 1;
          const NetId n = net_or_none();
          g.set_track(p, horizontal, n);
          ref.set_track(p, horizontal, n);
          break;
        }
        case 6: {
          std::vector<geom::Point> pts{point_in(area)};
          for (int i = uni(1, 3); i > 0; --i) {
            geom::Point q = point_in(area);
            (i % 2 ? q.y : q.x) = (i % 2 ? pts.back().y : pts.back().x);
            pts.push_back(q);
          }
          const NetId n = uni(0, 3);
          bool threw = false, ref_threw = false;
          try {
            g.occupy_polyline(n, pts);
          } catch (const std::logic_error&) {
            threw = true;
          }
          try {
            ref.occupy_polyline(n, pts);
          } catch (const std::logic_error&) {
            ref_threw = true;
          }
          ASSERT_EQ(threw, ref_threw) << what;
          break;
        }
      }
      ASSERT_EQ(observe(g, ring), observe(ref, ring)) << what;
    }
    // A clip copies every covered cell, the side-kept ones included.
    const geom::Rect sub{point_in(area), point_in(area)};
    const geom::Rect clip{{std::min(sub.lo.x, sub.hi.x), std::min(sub.lo.y, sub.hi.y)},
                          {std::max(sub.lo.x, sub.hi.x), std::max(sub.lo.y, sub.hi.y)}};
    ASSERT_EQ(observe(g.clipped(clip), ring), observe(ref.clipped(clip), ring))
        << "scenario " << scenario;
  }
  // The seed reaches every rare combination, many times.
  EXPECT_GT(claim_on_blocked, 100);
  EXPECT_GT(claim_on_terminal, 50);
  EXPECT_GT(terminal_on_claimed, 50);
  EXPECT_GT(same_net_both, 10);
}

TEST(RoutingGrid, RejectsNetIdsOutsideTheGateWord) {
  RoutingGrid g({{0, 0}, {3, 3}});
  EXPECT_THROW(g.set_terminal({1, 1}, RoutingGrid::kMaxNet + 1), std::invalid_argument);
  EXPECT_THROW(g.set_claim({1, 1}, -2), std::invalid_argument);
  g.set_terminal({1, 1}, RoutingGrid::kMaxNet);
  g.set_claim({1, 1}, RoutingGrid::kMaxNet);
  EXPECT_EQ(g.terminal_owner({1, 1}), RoutingGrid::kMaxNet);
  EXPECT_EQ(g.claim_owner({1, 1}), RoutingGrid::kMaxNet);
  EXPECT_TRUE(g.enterable({1, 1}, RoutingGrid::kMaxNet));
  EXPECT_FALSE(g.enterable({1, 1}, 0));
}

// --- grid construction from a placed diagram --------------------------------

Network simple_net() {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");  // size 4x2, a at (0,1), y at (4,1)
  lib.instantiate(net, "buf", "b1");
  const NetId n = net.add_net("n0");
  net.connect(n, *net.term_by_name(0, "y"));
  net.connect(n, *net.term_by_name(1, "a"));
  return net;
}

TEST(BuildGrid, BlocksModulesAndOpensTerminals) {
  const Network net = simple_net();
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_module(1, {10, 0});
  const RoutingGrid g = build_grid(dia, 3);
  EXPECT_EQ(g.area(), (geom::Rect{{-3, -3}, {17, 5}}));
  EXPECT_TRUE(g.blocked({2, 1}));    // inside module b0
  EXPECT_TRUE(g.blocked({0, 0}));    // boundary
  EXPECT_FALSE(g.blocked({5, 1}));   // channel
  // Terminal of net 0 at (4,1): blocked but owned.
  EXPECT_EQ(g.terminal_owner({4, 1}), 0);
  EXPECT_TRUE(g.enterable({4, 1}, 0));
  EXPECT_FALSE(g.enterable({4, 1}, 1));
}

TEST(BuildGrid, UnconnectedTerminalIsPlainObstacle) {
  Network net;
  net.add_module("m", "", {4, 2});
  net.add_terminal(0, "t", TermType::In, {0, 1});
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  const RoutingGrid g = build_grid(dia, 2);
  EXPECT_TRUE(g.blocked({0, 1}));
  EXPECT_EQ(g.terminal_owner({0, 1}), kNone);
}

TEST(BuildGrid, SystemTerminalIsOwnedObstacle) {
  Network net;
  net.add_module("m", "", {4, 2});
  const TermId t = net.add_terminal(0, "y", TermType::Out, {4, 1});
  const TermId st = net.add_system_terminal("o", TermType::Out);
  const NetId n = net.add_net("n");
  net.connect(n, t);
  net.connect(n, st);
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_system_term(st, {8, 1});
  const RoutingGrid g = build_grid(dia, 2);
  EXPECT_TRUE(g.blocked({8, 1}));
  EXPECT_EQ(g.terminal_owner({8, 1}), n);
}

TEST(BuildGrid, PreroutedNetsOccupy) {
  const Network net = simple_net();
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_module(1, {10, 0});
  dia.add_polyline(0, {{4, 1}, {10, 1}});
  const RoutingGrid g = build_grid(dia, 2);
  EXPECT_EQ(g.h_net({7, 1}), 0);
}

TEST(BuildGrid, RequiresPlacement) {
  const Network net = simple_net();
  Diagram dia(net);
  EXPECT_THROW(build_grid(dia, 2), std::invalid_argument);
}

}  // namespace
}  // namespace na
