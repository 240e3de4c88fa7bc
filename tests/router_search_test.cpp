// Unit tests for the single-connection search engines: line expansion
// (min bends -> crossings -> length), Lee (min length), Hightower
// (escape-line heuristic) and the straight-line fast path, plus a seeded
// oracle check of the search core's open set against a reference queue, and
// of bound pruning's bound search and min-link field against brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <random>
#include <stdexcept>

#include "route/dijkstra.hpp"
#include "route/router.hpp"

namespace na {
namespace {

RoutingGrid open_grid(int size = 20) {
  return RoutingGrid({{0, 0}, {size, size}});
}

SearchProblem p2p(NetId net, geom::Point from, std::optional<geom::Dir> from_dir,
                  geom::Point to, std::optional<geom::Dir> to_facing) {
  SearchProblem p;
  p.net = net;
  p.starts = {{from, from_dir}};
  p.target = SearchTarget{to, to_facing};
  return p;
}

[[maybe_unused]] int bends_of(const std::vector<geom::Point>& path) {
  return static_cast<int>(path.size()) - 2;  // corner list: inner points
}

/// Validates that a path is orthogonal and runs start -> end.
void expect_path_ok(const SearchResult& r, geom::Point from, geom::Point to) {
  ASSERT_GE(r.path.size(), 2u);
  EXPECT_EQ(r.path.front(), from);
  EXPECT_EQ(r.path.back(), to);
  for (size_t i = 1; i < r.path.size(); ++i) {
    const geom::Point a = r.path[i - 1];
    const geom::Point b = r.path[i];
    EXPECT_TRUE(a.x == b.x || a.y == b.y) << "diagonal segment";
  }
}

TEST(LineExpansion, StraightConnection) {
  const RoutingGrid g = open_grid();
  const auto r = line_expansion_search(g, p2p(0, {2, 5}, geom::Dir::Right, {15, 5},
                                              geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  expect_path_ok(*r, {2, 5}, {15, 5});
  EXPECT_EQ(r->cost.bends, 0);
  EXPECT_EQ(r->cost.length, 13);
  EXPECT_EQ(r->cost.crossings, 0);
}

TEST(LineExpansion, OneBend) {
  const RoutingGrid g = open_grid();
  const auto r = line_expansion_search(g, p2p(0, {2, 2}, geom::Dir::Right, {10, 10},
                                              geom::Dir::Down));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.bends, 1);
  EXPECT_EQ(r->cost.length, 16);
}

TEST(LineExpansion, MinimumBendsAroundObstacle) {
  RoutingGrid g = open_grid();
  g.block_rect({{8, 0}, {10, 12}});  // wall with gap above y=12
  const auto r = line_expansion_search(g, p2p(0, {2, 5}, geom::Dir::Right, {16, 5},
                                              geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  // Over the wall and back to the entry row, arriving rightward into the
  // target: up, across, down, right again = 4 bends, and no cheaper route
  // exists (the wall spans the whole lower plane).
  EXPECT_EQ(r->cost.bends, 4);
  expect_path_ok(*r, {2, 5}, {16, 5});
  // Without any direction constraints the detour needs only 2 bends
  // (up, across, down into the target from above).
  const auto free_entry = line_expansion_search(
      g, p2p(0, {2, 5}, std::nullopt, {16, 5}, std::nullopt));
  ASSERT_TRUE(free_entry.has_value());
  EXPECT_EQ(free_entry->cost.bends, 2);
}

TEST(LineExpansion, GuaranteedThroughMaze) {
  // A spiral maze: only one tortuous way through.
  RoutingGrid g = open_grid(12);
  g.block_rect({{2, 2}, {2, 10}});
  g.block_rect({{2, 10}, {9, 10}});
  g.block_rect({{9, 4}, {9, 10}});
  g.block_rect({{4, 4}, {9, 4}});
  g.block_rect({{4, 4}, {4, 8}});
  const auto r = line_expansion_search(g, p2p(0, {0, 0}, std::nullopt, {6, 6},
                                              std::nullopt));
  ASSERT_TRUE(r.has_value());
  expect_path_ok(*r, {0, 0}, {6, 6});
  // Lee agrees on reachability.
  const auto lee = lee_search(g, p2p(0, {0, 0}, std::nullopt, {6, 6}, std::nullopt));
  ASSERT_TRUE(lee.has_value());
}

TEST(LineExpansion, NoPathReturnsNullopt) {
  RoutingGrid g = open_grid(10);
  g.block_rect({{5, 0}, {5, 10}});  // full wall
  EXPECT_FALSE(line_expansion_search(
                   g, p2p(0, {2, 5}, std::nullopt, {8, 5}, std::nullopt))
                   .has_value());
}

TEST(LineExpansion, PrefersFewerCrossingsAmongMinBend) {
  // Two 1-bend corridors: one crosses a foreign net, the other is longer
  // but crossing-free.  Default order must pick the crossing-free one;
  // BendsLengthCrossings must pick the shorter one.
  RoutingGrid g = open_grid(20);
  // Foreign net bars the y range 0..10 at x=10 — any path through x=10
  // below y=11 crosses it.
  const geom::Point foreign[] = {{10, 0}, {10, 10}};
  g.occupy_polyline(7, foreign);
  // Start (5,5) going right, target (15,5) entered from the right side —
  // min-bend is 0 bends straight through the foreign net (1 crossing), or
  // 2 bends around above (0 crossings).  With 0 bends strictly better, the
  // straight path wins under both orders; so instead force 2 bends:
  // target faces up, so the path must arrive downward.
  // Minimum-bend shape is right/up/right/down (3 bends) for any route: the
  // choice left is *where* the climb happens.  Climbing past y=10 clears
  // the foreign net (longer, 0 crossings); staying low crosses it once
  // (shorter).
  const auto def = line_expansion_search(
      g, p2p(0, {5, 5}, geom::Dir::Right, {15, 5}, geom::Dir::Up));
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->cost.bends, 3);

  SearchProblem swapped = p2p(0, {5, 5}, geom::Dir::Right, {15, 5}, geom::Dir::Up);
  swapped.order = CostOrder::BendsLengthCrossings;
  const auto alt = line_expansion_search(g, swapped);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cost.bends, 3);
  // Under the default order crossings are minimised first; under -s the
  // length is.  The crossing-free 1-bend route must climb above y=10 first
  // (bend at (15, y>10)) and is therefore longer.
  EXPECT_LE(def->cost.crossings, alt->cost.crossings);
  EXPECT_LE(alt->cost.length, def->cost.length);
  EXPECT_EQ(def->cost.crossings, 0);
  EXPECT_EQ(alt->cost.crossings, 1);
}

TEST(LineExpansion, CannotOverlapForeignNet) {
  RoutingGrid g = open_grid(10);
  const geom::Point foreign[] = {{0, 5}, {10, 5}};
  g.occupy_polyline(7, foreign);
  // Start and target on the occupied track: the path must leave the track,
  // since running along it would overlap net 7.
  const auto r =
      line_expansion_search(g, p2p(0, {2, 5}, std::nullopt, {8, 5}, std::nullopt));
  EXPECT_FALSE(r.has_value());  // both endpoints sit *on* the foreign track
}

TEST(LineExpansion, CrossesForeignNetPerpendicularly) {
  RoutingGrid g = open_grid(10);
  const geom::Point foreign[] = {{5, 0}, {5, 10}};
  g.occupy_polyline(7, foreign);
  const auto r = line_expansion_search(
      g, p2p(0, {2, 5}, geom::Dir::Right, {8, 5}, geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.bends, 0);
  EXPECT_EQ(r->cost.crossings, 1);
}

TEST(LineExpansion, TurnBlockedOnForeignTrack) {
  RoutingGrid g = open_grid(10);
  const geom::Point foreign[] = {{0, 5}, {10, 5}};
  g.occupy_polyline(7, foreign);
  // From (2,2) to (2,8): a straight vertical line crosses the foreign
  // horizontal net at (2,5) — fine.  But force a detour ending at x=8:
  const auto r = line_expansion_search(
      g, p2p(0, {2, 2}, geom::Dir::Up, {8, 8}, geom::Dir::Down));
  ASSERT_TRUE(r.has_value());
  // No corner may sit on y=5; verify by checking corner points.
  for (size_t i = 1; i + 1 < r->path.size(); ++i) {
    EXPECT_NE(r->path[i].y, 5) << "corner on the foreign track";
  }
}

TEST(LineExpansion, JoinOwnNet) {
  RoutingGrid g = open_grid(10);
  const geom::Point own[] = {{2, 8}, {8, 8}};
  g.occupy_polyline(0, own);
  SearchProblem p;
  p.net = 0;
  p.starts = {{{5, 2}, geom::Dir::Up}};
  p.join_own_net = true;
  const auto r = line_expansion_search(g, p);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->path.back(), (geom::Point{5, 8}));
  EXPECT_EQ(r->cost.bends, 0);
}

TEST(LineExpansion, ForcedStartDirection) {
  RoutingGrid g = open_grid(10);
  // Start exits right only; target directly left of it.
  const auto r = line_expansion_search(
      g, p2p(0, {5, 5}, geom::Dir::Right, {1, 5}, geom::Dir::Right));
  ASSERT_TRUE(r.has_value());
  // Must loop around: > 0 bends even though the points share a row.
  EXPECT_GT(r->cost.bends, 0);
}

TEST(LineExpansion, RespectsClaims) {
  RoutingGrid g = open_grid(10);
  g.set_claim({5, 5}, 9);
  const auto blocked = line_expansion_search(
      g, p2p(0, {5, 2}, geom::Dir::Up, {5, 8}, geom::Dir::Down));
  ASSERT_TRUE(blocked.has_value());
  EXPECT_GT(blocked->cost.bends, 0);  // had to dodge the claim
  const auto owner = line_expansion_search(
      g, p2p(9, {5, 2}, geom::Dir::Up, {5, 8}, geom::Dir::Down));
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->cost.bends, 0);  // the claim owner sails through
}

TEST(LineExpansion, ExpansionBudget) {
  RoutingGrid g = open_grid(30);
  SearchProblem p = p2p(0, {0, 0}, std::nullopt, {30, 30}, std::nullopt);
  p.max_expansions = 3;
  EXPECT_FALSE(line_expansion_search(g, p).has_value());
}

// --- Lee ------------------------------------------------------------------------

TEST(Lee, MinimumLength) {
  RoutingGrid g = open_grid();
  const auto r =
      lee_search(g, p2p(0, {2, 2}, std::nullopt, {10, 7}, std::nullopt));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.length, 13);  // Manhattan distance
}

TEST(Lee, MinLengthThroughGap) {
  RoutingGrid g = open_grid(12);
  g.block_rect({{6, 0}, {6, 8}});  // wall with gap above y=8
  const auto r = lee_search(g, p2p(0, {2, 2}, std::nullopt, {10, 2}, std::nullopt));
  ASSERT_TRUE(r.has_value());
  // Shortest detour: up to y=9, across, down: 8 + 7 + 7 = 22.
  EXPECT_EQ(r->cost.length, 22);
}

TEST(Lee, LineExpansionNeverBeatsLeeOnExistence) {
  // On a batch of random obstacle fields, line expansion must succeed
  // exactly when Lee does (both are complete).
  for (unsigned seed = 0; seed < 12; ++seed) {
    RoutingGrid g = open_grid(16);
    unsigned state = seed * 2654435761u + 1;
    auto rnd = [&]() { return state = state * 1664525u + 1013904223u; };
    for (int i = 0; i < 10; ++i) {
      const int x = static_cast<int>(rnd() % 13) + 1;
      const int y = static_cast<int>(rnd() % 13) + 1;
      g.block_rect({{x, y}, {x + static_cast<int>(rnd() % 3), y + static_cast<int>(rnd() % 3)}});
    }
    const SearchProblem p = p2p(0, {0, 0}, std::nullopt, {16, 16}, std::nullopt);
    const bool lee_ok = lee_search(g, p).has_value();
    const bool lx_ok = line_expansion_search(g, p).has_value();
    EXPECT_EQ(lee_ok, lx_ok) << "seed " << seed;
  }
}

// --- straight line -----------------------------------------------------------

TEST(StraightLine, Works) {
  const RoutingGrid g = open_grid();
  const auto r = straight_line(g, 0, {{2, 5}, geom::Dir::Right},
                               {{15, 5}, geom::Dir::Left});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->path, (std::vector<geom::Point>{{2, 5}, {15, 5}}));
  EXPECT_EQ(r->cost.bends, 0);
}

TEST(StraightLine, RejectsMisalignment) {
  const RoutingGrid g = open_grid();
  EXPECT_FALSE(straight_line(g, 0, {{2, 5}, geom::Dir::Right},
                             {{15, 6}, geom::Dir::Left})
                   .has_value());
}

TEST(StraightLine, RejectsWrongSides) {
  const RoutingGrid g = open_grid();
  // Target's outward side points away from the start: unreachable straight.
  EXPECT_FALSE(straight_line(g, 0, {{2, 5}, geom::Dir::Right},
                             {{15, 5}, geom::Dir::Right})
                   .has_value());
  // Start exits the wrong way.
  EXPECT_FALSE(straight_line(g, 0, {{2, 5}, geom::Dir::Left},
                             {{15, 5}, geom::Dir::Left})
                   .has_value());
}

TEST(StraightLine, BlockedByModule) {
  RoutingGrid g = open_grid();
  g.block({8, 5});
  EXPECT_FALSE(straight_line(g, 0, {{2, 5}, geom::Dir::Right},
                             {{15, 5}, geom::Dir::Left})
                   .has_value());
}

TEST(StraightLine, CrossesForeignNets) {
  RoutingGrid g = open_grid();
  const geom::Point foreign[] = {{8, 0}, {8, 10}};
  g.occupy_polyline(7, foreign);
  const auto r = straight_line(g, 0, {{2, 5}, geom::Dir::Right},
                               {{15, 5}, geom::Dir::Left});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.crossings, 1);
}

TEST(StraightLine, BlockedByForeignCorner) {
  RoutingGrid g = open_grid();
  const geom::Point foreign[] = {{8, 0}, {8, 5}, {12, 5}};  // corner at (8,5)
  g.occupy_polyline(7, foreign);
  EXPECT_FALSE(straight_line(g, 0, {{2, 5}, geom::Dir::Right},
                             {{15, 5}, geom::Dir::Left})
                   .has_value());
}

TEST(StraightLine, SystemTerminalAnyDirection) {
  const RoutingGrid g = open_grid();
  const auto r = straight_line(g, 0, {{2, 5}, std::nullopt}, {{15, 5}, std::nullopt});
  ASSERT_TRUE(r.has_value());
}

// --- Hightower ------------------------------------------------------------------

TEST(Hightower, StraightConnection) {
  const RoutingGrid g = open_grid();
  const auto r = hightower_search(g, p2p(0, {2, 5}, geom::Dir::Right, {15, 5},
                                         geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  expect_path_ok(*r, {2, 5}, {15, 5});
}

TEST(Hightower, SimpleDetour) {
  RoutingGrid g = open_grid();
  g.block_rect({{8, 0}, {10, 12}});
  const auto r = hightower_search(g, p2p(0, {2, 5}, geom::Dir::Right, {16, 5},
                                         geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  expect_path_ok(*r, {2, 5}, {16, 5});
}

TEST(Hightower, PathIsGeometricallyLegal) {
  RoutingGrid g = open_grid();
  g.block_rect({{6, 2}, {8, 18}});
  g.block_rect({{12, 0}, {14, 15}});
  const auto r = hightower_search(g, p2p(0, {2, 10}, geom::Dir::Right, {18, 10},
                                         geom::Dir::Left));
  if (r) {
    // When the heuristic finds a path, it must be orthogonal and committable.
    expect_path_ok(*r, {2, 10}, {18, 10});
    RoutingGrid g2 = open_grid();
    g2.block_rect({{6, 2}, {8, 18}});
    g2.block_rect({{12, 0}, {14, 15}});
    EXPECT_NO_THROW(g2.occupy_polyline(0, r->path));
  }
}

TEST(Hightower, NoPathOnWall) {
  RoutingGrid g = open_grid(10);
  g.block_rect({{5, 0}, {5, 10}});
  EXPECT_FALSE(hightower_search(
                   g, p2p(0, {2, 5}, std::nullopt, {8, 5}, std::nullopt))
                   .has_value());
}

TEST(FindPath, Dispatch) {
  const RoutingGrid g = open_grid();
  const SearchProblem p = p2p(0, {2, 5}, std::nullopt, {15, 5}, std::nullopt);
  EXPECT_TRUE(find_path(Engine::LineExpansion, g, p).has_value());
  EXPECT_TRUE(find_path(Engine::Lee, g, p).has_value());
  EXPECT_TRUE(find_path(Engine::Hightower, g, p).has_value());
}

// --- search core oracle --------------------------------------------------------

/// Packed key of a cost triple in `mode` (20 bits per field).
std::uint64_t pack(const PathCost& c, detail::CostMode mode) {
  const auto f = [](int v) { return static_cast<std::uint64_t>(v); };
  switch (mode) {
    case detail::CostMode::BendsCrossingsLength:
      return f(c.bends) << 40 | f(c.crossings) << 20 | f(c.length);
    case detail::CostMode::BendsLengthCrossings:
      return f(c.bends) << 40 | f(c.length) << 20 | f(c.crossings);
    case detail::CostMode::LengthOnly:
      return f(c.length);
  }
  return 0;
}

struct ReferenceResult {
  SearchResult result;
  std::uint64_t goal_key = 0;
};

/// The search core's specification, written the plain way: a
/// std::priority_queue ordered by (key, push sequence number), cost
/// triples carried in the entries and packed into keys, and the grid's
/// point queries.  Same states, same relaxation order, same traceback.
std::optional<ReferenceResult> reference_search(const RoutingGrid& grid,
                                                const SearchProblem& prob,
                                                detail::CostMode mode) {
  struct Entry {
    std::uint64_t key;
    std::uint32_t seq;
    int state;
    PathCost cost;
  };
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key != b.key ? a.key > b.key : a.seq > b.seq;
    }
  };
  const geom::Rect area = grid.area();
  const int w = area.width() + 1;
  const int goal = w * (area.height() + 1) * 4;
  const geom::Rect win = prob.window.value_or(area);
  auto state_of = [&](geom::Point p, geom::Dir d) {
    return ((p.y - area.lo.y) * w + (p.x - area.lo.x)) * 4 + static_cast<int>(d);
  };
  auto point_of = [&](int s) {
    return geom::Point{area.lo.x + s / 4 % w, area.lo.y + s / 4 / w};
  };
  auto dir_of = [](int s) { return static_cast<geom::Dir>(s % 4); };

  std::vector<std::uint64_t> best(goal + 1, ~std::uint64_t{0});
  std::vector<int> parent(goal + 1, -1);
  std::priority_queue<Entry, std::vector<Entry>, After> open;
  std::uint32_t seq = 0;
  auto relax = [&](int state, int from, const PathCost& c) {
    const std::uint64_t key = pack(c, mode);
    if (key < best[state]) {
      best[state] = key;
      parent[state] = from;
      open.push({key, seq++, state, c});
    }
  };
  for (const SearchStart& s : prob.starts) {
    if (!win.contains(s.p) || !grid.node_free(s.p, prob.net)) continue;
    for (geom::Dir d : geom::kAllDirs) {
      if (!s.dir || *s.dir == d) relax(state_of(s.p, d), -1, {});
    }
  }
  long expansions = 0;
  while (!open.empty()) {
    const Entry e = open.top();
    open.pop();
    if (e.key != best[e.state]) continue;
    if (e.state == goal) {
      ReferenceResult r;
      r.goal_key = e.key;
      r.result.cost = e.cost;
      r.result.expansions = expansions;
      std::vector<geom::Point> chain;
      for (int s = parent[goal]; s != -1; s = parent[s]) chain.push_back(point_of(s));
      std::reverse(chain.begin(), chain.end());
      chain.push_back(prob.target ? prob.target->p
                                  : point_of(parent[goal]) + geom::delta(dir_of(parent[goal])));
      for (const geom::Point& p : chain) {
        std::vector<geom::Point>& path = r.result.path;
        if (!path.empty() && path.back() == p) continue;
        if (path.size() >= 2) {
          const geom::Point a = path[path.size() - 2];
          const geom::Point b = path.back();
          if ((a.x == b.x && b.x == p.x) || (a.y == b.y && b.y == p.y)) {
            path.back() = p;
            continue;
          }
        }
        path.push_back(p);
      }
      return r;
    }
    if (++expansions > prob.max_expansions) return std::nullopt;
    const geom::Point p = point_of(e.state);
    const geom::Dir d = dir_of(e.state);
    const geom::Point q = p + geom::delta(d);
    const bool horiz = geom::is_horizontal(d);
    if (win.contains(q)) {
      PathCost c = e.cost;
      c.length += 1;
      const bool arrivable = grid.enterable(q, prob.net) && grid.node_free(q, prob.net);
      const bool is_target = prob.target && q == prob.target->p &&
                             (!prob.target->facing || d == geom::opposite(*prob.target->facing)) &&
                             arrivable;
      const bool is_join = prob.join_own_net && arrivable && grid.occupied_by(q, prob.net);
      if (is_target || is_join) {
        relax(goal, e.state, c);
      } else if (grid.passable(q, prob.net, horiz) && !grid.occupied_by(q, prob.net)) {
        c.crossings += grid.crosses_at(q, prob.net, horiz) ? 1 : 0;
        relax(state_of(q, d), e.state, c);
      }
    }
    if (grid.can_turn(p, prob.net)) {
      for (geom::Dir nd : geom::kAllDirs) {
        if (geom::is_horizontal(nd) == horiz) continue;
        PathCost c = e.cost;
        c.bends += 1;
        relax(state_of(p, nd), e.state, c);
      }
    }
  }
  return std::nullopt;
}

struct Scenario {
  RoutingGrid grid{{{0, 0}, {1, 1}}};
  SearchProblem prob;
};

/// A seeded random plane (offset origin, module blocks, foreign and own
/// nets, claims, a terminal) and a target or join problem on it, sometimes
/// windowed.  Net 0 is the searching net.  The plane is 7 to max_size + 1
/// points wide.
Scenario random_scenario(std::mt19937& rng, int max_size = 32) {
  auto uni = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  auto dir = [&]() { return geom::kAllDirs[uni(0, 3)]; };
  const int size = uni(6, max_size);
  const geom::Point lo = {uni(-5, 5), uni(-5, 5)};
  Scenario sc;
  sc.grid = RoutingGrid({lo, {lo.x + size, lo.y + uni(size / 2, size)}});
  RoutingGrid& g = sc.grid;
  const geom::Rect area = g.area();
  auto point = [&]() {
    return geom::Point{uni(area.lo.x, area.hi.x), uni(area.lo.y, area.hi.y)};
  };
  for (int i = uni(0, size / 3); i > 0; --i) {
    const geom::Point a = point();
    g.block_rect({a, {a.x + uni(0, 4), a.y + uni(0, 4)}});
  }
  // Two-segment nets: net 0 is the searching net's own geometry.
  for (NetId n = 0; n < 6; ++n) {
    for (int tries = uni(0, 3); tries > 0; --tries) {
      const geom::Point a = point();
      const geom::Point b = point();
      const geom::Point pts[] = {a, {b.x, a.y}, b};
      if (g.polyline_fits(n, pts)) g.occupy_polyline(n, pts);
    }
  }
  for (int i = uni(0, 4); i > 0; --i) g.set_claim(point(), uni(0, 2));

  SearchProblem& p = sc.prob;
  p.net = 0;
  for (int i = uni(1, 3); i > 0; --i) {
    p.starts.push_back({point(), uni(0, 2) ? std::optional<geom::Dir>(dir()) : std::nullopt});
  }
  p.join_own_net = uni(0, 2) == 0;
  if (!p.join_own_net || uni(0, 1)) {
    p.target = SearchTarget{point(), uni(0, 1) ? std::optional<geom::Dir>(dir()) : std::nullopt};
    if (uni(0, 1)) g.set_terminal(p.target->p, 0);
  }
  if (uni(0, 2) == 0) {
    // Around the first start and the target or a random point, sometimes
    // reaching past the plane's edge.
    const geom::Point b = p.target ? p.target->p : point();
    p.window = geom::Rect{p.starts[0].p, p.starts[0].p}.hull(b).expanded(uni(0, 3));
  }
  return sc;
}

void expect_same(const std::optional<SearchResult>& got,
                 const std::optional<ReferenceResult>& want, detail::CostMode mode,
                 const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  EXPECT_EQ(got->path, want->result.path) << what;
  EXPECT_EQ(got->cost.bends, want->result.cost.bends) << what;
  EXPECT_EQ(got->cost.crossings, want->result.cost.crossings) << what;
  EXPECT_EQ(got->cost.length, want->result.cost.length) << what;
  EXPECT_EQ(got->expansions, want->result.expansions) << what;
  // The cost recounted along the chain decodes to the key the goal popped at.
  EXPECT_EQ(pack(got->cost, mode), want->goal_key) << what;
}

TEST(SearchCore, LaneOpenSetMatchesReferenceQueue) {
  const detail::CostMode modes[] = {detail::CostMode::BendsCrossingsLength,
                                    detail::CostMode::BendsLengthCrossings,
                                    detail::CostMode::LengthOnly};
  std::mt19937 rng(20261017);
  detail::SearchWorkspace ws;  // reused across searches, as the driver does
  // Searches run on each of the reused workspace's two tables.
  int plane_searches = 0, window_searches = 0;
  auto reused = [&](const RoutingGrid& g, const SearchProblem& p, detail::CostMode mode) {
    ++(p.window ? window_searches : plane_searches);
    return detail::grid_search(g, p, mode, &ws);
  };
  int found = 0, windowed = 0, joins = 0, exhausted = 0;
  for (int round = 0; round < 300; ++round) {
    Scenario sc = random_scenario(rng);
    for (detail::CostMode mode : modes) {
      const std::string what =
          "round " + std::to_string(round) + " mode " + std::to_string(static_cast<int>(mode));
      const auto want = reference_search(sc.grid, sc.prob, mode);
      // A fresh workspace and the long-reused one agree with the reference.
      expect_same(detail::grid_search(sc.grid, sc.prob, mode), want, mode,
                  what + " fresh");
      const auto got = reused(sc.grid, sc.prob, mode);
      expect_same(got, want, mode, what);
      if (!got || !want) continue;
      ++found;
      windowed += sc.prob.window.has_value();
      joins += sc.prob.join_own_net;
      // A budget of exactly the expansions used still succeeds; one less
      // exhausts it in both searches.
      SearchProblem tight = sc.prob;
      tight.max_expansions = got->expansions;
      expect_same(reused(sc.grid, tight, mode), reference_search(sc.grid, tight, mode),
                  mode, what + " tight");
      if (got->expansions == 0) continue;
      tight.max_expansions = got->expansions - 1;
      const auto cut = reused(sc.grid, tight, mode);
      EXPECT_FALSE(cut.has_value()) << what;
      EXPECT_FALSE(reference_search(sc.grid, tight, mode).has_value()) << what;
      exhausted += !cut.has_value();
    }
  }
  // The seed covers every kind of problem.
  EXPECT_GT(found, 300);
  EXPECT_GT(windowed, 50);
  EXPECT_GT(joins, 50);
  EXPECT_GT(exhausted, 200);
  // Both tables wrapped their stamps at least twice, scrubbing each time.
  constexpr int kWrap = detail::StateTable::kStamps;
  EXPECT_GT(plane_searches, 2 * kWrap);
  EXPECT_GT(window_searches, 2 * kWrap);
  EXPECT_GT(ws.scrubbed_slots(), 0u);
}

TEST(SearchCore, StampWrapNeverShowsStaleSlots) {
  detail::StateTable table;
  constexpr int kStates = 8;
  constexpr int kSearches = 600;  // wraps the 255 stamps twice
  for (int search = 1; search <= kSearches; ++search) {
    table.begin(kStates);
    for (int s = 0; s < kStates; ++s) {
      ASSERT_EQ(table.best(s), detail::StateTable::kUnvisited) << "search " << search;
    }
    table.view().record(search % kStates, static_cast<std::uint64_t>(search),
                        detail::Move::Start);
    EXPECT_EQ(table.best(search % kStates), static_cast<std::uint64_t>(search));
  }
  // Searches 256 and 511 scrub; the first needs none (fresh slots are 0).
  EXPECT_EQ(table.scrubbed_slots(), 2u * kStates);
}

TEST(SearchCore, KeyGuardRejectsKeysReachingTheStamp) {
  using detail::StateTable;
  StateTable table;
  table.begin(2);
  const StateTable::View v = table.view();
  v.record(0, StateTable::kKeyMask, detail::Move::Start);
  EXPECT_EQ(table.best(0), StateTable::kKeyMask);
  EXPECT_THROW(v.record(1, StateTable::kKeyMask + 1, detail::Move::Step),
               std::length_error);
  EXPECT_EQ(table.best(1), StateTable::kUnvisited);
  // The bends field holds 16383 bends over full lower fields; one more
  // bend reaches the move bits.
  constexpr int kField = (1 << 20) - 1;
  const auto mode = detail::CostMode::BendsCrossingsLength;
  EXPECT_EQ(detail::pack_cost({16383, kField, kField}, mode), StateTable::kKeyMask);
  v.record(1, detail::pack_cost({16383, 0, 0}, mode), detail::Move::Turn3);
  EXPECT_EQ(table.best(1), detail::pack_cost({16383, 0, 0}, mode));
  EXPECT_THROW(v.record(1, detail::pack_cost({16384, 0, 0}, mode), detail::Move::Step),
               std::length_error);
}

TEST(SearchCore, SlotFieldsRoundTripWithoutBleeding) {
  using detail::Move;
  using detail::StateTable;
  constexpr Move kMoves[] = {Move::Step, Move::Turn2, Move::Turn3, Move::Start};
  StateTable table;
  int checked = 0;
  for (std::uint32_t stamp = 1; stamp <= StateTable::kStamps; ++stamp) {
    table.begin(8);  // the table's stamp is now `stamp`
    if (stamp != 1 && stamp != StateTable::kStamps) continue;
    const StateTable::View v = table.view();
    for (int m = 0; m < 4; ++m) {
      // Slot 2m: the largest key; slot 2m+1: key 0.  Neither may disturb
      // the other fields of its own slot or of any other.
      v.record(2 * m, StateTable::kKeyMask, kMoves[m]);
      v.record(2 * m + 1, 0, kMoves[m]);
    }
    for (int m = 0; m < 4; ++m) {
      EXPECT_EQ(table.best(2 * m), StateTable::kKeyMask) << stamp << " " << m;
      EXPECT_EQ(table.best(2 * m + 1), 0u) << stamp << " " << m;
      EXPECT_EQ(table.move(2 * m), kMoves[m]) << stamp << " " << m;
      EXPECT_EQ(table.move(2 * m + 1), kMoves[m]) << stamp << " " << m;
      EXPECT_EQ(v.slots[2 * m] >> StateTable::kStampShift, stamp);
      EXPECT_EQ(v.slots[2 * m + 1] >> StateTable::kStampShift, stamp);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 2);
  // The next search sees none of it.
  table.begin(8);
  for (int s = 0; s < 8; ++s) EXPECT_EQ(table.best(s), StateTable::kUnvisited);
}

/// Hull of every cell the searching net 0 occupies: the join hull the
/// driver derives from the net's polylines, taken here from the grid itself.
std::optional<geom::Rect> own_hull(const RoutingGrid& g) {
  geom::Rect hull;
  const geom::Rect a = g.area();
  for (int y = a.lo.y; y <= a.hi.y; ++y) {
    for (int x = a.lo.x; x <= a.hi.x; ++x) {
      if (g.occupied_by({x, y}, 0)) hull = hull.hull(geom::Point{x, y});
    }
  }
  if (hull.empty()) return std::nullopt;
  return hull;
}

TEST(SearchCore, BoundedSearchMatchesUnbounded) {
  const detail::CostMode modes[] = {detail::CostMode::BendsCrossingsLength,
                                    detail::CostMode::BendsLengthCrossings,
                                    detail::CostMode::LengthOnly};
  std::mt19937 rng(20261018);
  auto uni = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  detail::SearchWorkspace ws;
  int found = 0, joins = 0, entries = 0, cut_off = 0, pruned = 0;
  int fields_first = 0, fields_mid = 0, field_pruned = 0;
  for (int round = 0; round < 300; ++round) {
    Scenario sc = random_scenario(rng);
    detail::SearchBound base;
    if (sc.prob.join_own_net) base.join_hull = own_hull(sc.grid);
    // Fixed-target full-plane searches with a bend cost build a min-link
    // field after cells / 32 expansions once their bound is finite: on a
    // plane of fewer than 64 points, with a bound given up front, that is
    // the first expansion; otherwise the field appears mid-search.
    const geom::Rect area = sc.grid.area();
    const bool tiny = (area.width() + 1) * (area.height() + 1) < 64;
    for (detail::CostMode mode : modes) {
      const std::string what =
          "round " + std::to_string(round) + " mode " + std::to_string(static_cast<int>(mode));
      const auto want = detail::grid_search(sc.grid, sc.prob, mode, &ws);
      // No initial bound: pruning starts when the goal is pushed.
      detail::SearchStats used;
      used.expansions = -1;
      const auto open_bound =
          detail::grid_search(sc.grid, sc.prob, mode, &ws, nullptr, &base, &used);
      ASSERT_EQ(open_bound.has_value(), want.has_value()) << what;
      if (!want) continue;
      ++found;
      joins += sc.prob.join_own_net;
      entries += sc.prob.target && sc.prob.target->facing;
      EXPECT_EQ(used.expansions, open_bound->expansions) << what;
      const std::uint64_t exact = detail::pack_cost(want->cost, mode);
      EXPECT_EQ(exact, pack(want->cost, mode)) << what;

      // A windowed pre-search around the first start, sometimes cutting
      // off the optimum, gives a bound no smaller than the optimum.
      SearchProblem pre = sc.prob;
      const geom::Point s0 = pre.starts[0].p;
      geom::Rect win = geom::Rect{s0, s0}
                           .hull(pre.target ? pre.target->p : s0)
                           .expanded(uni(0, 4));
      if (pre.window) win = win.intersect(*pre.window);
      pre.window = win;
      std::vector<std::uint64_t> bounds = {detail::kNoBound, exact, exact + uni(1, 3),
                                           exact + (std::uint64_t{1} << 40)};
      if (const auto r = detail::grid_search(sc.grid, pre, mode, &ws, nullptr, &base)) {
        const std::uint64_t key = detail::pack_cost(r->cost, mode);
        EXPECT_GE(key, exact) << what;
        cut_off += key > exact;
        bounds.push_back(key);
      }
      // The cells the unpruned search read: every pruned search's
      // expansions are a subset of its, so are their cells.
      detail::ObservedMask read_unpruned;
      read_unpruned.reset(sc.grid.area());
      detail::grid_search(sc.grid, sc.prob, mode, &ws, &read_unpruned);
      for (const std::uint64_t b : bounds) {
        detail::SearchBound bound = base;
        bound.key = b;
        const std::string with =
            what + " bound " + (b == detail::kNoBound ? "none" : std::to_string(b - exact));
        detail::ObservedMask read;
        read.reset(area);
        detail::SearchStats stats;
        const auto got = detail::grid_search(sc.grid, sc.prob, mode, &ws, &read, &bound, &stats);
        ASSERT_TRUE(got.has_value()) << with;
        EXPECT_EQ(got->path, want->path) << with;
        EXPECT_EQ(got->cost.bends, want->cost.bends) << with;
        EXPECT_EQ(got->cost.crossings, want->cost.crossings) << with;
        EXPECT_EQ(got->cost.length, want->cost.length) << with;
        EXPECT_LE(got->expansions, want->expansions) << with;
        EXPECT_LE(stats.bound_expansions, stats.expansions) << with;
        pruned += got->expansions < want->expansions;
        const bool eligible =
            !sc.prob.join_own_net && !sc.prob.window && mode != detail::CostMode::LengthOnly;
        if (!eligible) {
          EXPECT_EQ(stats.field_builds, 0) << with;
        } else if (stats.field_builds > 0) {
          (tiny && b != detail::kNoBound ? fields_first : fields_mid) += stats.field_builds;
          field_pruned += got->expansions < want->expansions;
        }
        for (int y = area.lo.y; y <= area.hi.y; ++y) {
          for (int x = area.lo.x; x <= area.hi.x; ++x) {
            if (read.covers({x, y})) {
              ASSERT_TRUE(read_unpruned.covers({x, y})) << with << " cell " << geom::Point{x, y};
            }
          }
        }
        // The unbounded search's budget always suffices.
        SearchProblem tight = sc.prob;
        tight.max_expansions = want->expansions;
        const auto capped = detail::grid_search(sc.grid, tight, mode, &ws, nullptr, &bound);
        ASSERT_TRUE(capped.has_value()) << with;
        EXPECT_EQ(capped->path, want->path) << with;
      }
    }
  }
  // The seed covers every kind of problem, and the bounds do prune.
  EXPECT_GT(found, 300);
  EXPECT_GT(joins, 50);
  EXPECT_GT(entries, 100);
  EXPECT_GT(cut_off, 30);
  EXPECT_GT(pruned, 500);
  EXPECT_GT(fields_first, 30);
  EXPECT_GT(fields_mid, 400);
  EXPECT_GT(field_pruned, 100);
}

/// Fewest bends from every state (p, d) of `g`'s area to the goal, by a
/// 0-1 breadth-first search backwards from the arrival states.  `arrives`
/// says whether state (p, d) reaches the goal with its next step, `steps`
/// whether a step with heading d onto p reaches state (p, d), `turns`
/// whether a state at p may turn.  Unreachable states hold INT_MAX.
template <class Arrives, class Steps, class Turns>
std::vector<int> backward_bends(const RoutingGrid& g, Arrives arrives, Steps steps,
                                Turns turns) {
  const geom::Rect a = g.area();
  const int w = a.width() + 1;
  auto index = [&](geom::Point p, geom::Dir d) {
    return ((p.y - a.lo.y) * w + (p.x - a.lo.x)) * 4 + static_cast<int>(d);
  };
  std::vector<int> bends(static_cast<size_t>(w) * (a.height() + 1) * 4,
                         std::numeric_limits<int>::max());
  std::deque<std::pair<geom::Point, geom::Dir>> queue;
  for (int y = a.lo.y; y <= a.hi.y; ++y) {
    for (int x = a.lo.x; x <= a.hi.x; ++x) {
      for (geom::Dir d : geom::kAllDirs) {
        if (arrives(geom::Point{x, y}, d)) {
          bends[index({x, y}, d)] = 0;
          queue.emplace_back(geom::Point{x, y}, d);
        }
      }
    }
  }
  while (!queue.empty()) {
    const auto [q, d] = queue.front();
    queue.pop_front();
    const int b = bends[index(q, d)];
    const geom::Point p = q - geom::delta(d);
    if (a.contains(p) && steps(q, d) && b < bends[index(p, d)]) {
      bends[index(p, d)] = b;
      queue.emplace_front(p, d);
    }
    if (!turns(q)) continue;
    for (geom::Dir od : geom::kAllDirs) {
      if (geom::is_horizontal(od) == geom::is_horizontal(d)) continue;
      if (b + 1 < bends[index(q, od)]) {
        bends[index(q, od)] = b + 1;
        queue.emplace_back(q, od);
      }
    }
  }
  return bends;
}

TEST(MinLinkField, EqualsRelaxedBendsAndNeverExceedsRealOnes) {
  std::mt19937 rng(20261020);
  auto uni = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  const std::optional<geom::Dir> entries[] = {std::nullopt, geom::Dir::Left, geom::Dir::Right,
                                              geom::Dir::Up, geom::Dir::Down};
  detail::MinLinkField field;  // reused, as a workspace does
  int planes = 0, wide = 0, capped = 0, real_finite = 0, real_above = 0, closed_cells = 0;
  for (int round = 0; round < 300; ++round) {
    // Every third plane is wider than a bitmap word, so row fills carry
    // between words.
    Scenario sc = random_scenario(rng, round % 3 == 0 ? 150 : 32);
    const RoutingGrid& g = sc.grid;
    const geom::Rect a = g.area();
    // A target inside the plane or just outside it, sometimes a terminal.
    const geom::Point target = sc.prob.target ? sc.prob.target->p
                                              : geom::Point{uni(a.lo.x - 1, a.hi.x + 1),
                                                            uni(a.lo.y, a.hi.y)};
    ++planes;
    wide += a.width() + 1 > 64;
    for (const std::optional<geom::Dir> entry : entries) {
      const int limit = uni(0, 1) ? detail::MinLinkField::kMaxLevel : uni(0, 4);
      field.build(g, target, entry, limit);
      const std::string what = "round " + std::to_string(round) + " entry " +
                               (entry ? std::to_string(static_cast<int>(*entry)) : "any") +
                               " limit " + std::to_string(limit);
      auto entry_ok = [&](geom::Dir d) { return !entry || *entry == d; };
      // The relaxed plane: only closed points block.
      const std::vector<int> relaxed = backward_bends(
          g,
          [&](geom::Point p, geom::Dir d) {
            return !g.closed(p) && p + geom::delta(d) == target && entry_ok(d) &&
                   !g.closed(target);
          },
          [&](geom::Point q, geom::Dir d) { return !g.closed(q) && !g.closed(q - geom::delta(d)); },
          [&](geom::Point q) { return !g.closed(q); });
      // The real search's moves for net 0 (grid_search's step, arrival and
      // turn rules).
      auto arrivable = [&](geom::Point q) { return g.enterable(q, 0) && g.node_free(q, 0); };
      const std::vector<int> real = backward_bends(
          g,
          [&](geom::Point p, geom::Dir d) {
            return p + geom::delta(d) == target && entry_ok(d) && arrivable(target);
          },
          [&](geom::Point q, geom::Dir d) {
            const bool goal = q == target && entry_ok(d) && arrivable(q);
            return !goal && g.passable(q, 0, geom::is_horizontal(d)) && !g.occupied_by(q, 0);
          },
          [&](geom::Point q) { return g.can_turn(q, 0); });
      const int w = a.width() + 1;
      for (int y = a.lo.y; y <= a.hi.y; ++y) {
        for (int x = a.lo.x; x <= a.hi.x; ++x) {
          const geom::Point p{x, y};
          const int cell = (y - a.lo.y) * w + (x - a.lo.x);
          for (geom::Dir d : geom::kAllDirs) {
            const int got = field.bends(cell, d);
            const int s = cell * 4 + static_cast<int>(d);
            if (real[s] != std::numeric_limits<int>::max()) {
              ++real_finite;
              ASSERT_LE(got, real[s]) << what << " " << p << " heading " << d;
              real_above += real[s] > got;
            }
            if (g.closed(p)) {
              ++closed_cells;
              continue;
            }
            // The axis bound is the smaller of its two headings', capped.
            const geom::Dir back = geom::opposite(d);
            const int truth = std::min(relaxed[s], relaxed[cell * 4 + static_cast<int>(back)]);
            capped += truth > limit;
            ASSERT_EQ(got, std::min(truth, limit + 1)) << what << " " << p << " heading " << d;
          }
        }
      }
    }
  }
  EXPECT_EQ(planes, 300);
  EXPECT_GT(wide, 50);
  // The seed reaches every case: capped levels, closed cells, and real
  // grids whose tracks and claims cost more bends than the relaxed plane.
  EXPECT_GT(capped, 1000);
  EXPECT_GT(closed_cells, 1000);
  EXPECT_GT(real_finite, 10000);
  EXPECT_GT(real_above, 1000);
}

TEST(SearchCore, BoundSearchFindsTheWindowOptimum) {
  const detail::CostMode modes[] = {detail::CostMode::BendsCrossingsLength,
                                    detail::CostMode::BendsLengthCrossings,
                                    detail::CostMode::LengthOnly};
  std::mt19937 rng(20261021);
  auto uni = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  detail::SearchWorkspace ws;
  int found = 0, windowed = 0, joins = 0, cut_off = 0;
  for (int round = 0; round < 300; ++round) {
    Scenario sc = random_scenario(rng);
    detail::SearchBound base;
    if (sc.prob.join_own_net) base.join_hull = own_hull(sc.grid);
    // The scenario's own problem, and a window around its first start.
    SearchProblem pre = sc.prob;
    const geom::Point s0 = pre.starts[0].p;
    pre.window = geom::Rect{s0, s0}.hull(pre.target ? pre.target->p : s0).expanded(uni(0, 4));
    SearchProblem full = sc.prob;
    full.window.reset();
    for (detail::CostMode mode : modes) {
      const auto optimum = detail::grid_search(sc.grid, full, mode, &ws, nullptr, &base);
      for (const SearchProblem* prob : {&sc.prob, &pre}) {
        const std::string what = "round " + std::to_string(round) + " mode " +
                                 std::to_string(static_cast<int>(mode)) +
                                 (prob == &pre ? " pre-window" : "");
        const auto canonical = detail::grid_search(sc.grid, *prob, mode, &ws, nullptr, &base);
        detail::SearchStats stats;
        const auto key = detail::bound_search(sc.grid, *prob, mode, ws, nullptr, &base, &stats);
        ASSERT_EQ(key.has_value(), canonical.has_value()) << what;
        if (!key) continue;
        ++found;
        windowed += prob->window.has_value();
        joins += prob->join_own_net;
        EXPECT_EQ(*key, detail::pack_cost(canonical->cost, mode)) << what;
        EXPECT_EQ(stats.field_builds, 0) << what;
        // A window's optimum is a path of the whole plane: never below its
        // optimum, so a valid upper bound for the full search.
        ASSERT_TRUE(optimum.has_value()) << what;
        EXPECT_GE(*key, detail::pack_cost(optimum->cost, mode)) << what;
        cut_off += *key > detail::pack_cost(optimum->cost, mode);
      }
    }
  }
  EXPECT_GT(found, 700);
  EXPECT_GT(windowed, 400);
  EXPECT_GT(joins, 200);
  EXPECT_GT(cut_off, 30);
}

TEST(SearchCore, BendLowerBoundIsAdmissible) {
  // Brute force on an empty 13x13 plane: the fewest bends from every state
  // to a target in its middle, entering with each heading or any, found by
  // a 0-1 breadth-first search backwards from the arrival states.
  constexpr int kSize = 13;
  auto inside = [](geom::Point p) { return p.x >= 0 && p.y >= 0 && p.x < kSize && p.y < kSize; };
  auto index = [](geom::Point p, geom::Dir d) {
    return (p.y * kSize + p.x) * 4 + static_cast<int>(d);
  };
  auto sign = [](int v) { return (v > 0) - (v < 0); };
  const std::optional<geom::Dir> entries[] = {std::nullopt, geom::Dir::Left, geom::Dir::Right,
                                              geom::Dir::Up, geom::Dir::Down};
  int checked = 0;
  for (int ty = 4; ty <= 8; ++ty) {
    for (int tx = 4; tx <= 8; ++tx) {
      const geom::Point t{tx, ty};
      for (const std::optional<geom::Dir> entry : entries) {
        std::vector<int> bends(kSize * kSize * 4, std::numeric_limits<int>::max());
        std::deque<std::pair<geom::Point, geom::Dir>> queue;
        for (geom::Dir d : geom::kAllDirs) {
          const geom::Point p = t - geom::delta(d);
          if ((!entry || *entry == d) && inside(p)) {
            bends[index(p, d)] = 0;
            queue.emplace_back(p, d);
          }
        }
        while (!queue.empty()) {
          const auto [q, d] = queue.front();
          queue.pop_front();
          const int b = bends[index(q, d)];
          // Predecessors: the straight step into q, free; a turn at q, one bend.
          const geom::Point p = q - geom::delta(d);
          if (inside(p) && b < bends[index(p, d)]) {
            bends[index(p, d)] = b;
            queue.emplace_front(p, d);
          }
          for (geom::Dir od : geom::kAllDirs) {
            if (geom::is_horizontal(od) == geom::is_horizontal(d)) continue;
            if (b + 1 < bends[index(q, od)]) {
              bends[index(q, od)] = b + 1;
              queue.emplace_back(q, od);
            }
          }
        }
        const detail::BendTable table = detail::bend_lower_bounds(entry);
        auto bound = [&](geom::Point p, geom::Dir d) {
          return static_cast<int>(table[detail::bend_index(d, sign(t.x - p.x), sign(t.y - p.y))]);
        };
        for (int y = 0; y < kSize; ++y) {
          for (int x = 0; x < kSize; ++x) {
            const geom::Point p{x, y};
            for (geom::Dir d : geom::kAllDirs) {
              const int truth = bends[index(p, d)];
              ASSERT_LE(bound(p, d), truth) << p << " heading " << d << " target " << t;
              ++checked;
              // With any entry allowed the table is exact off the target.
              if (!entry && p != t) {
                EXPECT_EQ(bound(p, d), truth) << p << " heading " << d << " target " << t;
              }
              // Never lower after a straight step.
              const geom::Point q = p + geom::delta(d);
              if (inside(q)) {
                EXPECT_GE(bound(q, d), bound(p, d)) << p << " heading " << d;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 25 * 5 * kSize * kSize * 4);
}

TEST(SearchCore, LeeCostCountsCrossingsItDoesNotOrderBy) {
  // Lee's key is length alone; the reported cost still counts the
  // crossings and bends of the path it found.
  RoutingGrid g = open_grid(20);
  const geom::Point foreign[] = {{10, 0}, {10, 20}};
  g.occupy_polyline(7, foreign);
  const auto r = lee_search(g, p2p(0, {2, 2}, geom::Dir::Right, {15, 8}, geom::Dir::Left));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cost.length, 19);
  EXPECT_EQ(r->cost.crossings, 1);
  EXPECT_GE(r->cost.bends, 2);
}

}  // namespace
}  // namespace na
