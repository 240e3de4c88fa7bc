// The line-expansion router (paper chapter 5) and its shared search core.
//
// The search explores states (grid point, heading).  A straight step costs
// one length unit (plus one crossing when it passes over a foreign
// perpendicular net); a turn in place costs one bend and requires the whole
// grid point to be free (a bend occupies both orientations).  With costs
// ordered lexicographically (bends, crossings, length) the first goal state
// popped is exactly the path section 5.4 asks for: minimum bends, then
// minimum crossovers, then minimum wire length.  The `-s` option of
// Appendix F swaps the last two keys.
//
// The search state lives in a SearchWorkspace (generation-stamped arrays
// plus a reusable open set) so repeated searches stop paying a per-call
// O(W*H) allocation; a caller that passes no workspace gets a private one.
// An optional per-problem window restricts the explored plane: points
// outside it count as blocked, and the driver retries without the window
// when a windowed search fails.
//
// The search order is canonical: the smallest packed cost key first, ties
// broken by push order.  Every edge adds a fixed per-mode delta to the key
// (one per OpenSet lane), so the key is never unpacked during the search;
// the reported PathCost is recounted along the traced state chain.
#include "route/dijkstra.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <vector>

namespace na {
namespace detail {
namespace {

/// Open-set lanes, one per edge kind.
enum Lane : int { kStraight = 0, kCrossing = 1, kBend = 2 };

/// Key increments per lane.  Keys pack three 20-bit cost fields (grids
/// here are far smaller than 2^20 tracks), most significant first; Lee
/// orders by length alone, so its crossing step costs a plain step and its
/// bend costs nothing.
std::array<std::uint64_t, OpenSet::kLanes> lane_deltas(CostMode mode) {
  constexpr std::uint64_t kLow = 1;
  constexpr std::uint64_t kMid = std::uint64_t{1} << 20;
  constexpr std::uint64_t kHigh = std::uint64_t{1} << 40;
  switch (mode) {
    case CostMode::BendsCrossingsLength:  // (bends, crossings, length)
      return {kLow, kMid + kLow, kHigh};
    case CostMode::BendsLengthCrossings:  // (bends, length, crossings)
      return {kMid, kMid + kLow, kHigh};
    case CostMode::LengthOnly:
      return {kLow, kLow, 0};
  }
  return {};
}

}  // namespace

std::optional<SearchResult> grid_search(const RoutingGrid& grid,
                                        const SearchProblem& prob, CostMode mode,
                                        SearchWorkspace* ws, ObservedMask* observed) {
  if (prob.starts.empty()) return std::nullopt;
  if (!prob.target && !prob.join_own_net) {
    throw std::invalid_argument("search problem without destination");
  }
  SearchWorkspace local;
  if (!ws) ws = &local;
  const geom::Rect area = grid.area();
  const int w = area.width() + 1;
  const int h = area.height() + 1;
  const int ncells = w * h;
  const int nstates = ncells * 4;
  const int goal_state = nstates;  // virtual goal
  // Keys pop in non-decreasing order and a relax must lower a state's key,
  // so each state is pushed at most once as a start and expanded at most
  // once, pushing at most three entries: at most 16 pushes per cell, which
  // keeps the 32-bit push sequence number from wrapping.
  if (static_cast<std::uint64_t>(ncells) > std::numeric_limits<std::uint32_t>::max() / 16) {
    throw std::length_error("routing plane too large for the search core");
  }
  const bool windowed = prob.window.has_value();
  const geom::Rect win = windowed ? *prob.window : area;
  // Points a step may land on: the window's part of the plane.
  const geom::Rect reach = win.intersect(area);

  auto state_of = [&](geom::Point p, geom::Dir d) {
    return ((p.y - area.lo.y) * w + (p.x - area.lo.x)) * 4 + static_cast<int>(d);
  };
  auto point_of = [&](int state) {
    const int cell = state / 4;
    return geom::Point{area.lo.x + cell % w, area.lo.y + cell / w};
  };
  auto dir_of = [&](int state) { return static_cast<geom::Dir>(state % 4); };

  ws->begin(nstates + 1);
  const SearchWorkspace::View visited = ws->view();
  OpenSet& open = ws->open();
  const std::array<std::uint64_t, OpenSet::kLanes> delta = lane_deltas(mode);

  auto relax = [&](int lane, int state, int from, std::uint64_t key) {
    if (key < visited.best(state)) {
      visited.record(state, key, from);
      open.push(lane, key, state);
    }
  };

  for (const SearchStart& s : prob.starts) {
    if (windowed && !win.contains(s.p)) continue;
    if (observed) observed->mark(s.p);
    // The start point becomes a node of this net as well.
    if (!grid.in_bounds(s.p) || !grid.node_free(s.p, prob.net)) continue;
    if (s.dir) {
      relax(kStraight, state_of(s.p, *s.dir), -1, 0);
    } else {
      for (geom::Dir d : geom::kAllDirs) relax(kStraight, state_of(s.p, d), -1, 0);
    }
  }

  const NetId net = prob.net;
  const bool has_target = prob.target.has_value();
  const geom::Point target = has_target ? prob.target->p : geom::Point{};
  // The heading a step must have to enter the target, or -1 for any.
  const int target_entry = has_target && prob.target->facing
                               ? static_cast<int>(geom::opposite(*prob.target->facing))
                               : -1;
  long expansions = 0;
  OpenEntry e;
  while (open.pop(e)) {
    if (e.key != visited.best(e.state)) continue;  // stale
    if (e.state == goal_state) break;
    if (++expansions > prob.max_expansions) return std::nullopt;

    const geom::Point p = point_of(e.state);
    const geom::Dir d = dir_of(e.state);
    if (observed) observed->mark(p);

    // Straight step: extend the escape line one track.
    const geom::Point q = p + geom::delta(d);
    if (reach.contains(q)) {
      if (observed) observed->mark(q);  // q's grid state is read below
      const RoutingGrid::Cell& c = grid.cell(q);
      const bool horiz = geom::is_horizontal(d);
      // Destination tests come first: a terminal cell is enterable only by
      // its own net and join cells are occupied, so `passable` would veto
      // them.
      // Arrival makes q a node of this net, so no foreign net may touch q.
      const bool arrivable = c.enterable(net) && c.node_free(net);
      const bool is_target = has_target && q == target &&
                             (target_entry < 0 || static_cast<int>(d) == target_entry) &&
                             arrivable;
      const bool is_join = prob.join_own_net && arrivable && c.occupied_by(net);
      if (is_target || is_join) {
        relax(kStraight, goal_state, e.state, e.key + delta[kStraight]);
      } else if (c.passable(net, horiz) && !c.occupied_by(net)) {
        const int lane = c.crosses(net, horiz) ? kCrossing : kStraight;
        relax(lane, state_of(q, d), e.state, e.key + delta[lane]);
      }
    }
    // Turns: start a perpendicular expansion wave (one bend deeper).  The
    // bend occupies the whole point, so both orientations must be free.
    if (grid.cell(p).can_turn(net)) {
      for (geom::Dir nd : geom::kAllDirs) {
        if (geom::is_horizontal(nd) == geom::is_horizontal(d)) continue;
        relax(kBend, state_of(p, nd), e.state, e.key + delta[kBend]);
      }
    }
  }

  if (ws->best(goal_state) == SearchWorkspace::kUnvisited) return std::nullopt;

  // Trace back the state chain, recounting its cost (the key holds only
  // what the mode orders by): a state on the same point as its parent is a
  // turn, any other is a straight step.  The goal adds the final step.
  PathCost cost{0, 0, 1};
  std::vector<geom::Point> chain;
  for (int s = ws->parent(goal_state); s != -1; s = ws->parent(s)) {
    const geom::Point p = point_of(s);
    chain.push_back(p);
    const int from = ws->parent(s);
    if (from == -1) break;  // a start state
    if (from / 4 == s / 4) {
      ++cost.bends;
    } else {
      ++cost.length;
      cost.crossings += grid.crosses_at(p, net, geom::is_horizontal(dir_of(s))) ? 1 : 0;
    }
  }
  std::reverse(chain.begin(), chain.end());
  chain.push_back(prob.target ? prob.target->p
                              : point_of(ws->parent(goal_state)) +
                                    geom::delta(dir_of(ws->parent(goal_state))));
  std::vector<geom::Point> path;
  for (const geom::Point& p : chain) {
    if (!path.empty() && path.back() == p) continue;  // turn-in-place states
    if (path.size() >= 2) {
      const geom::Point& a = path[path.size() - 2];
      const geom::Point& b = path.back();
      const bool collinear = (a.x == b.x && b.x == p.x) || (a.y == b.y && b.y == p.y);
      if (collinear) {
        path.back() = p;
        continue;
      }
    }
    path.push_back(p);
  }

  SearchResult result;
  result.path = std::move(path);
  result.cost = cost;
  result.expansions = expansions;
  return result;
}

}  // namespace detail

std::optional<SearchResult> line_expansion_search(const RoutingGrid& grid,
                                                  const SearchProblem& prob) {
  const auto mode = prob.order == CostOrder::BendsLengthCrossings
                        ? detail::CostMode::BendsLengthCrossings
                        : detail::CostMode::BendsCrossingsLength;
  return detail::grid_search(grid, prob, mode);
}

std::optional<SearchResult> straight_line(const RoutingGrid& grid, NetId net,
                                          const SearchStart& a, const SearchTarget& b) {
  const geom::Point pa = a.p;
  const geom::Point pb = b.p;
  if (pa.x != pb.x && pa.y != pb.y) return std::nullopt;
  if (pa == pb) return std::nullopt;
  const geom::Dir d = pa.x == pb.x ? (pb.y > pa.y ? geom::Dir::Up : geom::Dir::Down)
                                   : (pb.x > pa.x ? geom::Dir::Right : geom::Dir::Left);
  // Side compatibility (paper STRAIGHT_LINE): the start must exit toward the
  // destination and the destination must accept entry from that direction.
  if (a.dir && *a.dir != d) return std::nullopt;
  // `facing` is the destination's outward side; entry runs against it.
  if (b.facing && *b.facing != geom::opposite(d)) return std::nullopt;
  const bool horiz = geom::is_horizontal(d);
  int crossings = 0;
  for (geom::Point p = pa + geom::delta(d); p != pb; p += geom::delta(d)) {
    if (!grid.passable(p, net, horiz) || grid.occupied_by(p, net)) {
      return std::nullopt;
    }
    crossings += grid.crosses_at(p, net, horiz) ? 1 : 0;
  }
  if (!grid.enterable(pb, net) || !grid.node_free(pb, net)) return std::nullopt;
  SearchResult r;
  r.path = {pa, pb};
  r.cost = {0, crossings, manhattan(pa, pb)};
  r.expansions = 0;
  return r;
}

}  // namespace na
