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
//
// With a SearchBound the search prunes: a state whose key plus an
// admissible lower bound on its remaining cost exceeds a proven upper bound
// can lie on no optimal path, so it is neither pushed nor expanded.  The
// surviving states keep their (key, seq) order, so the path is unchanged.
// A long fixed-target search tightens that lower bound mid-way with a
// min-link field (route/min_link.hpp).  The bound search runs the same
// loop best-first, in (key + lower bound, seq) order, and only reports the
// optimal cost, which the driver passes on as the upper bound.
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

/// Key increments per lane.  Keys are 54 bits (StateTable keeps a move
/// and a stamp above them): bends in bits 40-53, then two 20-bit fields
/// (grids here are far smaller than 2^20 tracks), most significant first.
/// A key that would reach bit 54 (16384 bends) throws when recorded.  Lee
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

/// The lower bound h(p, d) of bound pruning: the bends still required at
/// the bend delta, plus the distance to the goal region at the straight-step
/// delta (the cheapest step of every mode).  The bends come from a table
/// indexed by the signs of the offset to the goal region, and once a
/// min-link field is attached, from the larger of the table and the field.
class LowerBound {
 public:
  LowerBound(geom::Rect goal, const BendTable& bends, std::uint64_t bend_delta,
             std::uint64_t step_delta)
      : goal_(goal), step_(step_delta), bend_(bend_delta) {
    for (size_t i = 0; i < bends.size(); ++i) bend_cost_[i] = bends[i] * bend_delta;
  }

  /// From now on the bends are at least the field's.
  void use_field(const MinLinkField& field) { field_ = &field; }

  /// `state` is (p, d)'s state index; the field is indexed by its cell.
  std::uint64_t operator()(geom::Point p, geom::Dir d, int state) const {
    const int sx = (p.x < goal_.lo.x) - (p.x > goal_.hi.x);
    const int sy = (p.y < goal_.lo.y) - (p.y > goal_.hi.y);
    const int dist = std::max({goal_.lo.x - p.x, p.x - goal_.hi.x, 0}) +
                     std::max({goal_.lo.y - p.y, p.y - goal_.hi.y, 0});
    std::uint64_t bends = bend_cost_[bend_index(d, sx, sy)];
    if (field_) {
      bends = std::max(bends, static_cast<std::uint64_t>(field_->bends(state >> 2, d)) * bend_);
    }
    return bends + static_cast<std::uint64_t>(dist) * step_;
  }

 private:
  geom::Rect goal_;
  std::array<std::uint64_t, std::tuple_size_v<BendTable>> bend_cost_{};
  std::uint64_t step_;
  std::uint64_t bend_;
  const MinLinkField* field_ = nullptr;
};

/// A search's states, indexed over the points a step may land on: the
/// window's part of the plane, so a windowed search's tables are
/// window-sized.
struct StateIndex {
  geom::Rect reach;
  int w;

  int state(geom::Point p, geom::Dir d) const {
    return ((p.y - reach.lo.y) * w + (p.x - reach.lo.x)) * 4 + static_cast<int>(d);
  }
  geom::Point point(int state) const {
    const int cell = state / 4;
    return {reach.lo.x + cell % w, reach.lo.y + cell / w};
  }
  static geom::Dir dir(int state) { return static_cast<geom::Dir>(state % 4); }
};

StateIndex state_index(const RoutingGrid& grid, const SearchProblem& prob) {
  const geom::Rect win = prob.window ? *prob.window : grid.area();
  const geom::Rect reach = win.intersect(grid.area());
  return {reach, reach.width() + 1};
}

/// The goal a search reached: its key, and the state the final step left.
struct Goal {
  std::uint64_t key;
  int parent;
};

/// Plane cells per expansion of the min-link field's build cost: a search
/// builds the field after cells / kFieldCellsPerExpansion expansions
/// (DESIGN §1 gives the sweep behind it).
constexpr long long kFieldCellsPerExpansion = 32;

static_assert(
    [] {
      for (geom::Dir d : geom::kAllDirs) {
        for (int flip : {2, 3}) {
          const auto q = static_cast<geom::Dir>(static_cast<int>(d) ^ flip);
          if (geom::is_horizontal(q) == geom::is_horizontal(d)) return false;
        }
      }
      return true;
    }(),
    "the perpendiculars of heading d are d ^ 2 and d ^ 3");

/// The move that turns heading `from` into the perpendicular `to` at one
/// point (see Move: the perpendiculars of `to` are `to ^ 2` and `to ^ 3`),
/// and back: the heading a turn move into `to` came from.
Move turn_from(geom::Dir from, geom::Dir to) {
  return static_cast<Move>((static_cast<int>(from) ^ static_cast<int>(to)) - 1);
}
geom::Dir turn_origin(geom::Dir to, Move turn) {
  return static_cast<geom::Dir>(static_cast<int>(to) ^ (static_cast<int>(turn) + 1));
}

}  // namespace

std::uint64_t pack_cost(const PathCost& c, CostMode mode) {
  const auto f = [](int v) { return static_cast<std::uint64_t>(v); };
  switch (mode) {
    case CostMode::BendsCrossingsLength:
      return f(c.bends) << 40 | f(c.crossings) << 20 | f(c.length);
    case CostMode::BendsLengthCrossings:
      return f(c.bends) << 40 | f(c.length) << 20 | f(c.crossings);
    case CostMode::LengthOnly:
      return f(c.length);
  }
  return 0;
}

BendTable bend_lower_bounds(std::optional<geom::Dir> entry) {
  BendTable table{};
  for (geom::Dir d : geom::kAllDirs) {
    const geom::Point ahead = geom::delta(d);
    for (int sx = -1; sx <= 1; ++sx) {
      for (int sy = -1; sy <= 1; ++sy) {
        const int along = sx * ahead.x + sy * ahead.y;
        const int across = geom::is_horizontal(d) ? sy : sx;
        // Straight ahead: none; ahead or level but off the line: one;
        // behind: two.
        int bends = along < 0 ? 2 : across != 0 ? 1 : 0;
        if (entry) {
          // Every bend switches axis, so the entry heading fixes the
          // parity; reversing onto it takes two.
          if (geom::is_horizontal(*entry) == geom::is_horizontal(d)) {
            bends += bends % 2;
            if (d != *entry) bends = std::max(bends, 2);
          } else {
            bends += 1 - bends % 2;
          }
        }
        table[bend_index(d, sx, sy)] = static_cast<std::uint8_t>(bends);
      }
    }
  }
  return table;
}

namespace {

/// The search loop of grid_search (kBestFirst false: canonical (key, seq)
/// order) and bound_search (best-first, (key + h, seq) order).
template <bool kBestFirst>
std::optional<Goal> run_search(const RoutingGrid& grid, const SearchProblem& prob,
                               CostMode mode, SearchWorkspace& ws,
                               ObservedMask* observed, const SearchBound* bound,
                               SearchStats& stats) {
  const bool windowed = prob.window.has_value();
  const geom::Rect win = windowed ? *prob.window : grid.area();
  const StateIndex index = state_index(grid, prob);
  const geom::Rect reach = index.reach;
  const int ncells = index.w * (reach.height() + 1);
  const int nstates = ncells * 4;
  // The virtual goal lives outside the table: its key, and the state the
  // final step leaves from.
  const int goal_state = nstates;
  std::uint64_t goal_key = StateTable::kUnvisited;
  int goal_parent = -1;
  // Canonical keys pop in non-decreasing order and a relax must lower a
  // state's key, so each state is pushed at most once as a start and
  // expanded at most once, pushing at most three entries: at most 16
  // pushes per cell, which keeps the 32-bit push sequence number from
  // wrapping.  (The bound search may re-open a state; its sequence
  // numbers only break ties among equal keys, which no caller sees.)
  if (static_cast<std::uint64_t>(ncells) > std::numeric_limits<std::uint32_t>::max() / 16) {
    throw std::length_error("routing plane too large for the search core");
  }

  StateTable& table = ws.begin(nstates, windowed);
  const StateTable::View visited = table.view();
  OpenSet& open = ws.open();
  BestFirstQueue& heap = ws.heap();
  const std::array<std::uint64_t, OpenSet::kLanes> delta = lane_deltas(mode);

  const NetId net = prob.net;
  const bool has_target = prob.target.has_value();
  const geom::Point target = has_target ? prob.target->p : geom::Point{};
  // The heading a step must have to enter the target (nullopt: any).
  const std::optional<geom::Dir> entry =
      has_target && prob.target->facing ? std::optional(geom::opposite(*prob.target->facing))
                                        : std::nullopt;
  const int target_entry = entry ? static_cast<int>(*entry) : -1;

  // Bound pruning.  `upper` stays kNoBound without a SearchBound, and
  // until a bound exists each push and pop pays one predictable branch.
  std::uint64_t upper = bound ? bound->key : kNoBound;
  LowerBound lower = [&] {
    if (!prob.join_own_net) {
      return LowerBound({target, target}, bend_lower_bounds(entry), delta[kBend],
                        delta[kStraight]);
    }
    // A join may end on any own-net cell, or on the target if there is one.
    geom::Rect goal = bound && bound->join_hull ? *bound->join_hull : grid.area();
    if (has_target) goal = goal.hull(target);
    return LowerBound(goal, BendTable{}, 0, delta[kStraight]);
  }();
  // The expansion count at which the bound became finite (-1: not yet).
  long bounded_at = upper == kNoBound ? -1 : 0;
  // The min-link field: fixed-target full-plane canonical searches with a
  // bend cost build it once the bound is finite and the search has spent
  // about a build's cost in expansions (ski rental).
  constexpr long kNever = std::numeric_limits<long>::max();
  long field_at = kNever;
  if (!kBestFirst && bound && has_target && !prob.join_own_net && !windowed &&
      delta[kBend] != 0) {
    field_at = static_cast<long>(ncells / kFieldCellsPerExpansion);
  }

  // Forced inline: with the bound test GCC otherwise outlines the relax,
  // and every push then reloads the search state through the closure
  // (about a third slower per expansion, even with pruning off).
  auto relax = [&](int lane, geom::Point q, geom::Dir d, Move move, std::uint64_t key)
                   __attribute__((always_inline)) {
    const int state = index.state(q, d);
    if constexpr (kBestFirst) {
      if (key >= visited.best(state)) return;
      const std::uint64_t f = key + lower(q, d, state);
      if (f > upper) return;
      visited.record(state, key, move);
      heap.push(f, state);
    } else if (key < visited.best(state) &&
               (upper == kNoBound || key + lower(q, d, state) <= upper)) {
      visited.record(state, key, move);
      open.push(lane, key, state);
    }
  };
  auto finish = [&](long expansions) {
    stats.expansions = expansions;
    stats.bound_expansions = bounded_at < 0 ? 0 : expansions - bounded_at;
  };

  for (const SearchStart& s : prob.starts) {
    if (windowed && !win.contains(s.p)) continue;
    if (observed) observed->mark(s.p);
    // The start point becomes a node of this net as well.
    if (!grid.in_bounds(s.p) || !grid.node_free(s.p, prob.net)) continue;
    for (geom::Dir d : geom::kAllDirs) {
      if (!s.dir || *s.dir == d) relax(kStraight, s.p, d, Move::Start, 0);
    }
  }

  long expansions = 0;
  OpenEntry e;
  while (kBestFirst ? heap.pop(e) : open.pop(e)) {
    if (e.state == goal_state) {
      if (e.key == goal_key) break;
      continue;  // stale
    }
    geom::Point p;
    geom::Dir d;
    if constexpr (kBestFirst) {
      // An entry's key is its state's key plus h: stale once the state's
      // key dropped.
      p = index.point(e.state);
      d = StateIndex::dir(e.state);
      if (e.key != visited.best(e.state) + lower(p, d, e.state)) continue;
      if (e.key > upper) continue;  // pushed before the bound dropped below it
    } else {
      if (e.key != visited.best(e.state)) continue;  // stale
      p = index.point(e.state);
      d = StateIndex::dir(e.state);
      // Pushed before the bound dropped below it (or before the field).
      if (upper != kNoBound && e.key + lower(p, d, e.state) > upper) continue;
    }
    if (++expansions > prob.max_expansions) {
      finish(expansions - 1);
      return std::nullopt;
    }
    if (expansions >= field_at && upper != kNoBound) [[unlikely]] {
      // Levels past the bound's bends cannot tighten a prune.
      MinLinkField& field = ws.field();
      field.build(grid, target, entry, static_cast<int>(upper / delta[kBend]));
      lower.use_field(field);
      field_at = kNever;
      ++stats.field_builds;
    }
    if (observed) observed->mark(p);
    const std::uint64_t key = kBestFirst ? visited.best(e.state) : e.key;

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
        const std::uint64_t goal = key + delta[kStraight];
        if (goal < goal_key && goal <= upper) {
          goal_key = goal;
          goal_parent = e.state;
          if constexpr (kBestFirst) {
            heap.push(goal, goal_state);
          } else {
            open.push(kStraight, goal, goal_state);
          }
          if (kBestFirst || bound) {
            if (bounded_at < 0) bounded_at = expansions;
            upper = goal;
          }
        }
      } else if (c.passable(net, horiz) && !c.occupied_by(net)) {
        const int lane = c.crosses(net, horiz) ? kCrossing : kStraight;
        relax(lane, q, d, Move::Step, key + delta[lane]);
      }
    }
    // Turns: start a perpendicular expansion wave (one bend deeper).  The
    // bend occupies the whole point, so both orientations must be free.
    if (grid.cell(p).can_turn(net)) {
      for (geom::Dir nd : geom::kAllDirs) {
        if (geom::is_horizontal(nd) == geom::is_horizontal(d)) continue;
        relax(kBend, p, nd, turn_from(d, nd), key + delta[kBend]);
      }
    }
  }
  finish(expansions);
  if (goal_key == StateTable::kUnvisited) return std::nullopt;
  return Goal{goal_key, goal_parent};
}

void check_problem(const SearchProblem& prob) {
  if (!prob.target && !prob.join_own_net) {
    throw std::invalid_argument("search problem without destination");
  }
}

}  // namespace

std::optional<std::uint64_t> bound_search(const RoutingGrid& grid,
                                          const SearchProblem& prob, CostMode mode,
                                          SearchWorkspace& ws, ObservedMask* observed,
                                          const SearchBound* bound, SearchStats* stats) {
  SearchStats local_stats;
  if (!stats) stats = &local_stats;
  *stats = {};
  if (prob.starts.empty()) return std::nullopt;
  check_problem(prob);
  const auto goal = run_search<true>(grid, prob, mode, ws, observed, bound, *stats);
  if (!goal) return std::nullopt;
  return goal->key;
}

std::optional<SearchResult> grid_search(const RoutingGrid& grid,
                                        const SearchProblem& prob, CostMode mode,
                                        SearchWorkspace* ws, ObservedMask* observed,
                                        const SearchBound* bound, SearchStats* stats) {
  SearchStats local_stats;
  if (!stats) stats = &local_stats;
  *stats = {};
  if (prob.starts.empty()) return std::nullopt;
  check_problem(prob);
  SearchWorkspace local;
  if (!ws) ws = &local;
  const auto goal = run_search<false>(grid, prob, mode, *ws, observed, bound, *stats);
  if (!goal) return std::nullopt;
  const StateIndex index = state_index(grid, prob);
  const StateTable& table = ws->table(prob.window.has_value());
  const NetId net = prob.net;
  const int goal_parent = goal->parent;

  // Trace back the state chain, recounting its cost (the key holds only
  // what the mode orders by): each state's move names its parent and says
  // whether it cost a bend or a step.  The goal adds the final step.
  PathCost cost{0, 0, 1};
  std::vector<geom::Point> chain;
  for (int s = goal_parent;;) {
    const geom::Point p = index.point(s);
    const geom::Dir d = StateIndex::dir(s);
    chain.push_back(p);
    const Move move = table.move(s);
    if (move == Move::Start) break;
    if (move == Move::Step) {
      ++cost.length;
      cost.crossings += grid.crosses_at(p, net, geom::is_horizontal(d)) ? 1 : 0;
      s = index.state(p - geom::delta(d), d);
    } else {
      ++cost.bends;
      s = index.state(p, turn_origin(d, move));
    }
  }
  std::reverse(chain.begin(), chain.end());
  chain.push_back(prob.target ? prob.target->p
                              : index.point(goal_parent) + geom::delta(StateIndex::dir(goal_parent)));
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
  result.expansions = stats->expansions;
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
