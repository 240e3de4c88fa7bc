// Internal shared search core for the grid routers.
//
// Both the line-expansion router (lexicographic bends/crossings/length) and
// the Lee baseline (pure length) are instances of a priority-first wavefront
// over states (grid point, heading), popped in (cost key, push order).  The
// line-expansion principle of paper section 5.5.2 appears here as the cost
// structure: straight moves extend the current escape line for free (in
// bends), a turn starts a new expansion wave one bend deeper — so the
// search visits the plane zone by zone in exactly the wave order of the
// paper, and the guaranteed-solution property (5.5.4) holds because every
// reachable state is eventually expanded.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "route/router.hpp"
#include "route/search_workspace.hpp"

namespace na::detail {

/// Cost key composition for the search order (line_expansion.cpp).
enum class CostMode {
  BendsCrossingsLength,
  BendsLengthCrossings,
  LengthOnly,  ///< Lee
};

/// The packed cost key of a path in `mode`: the key its goal state pops at.
std::uint64_t pack_cost(const PathCost& c, CostMode mode);

/// "No upper bound yet": bound pruning starts once the goal is pushed.
inline constexpr std::uint64_t kNoBound = std::numeric_limits<std::uint64_t>::max();

/// Bound pruning of one search (DESIGN §1 "Bound pruning").  Any state
/// whose key plus an admissible lower bound on its remaining cost exceeds
/// the upper bound is skipped; the bound drops to the goal's key as soon as
/// the goal is pushed.  The path found and its cost are those of the
/// unpruned search; only the expansion count shrinks.
struct SearchBound {
  /// Packed cost no smaller than the optimum (a path's pack_cost), or none.
  std::uint64_t key = kNoBound;
  /// Join problems: a rectangle holding every cell a join may end on; the
  /// lower bound then measures the distance to it.  Without it, a join's
  /// remaining cost is bounded by 0.
  std::optional<geom::Rect> join_hull;
};

/// Work counters of one search.
struct SearchStats {
  long expansions = 0;        ///< states expanded, also when the search fails
  long bound_expansions = 0;  ///< of those, expanded under a finite bound
  int field_builds = 0;       ///< min-link fields built (0 or 1)
};

/// Lower bounds on the bends still needed from a state heading `d` to a
/// target whose offset from the state's point has signs (sx, sy), entering
/// it with heading `entry` (nullopt: any heading).  Indexed by bend_index.
using BendTable = std::array<std::uint8_t, 36>;
BendTable bend_lower_bounds(std::optional<geom::Dir> entry);
constexpr int bend_index(geom::Dir d, int sx, int sy) {
  return static_cast<int>(d) * 9 + (sx + 1) * 3 + (sy + 1);
}

/// Runs the search; returns std::nullopt when no path exists (or the
/// expansion budget is exhausted).  With a workspace the search reuses its
/// scratch arrays instead of allocating per call (identical results either
/// way); with an observation mask it records every examined cell for the
/// speculative parallel driver's commit-time validation.  With `bound` the
/// search prunes (same result, fewer expansions).  `stats`, when given,
/// receives the search's work counters.
std::optional<SearchResult> grid_search(const RoutingGrid& grid,
                                        const SearchProblem& prob, CostMode mode,
                                        SearchWorkspace* ws = nullptr,
                                        ObservedMask* observed = nullptr,
                                        const SearchBound* bound = nullptr,
                                        SearchStats* stats = nullptr);

/// The bound search: the same problem searched best-first, popping states
/// in (key + h, push order) with h the lower bound of bound pruning.  It
/// returns only the packed cost of the path it finds: with an admissible
/// h that is the optimum, so any caller may use it as an upper bound.
/// Never builds a min-link field (`bound` supplies only the join hull).
std::optional<std::uint64_t> bound_search(const RoutingGrid& grid,
                                          const SearchProblem& prob, CostMode mode,
                                          SearchWorkspace& ws,
                                          ObservedMask* observed = nullptr,
                                          const SearchBound* bound = nullptr,
                                          SearchStats* stats = nullptr);

}  // namespace na::detail
