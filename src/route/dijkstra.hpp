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

#include <cstdint>

#include "route/router.hpp"
#include "route/search_workspace.hpp"

namespace na::detail {

/// Cost key composition for the search order (line_expansion.cpp).
enum class CostMode {
  BendsCrossingsLength,
  BendsLengthCrossings,
  LengthOnly,  ///< Lee
};

/// Runs the search; returns std::nullopt when no path exists (or the
/// expansion budget is exhausted).  With a workspace the search reuses its
/// scratch arrays instead of allocating per call (identical results either
/// way); with an observation mask it records every examined cell for the
/// speculative parallel driver's commit-time validation.
std::optional<SearchResult> grid_search(const RoutingGrid& grid,
                                        const SearchProblem& prob, CostMode mode,
                                        SearchWorkspace* ws = nullptr,
                                        ObservedMask* observed = nullptr);

}  // namespace na::detail
