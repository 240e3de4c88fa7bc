// Per-net routing, factored out of the route_all driver so the sequential
// and the speculative parallel drivers share one implementation.
//
// route_single_net reproduces the paper's per-net procedure exactly
// (initiation by nearest terminal pairs, then one expansion per remaining
// terminal toward the grown net) but against *any* RoutingGrid — the live
// one for the sequential driver and the committer's re-routes, a private
// clone for the speculative workers.  It occupies its own paths on that
// grid as it goes and never touches the Diagram; committing the polylines
// to the diagram (and the claimpoint bookkeeping around the call) stays
// with the drivers.
//
// DriverSetup is the state both drivers build before routing: the routing
// plane, the pending-terminal lists, and the claimpoint table of paper
// section 5.7.
#pragma once

#include <cstdint>
#include <vector>

#include "route/router.hpp"
#include "route/search_workspace.hpp"

namespace na::detail {

/// One cell-level grid mutation a net's commit performed.  The committer
/// journals these so speculative workers can replay commits onto their
/// private grids, and so commit-time validation knows which cells changed.
struct CellOp {
  enum Kind : std::uint8_t { kSetH, kSetV, kSetClaim, kClearClaim };
  geom::Point p;
  Kind kind;
  NetId net;
};

void apply_ops(RoutingGrid& grid, const std::vector<CellOp>& ops);

/// Exactness check of the speculative drivers: true iff no commit in
/// journal[from..to) touched a cell the speculation's searches read.  A
/// speculation routed after replaying journal[0..e) must be validated
/// over [e, p) before committing at position p; a re-speculation may have
/// had a prefix validated incrementally, in which case `from` is the
/// position it was already cleared against — it must never exceed the
/// entries actually checked, or a stale path could be committed.
bool speculation_exact(const ObservedMask& observed,
                       const std::vector<std::vector<CellOp>>& journal,
                       int from, int to);

/// What routing one net produced: the connections committed to the grid
/// (in order — their paths become the diagram polylines) and the terminals
/// still unconnected.
struct NetTaskResult {
  std::vector<SearchResult> connections;
  std::vector<TermId> failed;
  /// States expanded by bound pruning's windowed pre-searches (the bound
  /// searches); each connection's `expansions` already includes its own
  /// share.
  long long pre_expansions = 0;
  /// States the grid searches expanded under a finite upper bound (the
  /// optimality proofs), and the min-link fields they built.
  long long bound_expansions = 0;
  int field_builds = 0;
};

/// Routes as much of net `n` as possible on `grid`, starting from the
/// `todo` terminals.  Occupies every found path on `grid` (journalling the
/// slot writes into `occupancy` when given, so a speculative worker can
/// undo them); marks every examined cell into `observed` when given.
NetTaskResult route_single_net(RoutingGrid& grid, const Diagram& dia, NetId n,
                               std::vector<TermId> todo, const RouterOptions& opt,
                               bool has_geometry, SearchWorkspace& ws,
                               ObservedMask* observed = nullptr,
                               std::vector<RoutingGrid::TrackWrite>* occupancy = nullptr);

/// Driver state shared by the sequential and parallel route_all.
struct DriverSetup {
  RoutingGrid grid;  ///< the live routing plane
  std::vector<std::vector<TermId>> pending;  ///< per net, terminals to connect
  std::vector<bool> has_geometry;
  /// The claimpoint table: cells and owners, kNone once released.
  std::vector<std::pair<geom::Point, NetId>> claims;
  /// Per net, the positions of its live entries in `claims`, ascending.
  /// Only add_claim, release_claims and clear_claims change the table.
  std::vector<std::vector<int>> claim_pos;
  /// Work counters summed over the committed nets (commit_connections).
  long long pre_expansions = 0;
  long long bound_expansions = 0;
  long long field_builds = 0;

  explicit DriverSetup(RoutingGrid g) : grid(std::move(g)) {}

  /// Appends a claim of net `n` at `cell` to the table (the grid is the
  /// caller's business).
  void add_claim(geom::Point cell, NetId n);
  /// Calls `f(position)` for net `n`'s live entries in `claims`, ascending.
  template <class F>
  void for_each_claim(NetId n, F f) const {
    if (n < 0 || static_cast<size_t>(n) >= claim_pos.size()) return;
    for (int i : claim_pos[n]) f(i);
  }
  /// Releases net `n`'s remaining claimpoints (done when its routing
  /// starts) in table order; journals the clears when `ops` is given.
  void release_claims(NetId n, std::vector<CellOp>* ops = nullptr);
  /// Re-claims the escape track of a terminal that stayed unconnected.
  void restore_claim(const Diagram& dia, const RouterOptions& opt, TermId t,
                     NetId n, std::vector<CellOp>* ops = nullptr);
  /// Clears every live claim from the grid and empties the table.
  void clear_claims();

  /// Puts the work counters on a driver's pass span.
  template <class Span>
  void trace_work(Span& span) const {
    span.arg("pre_expansions", pre_expansions);
    span.arg("bound_expansions", bound_expansions);
    span.arg("field_builds", field_builds);
  }
};

/// Builds the routing plane, the pending lists and the claimpoint table
/// for a placed diagram (the common preamble of both drivers).
DriverSetup prepare_driver(const Diagram& dia, const RouterOptions& opt);

/// Net processing order: the configured criterion with the route_first
/// overrides applied.
std::vector<NetId> ordered_nets(const Diagram& dia, const RouterOptions& opt);

/// Adds a net-task result to the diagram and the report (the grid was
/// already updated by route_single_net).
void commit_connections(Diagram& dia, NetId n, NetTaskResult& res,
                        DriverSetup& setup, RouteReport& report);

/// The section-5.7 retry pass: all remaining claims released, failed nets
/// re-tried in order.  Runs on the live grid (sequentially in both
/// drivers; the retry set is small by construction).
void retry_pass(Diagram& dia, const RouterOptions& opt, DriverSetup& setup,
                const std::vector<NetId>& order, RouteReport& report,
                SearchWorkspace& ws);

/// Final per-net accounting into the report.
void finish_report(Diagram& dia, DriverSetup& setup, RouteReport& report);

}  // namespace na::detail
