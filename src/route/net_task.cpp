#include "route/net_task.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"
#include "route/dijkstra.hpp"
#include "route/net_order.hpp"

namespace na::detail {
namespace {

SearchStart start_for(const Diagram& dia, TermId t) {
  const Terminal& term = dia.network().term(t);
  if (term.is_system()) return {dia.term_pos(t), std::nullopt};
  return {dia.term_pos(t), dia.term_facing(t)};
}

SearchTarget target_for(const Diagram& dia, TermId t) {
  const Terminal& term = dia.network().term(t);
  if (term.is_system()) return {dia.term_pos(t), std::nullopt};
  return {dia.term_pos(t), dia.term_facing(t)};
}

/// All unordered terminal pairs of a net, nearest first (the initiation
/// tries pairs until one connects — "another pair of points has to be
/// selected").  The manhattan keys are computed once per pair, not inside
/// the sort comparator.
struct ScoredPair {
  TermId a, b;
  int key;
};

std::vector<ScoredPair> pairs_by_distance(const Diagram& dia,
                                          const std::vector<TermId>& terms) {
  std::vector<geom::Point> pos(terms.size());
  for (size_t i = 0; i < terms.size(); ++i) pos[i] = dia.term_pos(terms[i]);
  std::vector<ScoredPair> pairs;
  pairs.reserve(terms.size() * (terms.size() - 1) / 2);
  for (size_t i = 0; i < terms.size(); ++i) {
    for (size_t j = i + 1; j < terms.size(); ++j) {
      pairs.push_back({terms[i], terms[j], manhattan(pos[i], pos[j])});
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const ScoredPair& a, const ScoredPair& b) {
                     return a.key < b.key;
                   });
  return pairs;
}

/// The search-core cost mode of an engine, or none for the baselines.
std::optional<CostMode> grid_mode(Engine e, CostOrder order) {
  switch (e) {
    case Engine::LineExpansion:
      return order == CostOrder::BendsLengthCrossings ? CostMode::BendsLengthCrossings
                                                      : CostMode::BendsCrossingsLength;
    case Engine::Lee:
      return CostMode::LengthOnly;
    default:
      return std::nullopt;
  }
}

}  // namespace

void apply_ops(RoutingGrid& grid, const std::vector<CellOp>& ops) {
  for (const CellOp& op : ops) {
    switch (op.kind) {
      case CellOp::kSetH: grid.set_track(op.p, true, op.net); break;
      case CellOp::kSetV: grid.set_track(op.p, false, op.net); break;
      case CellOp::kSetClaim: grid.set_claim(op.p, op.net); break;
      case CellOp::kClearClaim: grid.clear_claim(op.p); break;
    }
  }
}

bool speculation_exact(const ObservedMask& observed,
                       const std::vector<std::vector<CellOp>>& journal,
                       int from, int to) {
  for (int i = from; i < to; ++i) {
    for (const CellOp& op : journal[i]) {
      if (observed.covers(op.p)) return false;
    }
  }
  return true;
}

namespace {

/// Bound pruning's pre-search: the window is the focus hull inflated by
/// this many tracks, and runs only when it covers at most a quarter of the
/// plane (DESIGN §1 gives the sweep behind both).
constexpr int kPreSearchSlack = 12;

long long cells(geom::Rect r) {
  return r.empty() ? 0 : static_cast<long long>(r.width() + 1) * (r.height() + 1);
}

NetTaskResult route_single_net_impl(RoutingGrid& grid, const Diagram& dia, NetId n,
                                    std::vector<TermId> todo, const RouterOptions& opt,
                                    bool has_geometry, SearchWorkspace& ws,
                                    ObservedMask* observed,
                                    std::vector<RoutingGrid::TrackWrite>* occupancy) {
  NetTaskResult out;
  if (todo.empty()) return out;

  // Windows and bound pruning only exist in the grid-search engines; the
  // baselines allocate internally and cannot be observed, so the parallel
  // driver never runs them speculatively.
  const std::optional<CostMode> mode = grid_mode(opt.engine, opt.order);
  const bool windowable = opt.window_slack >= 0 && mode;

  // Running hull of the net's geometry (polyline corners bound the cells).
  geom::Rect net_bbox;
  for (const auto& pl : dia.route(n).polylines) {
    for (geom::Point p : pl) net_bbox = net_bbox.hull(p);
  }

  auto commit = [&](SearchResult res) {
    grid.occupy_polyline(n, res.path, occupancy);
    for (geom::Point p : res.path) net_bbox = net_bbox.hull(p);
    out.connections.push_back(std::move(res));
    has_geometry = true;
  };

  // Windowed search with full-plane fallback (identical results whenever
  // the windowed attempt fails; a windowed success may be a window-local
  // optimum, which is why the knob defaults to off).  Without the knob,
  // every grid search is bound-pruned (DESIGN §1): a best-first bound
  // search inside a window around the focus, when the window is small
  // next to the plane, supplies the upper bound for the exact full-plane
  // search.
  auto engine_search = [&](SearchProblem& prob,
                           geom::Rect focus) -> std::optional<SearchResult> {
    if (!mode) return find_path(opt.engine, grid, prob);
    SearchBound bound;
    if (prob.join_own_net) bound.join_hull = net_bbox;
    auto search = [&] {
      SearchStats stats;
      auto r = grid_search(grid, prob, *mode, &ws, observed, &bound, &stats);
      out.bound_expansions += stats.bound_expansions;
      out.field_builds += stats.field_builds;
      return r;
    };
    if (windowable) {
      const geom::Rect win = focus.expanded(opt.window_slack);
      if (!win.contains(grid.area())) {
        prob.window = win;
        auto r = search();
        prob.window.reset();
        if (r) return r;
      }
      return search();
    }
    const geom::Rect pre_win = focus.expanded(kPreSearchSlack).intersect(grid.area());
    long pre = 0;
    if (4 * cells(pre_win) <= cells(grid.area())) {
      prob.window = pre_win;
      SearchStats stats;
      if (auto key = bound_search(grid, prob, *mode, ws, observed, &bound, &stats)) {
        bound.key = *key;
      }
      prob.window.reset();
      pre = stats.expansions;
      out.pre_expansions += pre;
    }
    auto r = search();
    if (r) r->expansions += pre;
    return r;
  };

  // ----- initiation: first point-to-point connection --------------------
  if (!has_geometry) {
    if (todo.size() < 2) {  // nothing to connect against
      out.failed = std::move(todo);
      return out;
    }
    constexpr size_t kMaxPairTries = 8;
    size_t tries = 0;
    for (const ScoredPair& pair : pairs_by_distance(dia, todo)) {
      if (++tries > kMaxPairTries) break;
      SearchProblem prob;
      prob.net = n;
      prob.starts = {start_for(dia, pair.a)};
      prob.target = target_for(dia, pair.b);
      prob.order = opt.order;
      prob.max_expansions = opt.max_expansions;
      // Straight-line fast path (paper STRAIGHT_LINE) for fixed destinations.
      const geom::Point pa = prob.starts[0].p;
      const geom::Point pb = prob.target->p;
      std::optional<SearchResult> res;
      if (pa != pb && (pa.x == pb.x || pa.y == pb.y)) {
        if (observed) observed->mark_segment(pa, pb);
        res = straight_line(grid, n, prob.starts[0], *prob.target);
      }
      if (!res) res = engine_search(prob, geom::Rect{pa, pa}.hull(pb));
      if (res) {
        commit(std::move(*res));
        std::erase(todo, pair.a);
        std::erase(todo, pair.b);
        break;
      }
    }
    if (!has_geometry) {  // initiation impossible for now
      out.failed = std::move(todo);
      return out;
    }
  }

  // ----- expansion: attach remaining terminals one at a time ------------
  // Nearest-to-the-net terminal first.  Each terminal's distance to the
  // net's polyline corners is seeded once and refreshed only against newly
  // committed paths, instead of being recomputed over the whole geometry
  // inside a min_element comparator.
  std::vector<int> dist(todo.size(), std::numeric_limits<int>::max());
  for (const auto& pl : dia.route(n).polylines) {
    for (geom::Point p : pl) {
      for (size_t i = 0; i < todo.size(); ++i) {
        dist[i] = std::min(dist[i], manhattan(p, dia.term_pos(todo[i])));
      }
    }
  }
  for (const SearchResult& c : out.connections) {
    for (geom::Point p : c.path) {
      for (size_t i = 0; i < todo.size(); ++i) {
        dist[i] = std::min(dist[i], manhattan(p, dia.term_pos(todo[i])));
      }
    }
  }
  while (!todo.empty()) {
    size_t nearest = 0;
    for (size_t i = 1; i < todo.size(); ++i) {
      if (dist[i] < dist[nearest]) nearest = i;
    }
    const TermId t = todo[nearest];
    todo.erase(todo.begin() + nearest);
    dist.erase(dist.begin() + nearest);
    SearchProblem prob;
    prob.net = n;
    prob.starts = {start_for(dia, t)};
    prob.join_own_net = true;
    prob.order = opt.order;
    prob.max_expansions = opt.max_expansions;
    if (auto res = engine_search(prob, net_bbox.hull(prob.starts[0].p))) {
      for (size_t i = 0; i < todo.size(); ++i) {
        for (geom::Point p : res->path) {
          dist[i] = std::min(dist[i], manhattan(p, dia.term_pos(todo[i])));
        }
      }
      commit(std::move(*res));
    } else {
      out.failed.push_back(t);
    }
  }
  return out;
}

}  // namespace

NetTaskResult route_single_net(RoutingGrid& grid, const Diagram& dia, NetId n,
                               std::vector<TermId> todo, const RouterOptions& opt,
                               bool has_geometry, SearchWorkspace& ws,
                               ObservedMask* observed,
                               std::vector<RoutingGrid::TrackWrite>* occupancy) {
  // Per-net telemetry span shared by every driver: the sequential pass,
  // the speculative workers (speculative = 1) and the committer's serial
  // re-routes all funnel through here.  A span carries at most
  // obs::kMaxTraceArgs (6) args; these are the work counters.
  NA_TRACE_SPAN(span, "route.net");
  NetTaskResult out =
      route_single_net_impl(grid, dia, n, std::move(todo), opt, has_geometry,
                            ws, observed, occupancy);
  span.arg("net", n);
  span.arg("speculative", observed != nullptr ? 1 : 0);
  long long expansions = 0;
  for (const SearchResult& c : out.connections) expansions += c.expansions;
  span.arg("expansions", expansions);
  span.arg("pre_expansions", out.pre_expansions);
  span.arg("bound_expansions", out.bound_expansions);
  span.arg("field_builds", out.field_builds);
  // Cumulative per-thread expansion counter: viewers derive the router's
  // expansion *rate* from the slope of this series.
  {
    thread_local long long tl_expansions = 0;
    tl_expansions += expansions;
    NA_TRACE_COUNTER("route.expansions", "cumulative", tl_expansions);
  }
  return out;
}

void DriverSetup::add_claim(geom::Point cell, NetId n) {
  if (claim_pos.size() <= static_cast<size_t>(n)) claim_pos.resize(n + 1);
  claim_pos[n].push_back(static_cast<int>(claims.size()));
  claims.emplace_back(cell, n);
}

void DriverSetup::release_claims(NetId n, std::vector<CellOp>* ops) {
  if (n < 0 || static_cast<size_t>(n) >= claim_pos.size()) return;
  for (int i : claim_pos[n]) {
    auto& [cell, owner] = claims[i];
    grid.clear_claim(cell);
    if (ops) ops->push_back({cell, CellOp::kClearClaim, kNone});
    owner = kNone;
  }
  claim_pos[n].clear();
}

void DriverSetup::clear_claims() {
  for (auto& [cell, owner] : claims) {
    if (owner != kNone) grid.clear_claim(cell);
  }
  claims.clear();
  for (std::vector<int>& pos : claim_pos) pos.clear();
}

void DriverSetup::restore_claim(const Diagram& dia, const RouterOptions& opt,
                                TermId t, NetId n, std::vector<CellOp>* ops) {
  if (!opt.use_claimpoints || dia.network().term(t).is_system()) return;
  const geom::Point cell = dia.term_pos(t) + geom::delta(dia.term_facing(t));
  if (grid.in_bounds(cell) && !grid.blocked(cell) &&
      grid.claim_owner(cell) == kNone && grid.h_net(cell) == kNone &&
      grid.v_net(cell) == kNone) {
    grid.set_claim(cell, n);
    if (ops) ops->push_back({cell, CellOp::kSetClaim, n});
    add_claim(cell, n);
  }
}

DriverSetup prepare_driver(const Diagram& dia, const RouterOptions& opt) {
  const Network& net = dia.network();
  DriverSetup setup(build_grid(dia, opt.margin));

  // Terminals of each net that still need connecting.  With prerouted
  // geometry, terminals already covered by it count as connected.
  setup.pending.resize(net.net_count());
  setup.has_geometry.assign(net.net_count(), false);
  setup.claim_pos.resize(net.net_count());
  for (NetId n = 0; n < net.net_count(); ++n) {
    setup.has_geometry[n] = !dia.route(n).polylines.empty();
    for (TermId t : net.net(n).terms) {
      const Terminal& term = net.term(t);
      const bool placeable = term.is_system() ? dia.system_term_placed(t)
                                              : dia.module_placed(term.module);
      if (!placeable) continue;
      if (setup.has_geometry[n] && setup.grid.occupied_by(dia.term_pos(t), n)) {
        continue;
      }
      setup.pending[n].push_back(t);
    }
  }

  // Claimpoints: every still-unconnected subsystem terminal claims the
  // first track outside its module side (section 5.7).
  if (opt.use_claimpoints) {
    for (NetId n = 0; n < net.net_count(); ++n) {
      for (TermId t : setup.pending[n]) {
        if (net.term(t).is_system()) continue;
        const geom::Point cell =
            dia.term_pos(t) + geom::delta(dia.term_facing(t));
        if (setup.grid.in_bounds(cell) && !setup.grid.blocked(cell) &&
            setup.grid.claim_owner(cell) == kNone) {
          setup.grid.set_claim(cell, n);
          setup.add_claim(cell, n);
        }
      }
    }
  }
  return setup;
}

std::vector<NetId> ordered_nets(const Diagram& dia, const RouterOptions& opt) {
  auto order =
      order_nets(dia, static_cast<NetOrderCriterion>(opt.order_criterion));
  if (!opt.route_first.empty()) {
    const int count = dia.network().net_count();
    std::vector<NetId> prioritized;
    std::vector<bool> is_first(count, false);
    for (NetId n : opt.route_first) {
      if (n >= 0 && n < count && !is_first[n]) {
        is_first[n] = true;
        prioritized.push_back(n);
      }
    }
    for (NetId n : order) {
      if (!is_first[n]) prioritized.push_back(n);
    }
    order = std::move(prioritized);
  }
  return order;
}

void commit_connections(Diagram& dia, NetId n, NetTaskResult& res,
                        DriverSetup& setup, RouteReport& report) {
  setup.pre_expansions += res.pre_expansions;
  setup.bound_expansions += res.bound_expansions;
  setup.field_builds += res.field_builds;
  for (SearchResult& c : res.connections) {
    dia.add_polyline(n, std::move(c.path));
    setup.has_geometry[n] = true;
    ++report.connections_made;
    report.total_expansions += c.expansions;
  }
}

void retry_pass(Diagram& dia, const RouterOptions& opt, DriverSetup& setup,
                const std::vector<NetId>& order, RouteReport& report,
                SearchWorkspace& ws) {
  if (!opt.retry_failed) return;
  NA_TRACE_SPAN(span, "route.retry");
  const std::uint64_t scrubbed = ws.scrubbed_slots();
  setup.clear_claims();
  for (NetId n : order) {
    if (setup.pending[n].empty()) continue;
    const int before = static_cast<int>(setup.pending[n].size());
    NetTaskResult res =
        route_single_net(setup.grid, dia, n, std::move(setup.pending[n]), opt,
                         setup.has_geometry[n], ws);
    commit_connections(dia, n, res, setup, report);
    setup.pending[n] = std::move(res.failed);
    report.retried_connections +=
        before - static_cast<int>(setup.pending[n].size());
  }
  span.arg("scrubbed_slots", static_cast<long long>(ws.scrubbed_slots() - scrubbed));
}

void finish_report(Diagram& dia, DriverSetup& setup, RouteReport& report) {
  const Network& net = dia.network();
  for (NetId n = 0; n < net.net_count(); ++n) {
    int placeable = 0;
    for (TermId t : net.net(n).terms) {
      const Terminal& term = net.term(t);
      placeable += (term.is_system() ? dia.system_term_placed(t)
                                     : dia.module_placed(term.module))
                       ? 1
                       : 0;
    }
    if (placeable < 2) continue;  // not a routable net
    if (setup.pending[n].empty() && setup.has_geometry[n]) {
      dia.route(n).routed = true;
      ++report.nets_routed;
    } else {
      ++report.nets_failed;
      report.failed_nets.push_back(n);
      report.connections_failed += static_cast<int>(setup.pending[n].size());
    }
  }
}

}  // namespace na::detail
