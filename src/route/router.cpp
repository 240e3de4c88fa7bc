// The whole-diagram routing driver: claimpoints, net ordering, per-net
// initiation + expansion, and the post-pass retry of section 5.7.
//
// The per-net work lives in route/net_task.cpp (shared with the
// speculative parallel driver); this file keeps the engine dispatch and
// the sequential commit loop.  With opt.threads != 1 the driver hands the
// whole pass to parallel_route_all, which produces a byte-identical
// diagram and report.
#include "route/router.hpp"

#include <algorithm>
#include <thread>

#include "obs/trace.hpp"
#include "route/net_task.hpp"
#include "route/parallel_route.hpp"

namespace na {

std::optional<SearchResult> find_path(Engine e, const RoutingGrid& grid,
                                      const SearchProblem& prob) {
  switch (e) {
    case Engine::LineExpansion: return line_expansion_search(grid, prob);
    case Engine::Lee: return lee_search(grid, prob);
    case Engine::Hightower: return hightower_search(grid, prob);
    case Engine::SegmentExpansion: return segment_expansion_search(grid, prob);
  }
  return std::nullopt;
}

RouteReport route_all(Diagram& dia, const RouterOptions& opt,
                      ParallelRouteStats* spec_stats) {
  if (spec_stats) *spec_stats = {};
  int threads = opt.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Speculative validation needs the observable grid-search engines; the
  // baselines always route sequentially.
  if (threads > 1 &&
      (opt.engine == Engine::LineExpansion || opt.engine == Engine::Lee)) {
    return parallel_route_all(dia, opt, threads, spec_stats);
  }

  detail::DriverSetup setup = detail::prepare_driver(dia, opt);
  const std::vector<NetId> order = detail::ordered_nets(dia, opt);
  RouteReport report;
  detail::SearchWorkspace ws;

  // ----- pass 1 --------------------------------------------------------------
  {
    NA_TRACE_SPAN(span, "route.pass1");
    span.arg("threads", 1);
    span.arg("nets", static_cast<long long>(order.size()));
    for (NetId n : order) {
      if (setup.pending[n].empty()) continue;
      setup.release_claims(n);
      detail::NetTaskResult res =
          detail::route_single_net(setup.grid, dia, n, std::move(setup.pending[n]),
                                   opt, setup.has_geometry[n], ws);
      detail::commit_connections(dia, n, res, setup, report);
      setup.pending[n] = std::move(res.failed);
      for (TermId t : setup.pending[n]) setup.restore_claim(dia, opt, t, n);
    }
    span.arg("scrubbed_slots", static_cast<long long>(ws.scrubbed_slots()));
    setup.trace_work(span);
  }

  // ----- pass 2: retry after every claim is gone (section 5.7) ---------------
  detail::retry_pass(dia, opt, setup, order, report, ws);

  // ----- accounting -----------------------------------------------------------
  detail::finish_report(dia, setup, report);
  return report;
}

}  // namespace na
