#include "route/parallel_route.hpp"

#include <cstdlib>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/diag.hpp"
#include "obs/trace.hpp"
#include "route/net_task.hpp"

namespace na {

using detail::CellOp;
using detail::DriverSetup;
using detail::NetTaskResult;
using detail::ObservedMask;
using detail::SearchWorkspace;

namespace {

/// What a worker hands the committer for one net.
struct Outcome {
  int epoch = 0;  ///< commits visible to the speculation: journal[0..epoch)
  /// Commits the outcome has been cleared against: journal[0..validated_to)
  /// is known not to touch any observed cell.  Starts at `epoch` and only
  /// advances when the re-speculation scan re-checks the outcome against
  /// newly published commits — the commit-time exactness check covers the
  /// remaining [validated_to, p) suffix, so no journal entry is ever
  /// skipped no matter how often the net was re-dispatched.
  int validated_to = 0;
  /// Set by the scan when a conflict was found but the net will not be
  /// re-speculated (budget exhausted or freshness heuristic declined):
  /// the committer re-routes it without re-checking the journal.
  bool doomed = false;
  NetTaskResult result;
  ObservedMask observed;
};

/// Per-worker private state: a clone of the routing plane plus a cursor
/// into the commit journal (the clone equals the live grid of `cursor`
/// commits ago), and the reusable search scratch.
struct Worker {
  std::optional<RoutingGrid> grid;
  int cursor = 0;
  SearchWorkspace ws;
  std::vector<RoutingGrid::TrackWrite> occupancy;
};

/// A re-speculation the committer decided to dispatch (built under the
/// lock, submitted outside it).
struct RespecJob {
  int p = 0;
  NetId net = kNone;
  bool has_geometry = false;
  std::vector<TermId> todo;
};

}  // namespace

RouteReport parallel_route_all(Diagram& dia, const RouterOptions& opt,
                               int threads, ParallelRouteStats* stats) {
  DriverSetup setup = detail::prepare_driver(dia, opt);
  const std::vector<NetId> order = detail::ordered_nets(dia, opt);
  const int npos = static_cast<int>(order.size());
  RouteReport report;
  ParallelRouteStats local_stats;
  if (!stats) stats = &local_stats;
  *stats = {};

  // Pristine copy of the plane (with all claims set) that workers clone;
  // the live `setup.grid` belongs to the committer alone.
  const RoutingGrid initial_grid = setup.grid;

  std::mutex mu;
  std::condition_variable outcome_cv;
  std::condition_variable epoch_cv;
  std::vector<std::vector<CellOp>> journal(npos);  // journal[i]: commit i's cell writes
  std::vector<std::unique_ptr<Outcome>> outcomes(npos);
  std::vector<int> attempts(npos, 0);  // re-speculation dispatches per position
  std::deque<RespecJob> respec_queue;  // dispatched re-speculations, guarded by mu
  int epoch = 0;  // commits published; journal[0..epoch) is stable
  std::vector<Worker> workers(threads);

  // Backpressure window: a speculation for commit position p starts only
  // once fewer than `window` commits can still race it.  Without the
  // throttle workers sprint far ahead of the committer and validate
  // against hopelessly stale grids; with it the raced-commit count is
  // bounded by `window` and most speculations survive.  Progress is
  // guaranteed: the task at the committer's own position always satisfies
  // the wait predicate (p - epoch == 0), and every earlier task has
  // already produced its outcome.  Re-speculations are the one exception —
  // a re-dispatched position has no initial task left — so workers parked
  // on the window drain `respec_queue` inline instead of sleeping; without
  // that, every worker could sit beyond the window while the committer
  // waits forever on a re-dispatched outcome nobody is free to route.
  const int window = 2 * threads;

  // Re-speculation budget: how often an invalidated outcome is re-dispatched
  // as a fresh speculation before the committer serializes the re-route.
  const int respec_budget = std::max(0, opt.respec_budget);
  // Test hook: re-dispatch every first outcome once, even valid ones, so
  // the retry pipeline (and its stale-commit handling) is exercised on
  // workloads where organic invalidations are timing-dependent.
  const bool force_respec = std::getenv("NA_PAR_FORCE_RESPEC") != nullptr;

  // Speculation gate: a net whose terminal hull spans a large fraction of
  // the plane forces whole-plane expansion waves, so its searches read —
  // and any earlier commit invalidates — nearly everything.  Speculating
  // such a net is deterministic wasted work; the committer routes it on
  // the live grid instead.  The gate only chooses who routes the net, so
  // results stay byte-identical.  The per-position hulls double as the
  // re-speculation freshness heuristic's overlap test.
  const geom::Rect plane = initial_grid.area();
  const long plane_area =
      static_cast<long>(plane.width() + 1) * (plane.height() + 1);
  std::vector<char> speculated(npos, 0);
  std::vector<geom::Rect> hulls(npos);
  for (int p = 0; p < npos; ++p) {
    const NetId n = order[p];
    if (setup.pending[n].empty()) continue;
    geom::Rect hull;
    for (TermId t : setup.pending[n]) hull = hull.hull(dia.term_pos(t));
    for (const auto& pl : dia.route(n).polylines) {
      for (geom::Point pt : pl) hull = hull.hull(pt);
    }
    hulls[p] = hull;
    const long hull_area =
        static_cast<long>(hull.width() + 1) * (hull.height() + 1);
    speculated[p] = hull_area * 4 <= plane_area;
  }

  ThreadPool pool(threads);

  // One speculation attempt for commit position p: catch the private grid
  // up with the published commits, route the net against that snapshot,
  // undo its own occupancy and deposit the outcome.  Initial attempts wait
  // out the backpressure window first — running any queued re-speculation
  // inline while parked, see the progress note above; re-speculations are
  // dispatched by the committer within the window and skip the wait.
  std::function<void(int, NetId, std::vector<TermId>, bool, bool)> run_task =
      [&](int p, NetId n, std::vector<TermId> todo, bool hasgeo, bool initial) {
    NA_TRACE_SPAN(task_span, "route.speculate");
    task_span.arg("pos", p);
    task_span.arg("net", n);
    task_span.arg("worker", ThreadPool::worker_index());
    task_span.arg("initial", initial ? 1 : 0);
    Worker& w = workers[ThreadPool::worker_index()];
    if (!w.grid) w.grid.emplace(initial_grid);
    auto out = std::make_unique<Outcome>();
    {
      std::unique_lock lock(mu);
      while (initial && p - epoch > window) {
        if (!respec_queue.empty()) {
          RespecJob job = std::move(respec_queue.front());
          respec_queue.pop_front();
          lock.unlock();
          run_task(job.p, job.net, std::move(job.todo), job.has_geometry,
                   /*initial=*/false);
          lock.lock();
          continue;
        }
        epoch_cv.wait(lock);
      }
      for (int i = w.cursor; i < epoch; ++i) {
        detail::apply_ops(*w.grid, journal[i]);
      }
      w.cursor = epoch;
      out->epoch = epoch;
      out->validated_to = epoch;
    }
    task_span.arg("epoch", out->epoch);
    out->observed.reset(w.grid->area());
    w.occupancy.clear();
    out->result =
        detail::route_single_net(*w.grid, dia, n, std::move(todo), opt, hasgeo,
                                 w.ws, &out->observed, &w.occupancy);
    // Leave the private grid exactly one journal replay behind the live
    // one again: undo this net's own occupancy.
    for (auto it = w.occupancy.rbegin(); it != w.occupancy.rend(); ++it) {
      w.grid->clear_track(it->p, it->horizontal);
    }
    {
      std::lock_guard lock(mu);
      outcomes[p] = std::move(out);
    }
    outcome_cv.notify_all();
  };

  for (int p = 0; p < npos; ++p) {
    const NetId n = order[p];
    if (!speculated[p]) continue;  // empty or gated: committer handles it
    pool.submit([&run_task, p, n, todo = setup.pending[n],
                 hasgeo = static_cast<bool>(setup.has_geometry[n])]() mutable {
      run_task(p, n, std::move(todo), hasgeo, /*initial=*/true);
    });
  }

  // Freshness heuristic for re-dispatching position q (caller holds `mu`):
  // an earlier uncommitted position whose hull overlaps q's and whose
  // final geometry is still unknown (no deposited, so-far-valid outcome)
  // will likely write into the region q's searches read — a re-speculation
  // raced against it is wasted work, so q keeps the committer fallback.
  auto respec_fresh = [&](int q) {
    for (int i = epoch; i < q; ++i) {
      if (setup.pending[order[i]].empty()) continue;
      if (!hulls[i].overlaps(hulls[q])) continue;
      const Outcome* o = outcomes[i].get();
      if (!speculated[i] || o == nullptr || o->doomed) return false;
    }
    return true;
  };

  // ----- pass 1: in-order commit ---------------------------------------------
  SearchWorkspace committer_ws;
  std::vector<RoutingGrid::TrackWrite> track_writes;
  {
  NA_TRACE_SPAN(pass_span, "route.pass1");
  pass_span.arg("threads", threads);
  pass_span.arg("nets", npos);
  for (int p = 0; p < npos; ++p) {
    const NetId n = order[p];
    std::vector<CellOp> ops;
    if (!setup.pending[n].empty()) {
      NA_TRACE_SPAN(commit_span, "route.commit");
      commit_span.arg("pos", p);
      commit_span.arg("net", n);
      std::unique_ptr<Outcome> out;
      bool exact = false;
      if (speculated[p]) {
        {
          std::unique_lock lock(mu);
          outcome_cv.wait(lock, [&] { return outcomes[p] != nullptr; });
          out = std::move(outcomes[p]);
        }
        ++stats->nets_speculated;
        // Exactness check: did any commit the speculation missed touch a
        // cell its searches read?  journal[0..p) is only written by this
        // thread, so no lock is needed to read it here.  The scan already
        // cleared journal[..validated_to); only the suffix remains.
        exact = !out->doomed && detail::speculation_exact(
                                    out->observed, journal, out->validated_to, p);
      } else {
        ++stats->nets_gated;
      }
      setup.release_claims(n, &ops);
      if (exact) {
        // Insurance against validation bugs: a speculative path — initial
        // or re-speculated — must still fit the live grid.  (Unreachable
        // when the mask logic is sound.)
        for (const SearchResult& c : out->result.connections) {
          if (!setup.grid.polyline_fits(n, c.path)) {
            exact = false;
            break;
          }
        }
      }
      NetTaskResult res;
      track_writes.clear();
      if (exact) {
        ++stats->commits_clean;
        if (attempts[p] > 0) ++stats->respec_hits;
        res = std::move(out->result);
        for (const SearchResult& c : res.connections) {
          setup.grid.occupy_polyline(n, c.path, &track_writes);
        }
      } else {
        if (out) {
          ++stats->reroutes;
          if (attempts[p] > 0) ++stats->respec_stale;
        }
        res = detail::route_single_net(setup.grid, dia, n,
                                       std::move(setup.pending[n]), opt,
                                       setup.has_geometry[n], committer_ws,
                                       nullptr, &track_writes);
      }
      const char* outcome = !speculated[p] ? "gated" : exact ? "clean" : "reroute";
      commit_span.arg("outcome", outcome);
      commit_span.arg("attempts", attempts[p]);
      commit_span.arg("lag", out ? p - out->epoch : -1);
      if (std::getenv("NA_PAR_DEBUG")) {
        // Per-position trace: lag/marked for speculated nets (lag=-1 for
        // gated ones), whether the commit was exact, and the committed
        // searches' expansion count — the serial-share input of the
        // critical-path model in EXPERIMENTS.md.  Routed through the obs
        // diagnostic channel: one atomic line per net, rate-limited so a
        // huge run cannot flood stderr, and always naming the net.
        long exp = 0;
        for (const SearchResult& c : res.connections) exp += c.expansions;
        obs::diagf("route.par", /*limit=*/512,
                   "net=%d p=%d lag=%d marked=%d attempts=%d outcome=%s exp=%ld",
                   n, p, out ? p - out->epoch : -1,
                   out ? out->observed.marked_count() : 0, attempts[p], outcome,
                   exp);
      }
      for (const RoutingGrid::TrackWrite& t : track_writes) {
        ops.push_back({t.p, t.horizontal ? CellOp::kSetH : CellOp::kSetV, n});
      }
      detail::commit_connections(dia, n, res, setup, report);
      setup.pending[n] = std::move(res.failed);
      for (TermId t : setup.pending[n]) {
        setup.restore_claim(dia, opt, t, n, &ops);
      }
    }
    int dispatched = 0;
    {
      std::lock_guard lock(mu);
      journal[p] = std::move(ops);
      epoch = p + 1;
      // Re-speculation scan: check every deposited outcome the new commit
      // can still race.  A doomed outcome is re-dispatched as a fresh
      // speculation against the newest epoch (within budget and when the
      // freshness heuristic expects it to survive); otherwise it is marked
      // so the committer serializes the re-route without re-validating.
      const int hi = std::min(npos, epoch + window + 1);
      for (int q = epoch; q < hi; ++q) {
        if (!speculated[q] || setup.pending[order[q]].empty()) continue;
        Outcome* o = outcomes[q].get();
        if (o == nullptr || o->doomed) continue;
        bool redo = false;
        if (detail::speculation_exact(o->observed, journal, o->validated_to,
                                      epoch)) {
          o->validated_to = epoch;
          redo = force_respec && attempts[q] == 0;
        } else if (attempts[q] < respec_budget && respec_fresh(q)) {
          redo = true;
        } else {
          o->doomed = true;
        }
        if (redo && attempts[q] < respec_budget) {
          ++attempts[q];
          ++stats->nets_respeculated;
          outcomes[q].reset();
          const NetId qn = order[q];
          respec_queue.push_back({q, qn,
                                  static_cast<bool>(setup.has_geometry[qn]),
                                  setup.pending[qn]});
          ++dispatched;
        }
      }
    }
    epoch_cv.notify_all();
    // Urgent lane: re-speculations sit on the committer's critical path —
    // the committer will reach them within `window` commits — so they must
    // not queue behind far-future initial speculations.  The drain task
    // pops from respec_queue rather than carrying the job itself because a
    // window-parked worker may have taken it inline already.
    for (int i = 0; i < dispatched; ++i) {
      pool.submit_urgent([&] {
        std::optional<RespecJob> job;
        {
          std::lock_guard lock(mu);
          if (!respec_queue.empty()) {
            job = std::move(respec_queue.front());
            respec_queue.pop_front();
          }
        }
        if (job) {
          run_task(job->p, job->net, std::move(job->todo), job->has_geometry,
                   /*initial=*/false);
        }
      });
    }
  }
  pool.wait_idle();
  setup.trace_work(pass_span);
  }

  // Scheduling counters for the metrics registry: how hard the urgent
  // lane worked and how deep the queues got.  Inline drains by
  // window-parked workers bypass the pool, so drained < submitted is
  // normal — the difference is exactly the inline-drain count.
  const ThreadPool::Stats pool_stats = pool.stats();
  stats->pool_peak_queued = pool_stats.peak_queued;
  stats->pool_urgent_drains = static_cast<int>(pool_stats.urgent_drained);

  // ----- pass 2 + accounting: identical to the sequential driver -------------
  detail::retry_pass(dia, opt, setup, order, report, committer_ws);
  detail::finish_report(dia, setup, report);
  return report;
}

}  // namespace na
