// Tests for the speculative parallel routing driver and its supporting
// machinery: byte-identical determinism across thread counts (the central
// contract of parallel_route_all), the re-speculation retry pipeline, the
// speculation-effectiveness counters, search-workspace reuse, windowed
// searches and the work-stealing pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "gen/life.hpp"
#include "netlist/module_library.hpp"
#include "route/dijkstra.hpp"
#include "route/net_order.hpp"
#include "route/net_task.hpp"
#include "route/parallel_route.hpp"
#include "route/router.hpp"
#include "route/shard_route.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

// ----- fixtures ---------------------------------------------------------------

/// The LIFE network hand-placed — 27 modules / 222 nets, the paper's
/// figure 6.6 workload and the densest routing job in the repo.
Diagram placed_life() {
  static const Network& net = []() -> const Network& {
    static Network n = gen::life_network();
    return n;
  }();
  Diagram dia(net);
  gen::life_hand_placement(dia);
  return dia;
}

RouterOptions life_options(int threads) {
  RouterOptions opt;
  opt.margin = 12;
  opt.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  opt.threads = threads;
  return opt;
}

/// Every observable per-net routing artefact.
struct RoutedSnapshot {
  std::vector<std::vector<std::vector<geom::Point>>> polylines;
  std::vector<bool> routed;

  explicit RoutedSnapshot(const Diagram& dia) {
    for (NetId n = 0; n < dia.network().net_count(); ++n) {
      polylines.push_back(dia.route(n).polylines);
      routed.push_back(dia.route(n).routed);
    }
  }
  friend bool operator==(const RoutedSnapshot&, const RoutedSnapshot&) = default;
};

void expect_reports_equal(const RouteReport& a, const RouteReport& b) {
  EXPECT_EQ(a.nets_routed, b.nets_routed);
  EXPECT_EQ(a.nets_failed, b.nets_failed);
  EXPECT_EQ(a.connections_made, b.connections_made);
  EXPECT_EQ(a.connections_failed, b.connections_failed);
  EXPECT_EQ(a.retried_connections, b.retried_connections);
  EXPECT_EQ(a.total_expansions, b.total_expansions);
  EXPECT_EQ(a.failed_nets, b.failed_nets);
}

// ----- determinism: the parallel driver's central contract ----------------------

TEST(ParallelRoute, ByteIdenticalToSequentialOnLife) {
  Diagram seq = placed_life();
  const RouteReport r1 = route_all(seq, life_options(1));

  Diagram par = placed_life();
  const RouteReport r4 = route_all(par, life_options(4));

  expect_reports_equal(r1, r4);
  EXPECT_TRUE(RoutedSnapshot(seq) == RoutedSnapshot(par));
  EXPECT_TRUE(validate_diagram(par, true).empty());
  EXPECT_GT(r1.nets_routed, 200);  // the workload actually exercised routing
}

TEST(ParallelRoute, ThreadCountsAgree) {
  // 2, 3 and 8 threads must all match each other (and, by the test above,
  // the sequential result).
  Diagram base = placed_life();
  const RouteReport r2 = route_all(base, life_options(2));
  const RoutedSnapshot snap2(base);
  for (int threads : {3, 8}) {
    Diagram dia = placed_life();
    const RouteReport r = route_all(dia, life_options(threads));
    expect_reports_equal(r2, r);
    EXPECT_TRUE(snap2 == RoutedSnapshot(dia)) << "threads=" << threads;
  }
}

TEST(ParallelRoute, LeeEngineDeterministic) {
  RouterOptions opt = life_options(1);
  opt.engine = Engine::Lee;
  Diagram seq = placed_life();
  const RouteReport r1 = route_all(seq, opt);
  opt.threads = 4;
  Diagram par = placed_life();
  const RouteReport r4 = route_all(par, opt);
  expect_reports_equal(r1, r4);
  EXPECT_TRUE(RoutedSnapshot(seq) == RoutedSnapshot(par));
}

TEST(ParallelRoute, SpeculationStatsAddUp) {
  Diagram dia = placed_life();
  ParallelRouteStats stats;
  parallel_route_all(dia, life_options(4), 4, &stats);
  EXPECT_EQ(stats.nets_speculated, stats.commits_clean + stats.reroutes);
  EXPECT_GT(stats.nets_speculated, 200);
  // Nets on a schematic plane are mostly local, so the bulk of the
  // speculations must survive validation or the parallel driver is useless.
  EXPECT_GT(stats.commits_clean, stats.nets_speculated / 2);
}

// ----- re-speculation of invalidated nets ---------------------------------------

TEST(Respeculation, StaleValidationCursorWouldMissConflicts) {
  // Unit regression for the exactness check shared by the commit step and
  // the re-speculation scan.  A re-speculated outcome carries a
  // validated_to cursor; if that cursor ever ran ahead of the entries
  // actually checked, the conflict in journal[1] below would be skipped
  // and a stale path committed.
  detail::ObservedMask obs;
  obs.reset(geom::Rect{{0, 0}, {10, 10}});
  obs.mark({3, 3});
  obs.mark_segment({5, 1}, {5, 6});
  std::vector<std::vector<detail::CellOp>> journal(4);
  journal[0] = {{{9, 9}, detail::CellOp::kSetH, 7}};  // unobserved: harmless
  journal[1] = {{{5, 4}, detail::CellOp::kSetV, 8}};  // observed cell
  journal[3] = {{{0, 0}, detail::CellOp::kClearClaim, 9}};
  EXPECT_TRUE(detail::speculation_exact(obs, journal, 0, 1));
  EXPECT_FALSE(detail::speculation_exact(obs, journal, 0, 4));
  EXPECT_FALSE(detail::speculation_exact(obs, journal, 1, 2));
  // The hazard the cursor invariant guards against: validating only past
  // the conflicting entry would accept the stale speculation.
  EXPECT_TRUE(detail::speculation_exact(obs, journal, 2, 4));
}

/// Sets NA_PAR_FORCE_RESPEC for one test: every first outcome is
/// re-dispatched once, making the retry pipeline deterministic to reach
/// on workloads where organic invalidation timing varies.
struct ForceRespecEnv {
  ForceRespecEnv() { ::setenv("NA_PAR_FORCE_RESPEC", "1", 1); }
  ~ForceRespecEnv() { ::unsetenv("NA_PAR_FORCE_RESPEC"); }
};

TEST(Respeculation, ForcedRespeculationStaysByteIdentical) {
  // The satellite regression: a re-speculated net validates against a
  // fresher epoch via its validated_to cursor; forcing re-dispatch of
  // every outcome exercises that path for all ~200 nets and the result
  // must still be byte-identical to the sequential route.
  Diagram seq = placed_life();
  const RouteReport r1 = route_all(seq, life_options(1));
  ForceRespecEnv force;
  Diagram par = placed_life();
  ParallelRouteStats stats;
  const RouteReport r4 =
      parallel_route_all(par, life_options(4), 4, &stats);
  expect_reports_equal(r1, r4);
  EXPECT_TRUE(RoutedSnapshot(seq) == RoutedSnapshot(par));
  EXPECT_GT(stats.nets_respeculated, 0);
  // Counter algebra: every committed position is exactly one of
  // clean/reroute, and the respec_* splits count the subset of those
  // whose last attempt was a re-speculation.
  EXPECT_EQ(stats.nets_speculated, stats.commits_clean + stats.reroutes);
  EXPECT_LE(stats.respec_hits, stats.commits_clean);
  EXPECT_LE(stats.respec_stale, stats.reroutes);
  EXPECT_LE(stats.respec_hits + stats.respec_stale, stats.nets_respeculated);
  // A forced re-speculation of an already-valid outcome re-routes against
  // a fresher epoch, so most re-dispatches must survive validation.
  EXPECT_GT(stats.respec_hits, 0);
}

TEST(Respeculation, ByteIdenticalAcrossBudgets) {
  Diagram seq = placed_life();
  const RouteReport r1 = route_all(seq, life_options(1));
  const RoutedSnapshot base(seq);
  for (int budget : {0, 1, 8}) {
    Diagram par = placed_life();
    RouterOptions opt = life_options(4);
    opt.respec_budget = budget;
    const RouteReport r = route_all(par, opt);
    expect_reports_equal(r1, r);
    EXPECT_TRUE(base == RoutedSnapshot(par)) << "respec_budget=" << budget;
  }
}

TEST(Respeculation, BudgetZeroDisablesRespeculation) {
  ForceRespecEnv force;
  Diagram par = placed_life();
  RouterOptions opt = life_options(4);
  opt.respec_budget = 0;
  ParallelRouteStats stats;
  parallel_route_all(par, opt, 4, &stats);
  EXPECT_EQ(stats.nets_respeculated, 0);
  EXPECT_EQ(stats.respec_hits, 0);
  EXPECT_EQ(stats.respec_stale, 0);
}

TEST(Respeculation, UrgentLaneRunsBeforeQueuedWork) {
  // Re-speculations ride the pool's urgent lane: with the single worker
  // parked on the gate task, tasks submitted later via submit_urgent must
  // still run before the earlier plain submissions, in order.
  ThreadPool pool(1);
  std::mutex m;
  std::condition_variable cv;
  bool go = false;
  std::vector<int> ran;
  pool.submit([&] {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return go; });
  });
  for (int i = 0; i < 3; ++i) {
    pool.submit([&, i] {
      std::lock_guard lock(m);
      ran.push_back(i);
    });
  }
  pool.submit_urgent([&] {
    std::lock_guard lock(m);
    ran.push_back(100);
  });
  pool.submit_urgent([&] {
    std::lock_guard lock(m);
    ran.push_back(101);
  });
  {
    std::lock_guard lock(m);
    go = true;
  }
  cv.notify_all();
  pool.wait_idle();
  ASSERT_EQ(ran.size(), 5u);
  EXPECT_EQ(ran[0], 100);
  EXPECT_EQ(ran[1], 101);
  EXPECT_EQ(ran[2], 0);
}

// ----- claim index ----------------------------------------------------------------

/// The claim table as a whole-table scan sees it: a release clears every
/// live claim of the net, in table order.
struct ScannedClaims {
  std::vector<std::pair<geom::Point, NetId>> claims;

  std::vector<detail::CellOp> release(NetId n) {
    std::vector<detail::CellOp> ops;
    for (auto& [cell, owner] : claims) {
      if (owner != n) continue;
      ops.push_back({cell, detail::CellOp::kClearClaim, kNone});
      owner = kNone;
    }
    return ops;
  }
};

bool same_ops(const std::vector<detail::CellOp>& a, const std::vector<detail::CellOp>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const detail::CellOp& x, const detail::CellOp& y) {
                      return x.p == y.p && x.kind == y.kind && x.net == y.net;
                    });
}

/// Every net's index lists exactly its live table entries, ascending.
void expect_index_matches_table(const detail::DriverSetup& setup, int nets,
                                const std::string& what) {
  for (NetId n = 0; n < nets; ++n) {
    std::vector<int> scanned;
    for (size_t i = 0; i < setup.claims.size(); ++i) {
      if (setup.claims[i].second == n) scanned.push_back(static_cast<int>(i));
    }
    std::vector<int> indexed;
    setup.for_each_claim(n, [&](int i) { indexed.push_back(i); });
    ASSERT_EQ(indexed, scanned) << what << " net " << n;
  }
}

/// LIFE with a search budget small enough that some terminals stay
/// unconnected in pass 1, so the drivers restore claims as well.
RouterOptions starved_life_options(int threads) {
  RouterOptions opt = life_options(threads);
  opt.max_expansions = 3000;
  return opt;
}

TEST(ClaimIndex, ReleasesExactlyTheLiveClaimsInTableOrder) {
  // The claim steps of every driver, replayed on one setup against the
  // table scan: the sequential and speculative drivers release a net's
  // claims before routing it (the speculative committer journals the
  // clears) and restore the escape tracks of what failed; the shard
  // merge releases and then appends the claims its job restored; the
  // retry pass clears them all.
  const RouterOptions opt = starved_life_options(1);
  Diagram dia = placed_life();
  detail::DriverSetup setup = detail::prepare_driver(dia, opt);
  const int nets = dia.network().net_count();
  ScannedClaims ref{setup.claims};
  ASSERT_GT(ref.claims.size(), 100u);
  expect_index_matches_table(setup, nets, "prepared");
  detail::SearchWorkspace ws;
  RouteReport report;
  int released = 0, restored = 0, merged = 0, step = 0;
  for (NetId n : detail::ordered_nets(dia, opt)) {
    if (setup.pending[n].empty()) continue;
    const std::string what = "net " + std::to_string(n);
    std::vector<detail::CellOp> ops;
    // Alternate the journalled and the plain release.
    if (step++ % 2 == 0) {
      setup.release_claims(n, &ops);
    } else {
      const std::vector<std::pair<geom::Point, NetId>> before = setup.claims;
      setup.release_claims(n);
      for (size_t i = 0; i < before.size(); ++i) {
        if (before[i].second != setup.claims[i].second) {
          ops.push_back({before[i].first, detail::CellOp::kClearClaim, kNone});
        }
      }
    }
    ASSERT_TRUE(same_ops(ops, ref.release(n))) << what;
    released += static_cast<int>(ops.size());
    for (const detail::CellOp& op : ops) ASSERT_EQ(setup.grid.claim_owner(op.p), kNone) << what;
    detail::NetTaskResult res = detail::route_single_net(
        setup.grid, dia, n, std::move(setup.pending[n]), opt, setup.has_geometry[n], ws);
    detail::commit_connections(dia, n, res, setup, report);
    setup.pending[n] = std::move(res.failed);
    const size_t table = setup.claims.size();
    for (TermId t : setup.pending[n]) setup.restore_claim(dia, opt, t, n);
    // The shard merge's path: a net's restored claims re-appended.
    if (step % 3 == 0 && setup.claims.size() > table) {
      const std::vector restored_here(
          setup.claims.begin() + static_cast<std::ptrdiff_t>(table), setup.claims.end());
      setup.release_claims(n);
      for (const auto& [cell, owner] : restored_here) {
        setup.grid.set_claim(cell, owner);
        setup.add_claim(cell, owner);
      }
      ++merged;
    }
    for (size_t i = ref.claims.size(); i < setup.claims.size(); ++i) {
      ref.claims.push_back(setup.claims[i]);
    }
    restored += static_cast<int>(setup.claims.size() - table);
    ASSERT_EQ(setup.claims, ref.claims) << what;
    expect_index_matches_table(setup, nets, what);
  }
  EXPECT_GT(released, 100);
  EXPECT_GT(restored, 5);
  EXPECT_GT(merged, 0);
  setup.clear_claims();
  EXPECT_TRUE(setup.claims.empty());
  expect_index_matches_table(setup, nets, "cleared");
  for (const auto& [cell, owner] : ref.claims) EXPECT_EQ(setup.grid.claim_owner(cell), kNone);
}

TEST(ClaimIndex, DriversAgreeWhenClaimsAreRestored) {
  // The same starved workload through every driver: the sequential
  // driver, the speculative one at 4 threads and the single-shard driver
  // produce one diagram; 4 shards produce one at any thread count.
  Diagram seq = placed_life();
  const RouteReport r_seq = route_all(seq, starved_life_options(1));
  ASSERT_GT(r_seq.connections_failed + r_seq.retried_connections, 0);
  Diagram spec = placed_life();
  expect_reports_equal(route_all(spec, starved_life_options(4)), r_seq);
  EXPECT_TRUE(RoutedSnapshot(spec) == RoutedSnapshot(seq));
  Diagram one_shard = placed_life();
  expect_reports_equal(
      shard_route_all(one_shard, starved_life_options(1), ShardOptions{1, 16, 1}), r_seq);
  EXPECT_TRUE(RoutedSnapshot(one_shard) == RoutedSnapshot(seq));
  Diagram four_a = placed_life();
  Diagram four_b = placed_life();
  expect_reports_equal(shard_route_all(four_a, starved_life_options(1), ShardOptions{4, 16, 1}),
                       shard_route_all(four_b, starved_life_options(1), ShardOptions{4, 16, 4}));
  EXPECT_TRUE(RoutedSnapshot(four_a) == RoutedSnapshot(four_b));
}

// ----- workspace reuse ----------------------------------------------------------

/// A small plane with a wall that forces a bend, so the searches are not
/// trivial straight lines.
RoutingGrid walled_grid() {
  RoutingGrid grid({{0, 0}, {20, 12}});
  grid.block_rect({{8, 0}, {10, 8}});
  return grid;
}

SearchProblem across_problem(geom::Point from, geom::Point to) {
  SearchProblem prob;
  prob.net = 0;
  prob.starts = {{from, std::nullopt}};
  prob.target = SearchTarget{to, std::nullopt};
  return prob;
}

TEST(SearchWorkspace, ReuseMatchesFreshSearches) {
  const RoutingGrid grid = walled_grid();
  const std::vector<std::pair<geom::Point, geom::Point>> cases = {
      {{1, 1}, {18, 1}}, {{2, 10}, {17, 2}}, {{1, 4}, {19, 11}}};
  detail::SearchWorkspace shared;
  for (const auto& [from, to] : cases) {
    const SearchProblem prob = across_problem(from, to);
    const auto fresh =
        detail::grid_search(grid, prob, detail::CostMode::BendsCrossingsLength);
    const auto reused = detail::grid_search(
        grid, prob, detail::CostMode::BendsCrossingsLength, &shared);
    ASSERT_TRUE(fresh.has_value());
    ASSERT_TRUE(reused.has_value());
    EXPECT_EQ(fresh->path, reused->path);
    EXPECT_EQ(fresh->expansions, reused->expansions);
    EXPECT_EQ(fresh->cost.bends, reused->cost.bends);
    EXPECT_EQ(fresh->cost.crossings, reused->cost.crossings);
    EXPECT_EQ(fresh->cost.length, reused->cost.length);
  }
}

TEST(SearchWorkspace, ObservedMaskCoversPath) {
  const RoutingGrid grid = walled_grid();
  const SearchProblem prob = across_problem({1, 1}, {18, 1});
  detail::SearchWorkspace ws;
  detail::ObservedMask observed;
  observed.reset(grid.area());
  const auto res = detail::grid_search(
      grid, prob, detail::CostMode::BendsCrossingsLength, &ws, &observed);
  ASSERT_TRUE(res.has_value());
  // Every point of the found path was read, so a commit touching any of
  // them must invalidate the speculation.
  for (const geom::Point& p : res->path) {
    EXPECT_TRUE(observed.covers(p)) << p.x << "," << p.y;
  }
  // Cells inside the wall were never read (only their free boundary was).
  EXPECT_FALSE(observed.covers({9, 4}));
}

// ----- windowed searches --------------------------------------------------------

TEST(WindowedSearch, WindowBlocksOutsidePoints) {
  const RoutingGrid grid = walled_grid();
  SearchProblem prob = across_problem({1, 1}, {18, 1});
  prob.window = geom::Rect{{0, 0}, {6, 12}};  // excludes the target
  EXPECT_FALSE(
      detail::grid_search(grid, prob, detail::CostMode::BendsCrossingsLength)
          .has_value());
  prob.window = grid.area();  // window covering everything changes nothing
  const auto windowed =
      detail::grid_search(grid, prob, detail::CostMode::BendsCrossingsLength);
  prob.window.reset();
  const auto full =
      detail::grid_search(grid, prob, detail::CostMode::BendsCrossingsLength);
  ASSERT_TRUE(windowed.has_value());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(windowed->path, full->path);
}

TEST(WindowedSearch, DriverFallsBackToFullPlane) {
  // A detour forced far outside the endpoint hull: the windowed first
  // attempt fails, the full-plane retry must still connect the net.
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  lib.instantiate(net, "buf", "b0");
  lib.instantiate(net, "buf", "b1");
  net.add_module("wall", "", {2, 40});
  const NetId n = net.add_net("n0");
  net.connect(n, *net.term_by_name(0, "y"));
  net.connect(n, *net.term_by_name(1, "a"));
  Diagram dia(net);
  dia.place_module(0, {0, 18});
  dia.place_module(1, {20, 18});
  dia.place_module(2, {9, 0});  // wall spanning y=0..40 between them
  RouterOptions opt;
  opt.margin = 4;
  opt.window_slack = 1;
  const RouteReport r = route_all(dia, opt);
  EXPECT_EQ(r.nets_routed, 1);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

TEST(WindowedSearch, LifeStillRoutesEverything) {
  Diagram baseline = placed_life();
  const RouteReport base = route_all(baseline, life_options(1));
  Diagram dia = placed_life();
  RouterOptions opt = life_options(1);
  opt.window_slack = 8;
  const RouteReport r = route_all(dia, opt);
  // Windowed routing may pick different (window-local) optima but must not
  // lose nets: the full-plane fallback guarantees completeness.
  EXPECT_EQ(r.nets_routed, base.nets_routed);
  EXPECT_TRUE(validate_diagram(dia, true).empty());
}

// ----- the thread pool ----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WorkerIndexAddressesPerWorkerState) {
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  std::atomic<int> seen_mask{0};
  for (int i = 0; i < 300; ++i) {
    pool.submit([&] {
      const int idx = ThreadPool::worker_index();
      if (idx < 0 || idx >= 3) bad.fetch_add(1);
      else seen_mask.fetch_or(1 << idx);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  pool.wait_idle();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(seen_mask.load(), 0b111);  // stealing spread work to all workers
  EXPECT_EQ(ThreadPool::worker_index(), -1);  // off-pool threads
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.submit([] {});
  pool.wait_idle();
}

}  // namespace
}  // namespace na
