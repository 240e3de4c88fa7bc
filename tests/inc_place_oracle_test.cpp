// Oracle test for the gravity-insertion rasters of incremental placement:
// the summed-area lookups, the left-edge sweep and the spot lookup must
// answer exactly what the loops they replaced answered.  The former
// RoutedCells hash set, gravity_vacancy, pairwise feasibility loop and
// system-terminal clearance loop are kept below verbatim as references and
// compared on seeded random layouts: frozen symbols (some touching edge to
// edge, some overlapping, some unplaced), pinned holes, routed polylines
// (with one-point and non-orthogonal ones), spacing 1-2.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "incremental/vacancy.hpp"

namespace na {
namespace {

// ----- references: the loops the rasters replaced ---------------------------

/// Grid points occupied by the cached diagram's routed nets — the "is this
/// vacancy really vacant" oracle for the gravity-seeded insertion below.
struct RoutedCells {
  std::unordered_set<std::uint64_t> cells;

  static std::uint64_t key(geom::Point p) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)) << 32) |
           static_cast<std::uint32_t>(p.y);
  }

  explicit RoutedCells(const Diagram& dia) {
    const Network& net = dia.network();
    for (NetId n = 0; n < net.net_count(); ++n) {
      for (const auto& pl : dia.route(n).polylines) {
        if (pl.size() == 1) cells.insert(key(pl[0]));
        for (size_t i = 1; i < pl.size(); ++i) {
          const geom::Point a = pl[i - 1];
          const geom::Point b = pl[i];
          if (a.x != b.x && a.y != b.y) continue;
          const geom::Point step = {(b.x > a.x) - (b.x < a.x),
                                    (b.y > a.y) - (b.y < a.y)};
          for (geom::Point p = a;; p += step) {
            cells.insert(key(p));
            if (p == b) break;
          }
        }
      }
    }
  }

  /// Routed track cells under `r` — each one a net the insertion would
  /// displace (scrub + re-route) if a symbol landed here.
  int covered(geom::Rect r) const {
    int hits = 0;
    for (int x = r.lo.x; x <= r.hi.x; ++x) {
      for (int y = r.lo.y; y <= r.hi.y; ++y) {
        hits += cells.contains(key({x, y})) ? 1 : 0;
      }
    }
    return hits;
  }
};

/// The gravity-seeded vacancy search: the position for a `size` rectangle
/// near `ideal` minimising squared gravity distance plus a displacement
/// penalty per routed cell the footprint would sit on.  "Hole-pinned
/// vacancies first" — a spot a few tracks further that tears up no routing
/// beats one directly on a channel — "then local hull expansion": ring by
/// ring until the score bound proves no better cell exists, out to
/// `max_radius`.
std::optional<geom::Point> reference_vacancy(geom::Point ideal, geom::Point size,
                                             std::span<const geom::Rect> placed,
                                             int spacing, int max_radius,
                                             const RoutedCells& routed) {
  // One displaced routed cell weighs like four extra tracks of distance:
  // proximity still dominates, but dense channels repel the insertion.
  constexpr std::int64_t kCellPenalty = 16;
  auto feasible = [&](geom::Point pos) {
    const geom::Rect candidate = geom::Rect::from_size(pos, size).expanded(spacing);
    for (const geom::Rect& r : placed) {
      if (candidate.overlaps(r)) return false;
    }
    return true;
  };
  auto score = [&](geom::Point pos) {
    return geom::dist2(pos, ideal) +
           kCellPenalty * routed.covered(geom::Rect::from_size(pos, size));
  };

  std::optional<geom::Point> best;
  std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
  auto consider = [&](geom::Point pos) {
    if (geom::dist2(pos, ideal) >= best_score || !feasible(pos)) return;
    const std::int64_t s = score(pos);
    if (s < best_score) {
      best = pos;
      best_score = s;
    }
  };
  consider(ideal);
  for (int r = 1; r <= max_radius; ++r) {
    // Every position on ring r is at least r tracks out, so its score is
    // at least r*r; once that exceeds the best score, no later ring wins.
    if (best_score < static_cast<std::int64_t>(r) * r) break;
    for (int dx = -r; dx <= r; ++dx) {
      consider(ideal + geom::Point{dx, r});
      consider(ideal + geom::Point{dx, -r});
    }
    for (int dy = -r + 1; dy < r; ++dy) {
      consider(ideal + geom::Point{r, dy});
      consider(ideal + geom::Point{-r, dy});
    }
  }
  return best;
}

/// The former feasibility check: frozen placement must stay overlap-free.
bool reference_feasible(const Diagram& dia) {
  const Network& net = dia.network();
  bool feasible = true;
  for (ModuleId a = 0; a < net.module_count() && feasible; ++a) {
    if (!dia.module_placed(a)) {
      feasible = false;
      break;
    }
    for (ModuleId b = a + 1; b < net.module_count(); ++b) {
      if (dia.module_placed(b) &&
          dia.module_rect(a).overlaps(dia.module_rect(b))) {
        feasible = false;
        break;
      }
    }
  }
  return feasible;
}

/// The former clearance loop: a surviving system terminal keeps its spot
/// unless a placed module now covers it.
bool reference_clear(const Diagram& dia, geom::Point pos) {
  const Network& net = dia.network();
  bool clear = true;  // a re-placed partition may have grown over the spot
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    if (dia.module_placed(m) && dia.module_rect(m).contains(pos)) {
      clear = false;
      break;
    }
  }
  return clear;
}

// ----- seeded layouts ----------------------------------------------------------

struct Layout {
  std::unique_ptr<Network> net;
  std::unique_ptr<Diagram> dia;
  std::vector<ModuleId> frozen;   ///< placed modules the insertion avoids
  std::vector<geom::Rect> pinned; ///< holes promised this pass
  geom::Rect area;                ///< hull of everything drawn
};

/// Modules on a jittered grid whose pitch is close to the module size, so
/// neighbours are often apart by one track, often touch edge to edge (and
/// so overlap: rectangles are closed) and sometimes overlap more; plus a
/// few routed nets drawn as random orthogonal walks.
Layout random_layout(std::mt19937_64& rng) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Layout l;
  l.net = std::make_unique<Network>();
  const int modules = pick(2, 30);
  for (int m = 0; m < modules; ++m) {
    l.net->add_module("m" + std::to_string(m), "", {pick(1, 4), pick(1, 4)});
  }
  const int nets = pick(1, 6);
  for (int n = 0; n < nets; ++n) l.net->add_net("n" + std::to_string(n));
  l.dia = std::make_unique<Diagram>(*l.net);

  const int cols = pick(1, 6);
  const int px = pick(3, 7), py = pick(3, 7);
  const geom::Point origin{pick(-20, 20), pick(-20, 20)};
  const bool sparse = pick(0, 3) == 0;  // most layouts: nearly feasible
  for (ModuleId m = 0; m < modules; ++m) {
    if (pick(0, 40) == 0) continue;  // unplaced
    const geom::Point pos = origin + geom::Point{(m % cols) * px + (sparse ? 0 : pick(-1, 1)),
                                                 (m / cols) * py + (sparse ? 0 : pick(-1, 1))};
    l.dia->place_module(m, pos, geom::kAllRots[pick(0, 3)]);
    l.area = l.area.hull(l.dia->module_rect(m));
    if (pick(0, 4) != 0) l.frozen.push_back(m);
  }
  if (l.area.empty()) l.area = geom::Rect{origin, origin};

  for (NetId n = 0; n < nets; ++n) {
    for (int k = pick(1, 4); k > 0; --k) {
      geom::Point p{pick(l.area.lo.x - 3, l.area.hi.x + 3),
                    pick(l.area.lo.y - 3, l.area.hi.y + 3)};
      std::vector<geom::Point> pl = {p};
      if (pick(0, 5) != 0) {
        for (int s = pick(1, 5); s > 0; --s) {
          const int len = pick(0, 8) * (pick(0, 1) ? 1 : -1);
          if (pick(0, 12) == 0) {
            p += geom::Point{len, pick(1, 3)};  // non-orthogonal: not drawn
          } else if (pl.size() % 2 == 1) {
            p += geom::Point{len, 0};
          } else {
            p += geom::Point{0, len};
          }
          pl.push_back(p);
        }
      }
      l.dia->route(n).polylines.push_back(std::move(pl));
    }
  }
  for (int k = pick(0, 3); k > 0; --k) {
    const geom::Point lo{pick(l.area.lo.x - 4, l.area.hi.x),
                         pick(l.area.lo.y - 4, l.area.hi.y)};
    l.pinned.push_back(geom::Rect::from_size(lo, {pick(0, 5), pick(0, 5)}));
  }
  return l;
}

constexpr int kLayouts = 400;

TEST(IncPlaceOracle, SummedAreaCountsMatchPointLoops) {
  std::mt19937_64 rng(0x5a7);
  for (int seed = 0; seed < kLayouts; ++seed) {
    SCOPED_TRACE(seed);
    const Layout l = random_layout(rng);
    const RoutedCells ref(*l.dia);
    const PointCounts cells = routed_cells(*l.dia);
    const PointCounts cover = symbol_cover(*l.dia, l.frozen);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    for (int q = 0; q < 20; ++q) {
      const geom::Rect r = geom::Rect::from_size(
          {pick(l.area.lo.x - 6, l.area.hi.x + 2), pick(l.area.lo.y - 6, l.area.hi.y + 2)},
          {pick(0, 8), pick(0, 8)});
      ASSERT_EQ(cells.count(r), ref.covered(r)) << geom::to_string(r);
      int under = 0;
      for (int x = r.lo.x; x <= r.hi.x; ++x) {
        for (int y = r.lo.y; y <= r.hi.y; ++y) {
          bool hit = false;
          for (const ModuleId m : l.frozen) hit = hit || l.dia->module_rect(m).contains(geom::Point{x, y});
          under += hit ? 1 : 0;
        }
      }
      ASSERT_EQ(cover.count(r), under) << geom::to_string(r);
    }
  }
}

TEST(IncPlaceOracle, GravityVacancyPicksTheSameCell) {
  std::mt19937_64 rng(0x9a7);
  int found = 0, none = 0;
  for (int seed = 0; seed < kLayouts; ++seed) {
    SCOPED_TRACE(seed);
    const Layout l = random_layout(rng);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    std::vector<geom::Rect> obstacles;
    for (const ModuleId m : l.frozen) obstacles.push_back(l.dia->module_rect(m));
    obstacles.insert(obstacles.end(), l.pinned.begin(), l.pinned.end());
    const RoutedCells ref_cells(*l.dia);
    const PointCounts frozen = symbol_cover(*l.dia, l.frozen);
    const PointCounts cells = routed_cells(*l.dia);
    for (int q = 0; q < 3; ++q) {
      const geom::Point size{pick(1, 6), pick(1, 6)};
      const geom::Point ideal{pick(l.area.lo.x - 3, l.area.hi.x + 3),
                              pick(l.area.lo.y - 3, l.area.hi.y + 3)};
      const int spacing = pick(1, 2);
      // Small radii make "no legal cell" outcomes; the full one is what
      // incremental_place passes.
      const int max_radius = pick(0, 2) == 0
                                 ? pick(0, 3)
                                 : std::max(l.area.width(), l.area.height()) / 2 +
                                       std::max(size.x, size.y) + spacing + 1;
      const auto want =
          reference_vacancy(ideal, size, obstacles, spacing, max_radius, ref_cells);
      const auto got =
          gravity_vacancy(ideal, size, frozen, l.pinned, spacing, max_radius, cells);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (want) {
        ASSERT_EQ(*got, *want);
        ++found;
      } else {
        ++none;
      }
    }
  }
  EXPECT_GT(found, 100);
  EXPECT_GT(none, 20);
}

TEST(IncPlaceOracle, FeasibilitySweepMatchesPairLoop) {
  std::mt19937_64 rng(0xfea5);
  int feasible = 0, infeasible = 0;
  for (int seed = 0; seed < kLayouts; ++seed) {
    SCOPED_TRACE(seed);
    const Layout l = random_layout(rng);
    const bool want = reference_feasible(*l.dia);
    ASSERT_EQ(placement_feasible(*l.dia), want);
    ++(want ? feasible : infeasible);
  }
  EXPECT_GT(feasible, 40);
  EXPECT_GT(infeasible, 40);
}

// Edge-to-edge contact is an overlap (closed rectangles): a sweep that
// stops before a left edge equal to the current right edge misses it.
TEST(IncPlaceOracle, TouchingSymbolsAreInfeasible) {
  Network net;
  net.add_module("a", "", {3, 2});
  net.add_module("b", "", {2, 2});
  Diagram dia(net);
  dia.place_module(0, {0, 0});
  dia.place_module(1, {3, 1});  // b's left edge is a's right edge
  EXPECT_FALSE(reference_feasible(dia));
  EXPECT_FALSE(placement_feasible(dia));
  dia.place_module(1, {4, 1});
  EXPECT_TRUE(reference_feasible(dia));
  EXPECT_TRUE(placement_feasible(dia));
}

TEST(IncPlaceOracle, ClearedSystemTerminalsMatchModuleLoop) {
  std::mt19937_64 rng(0xc1ea);
  int clear = 0, covered = 0;
  for (int seed = 0; seed < kLayouts; ++seed) {
    SCOPED_TRACE(seed);
    const Layout l = random_layout(rng);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    std::vector<geom::Point> spots;
    for (int k = pick(0, 12); k > 0; --k) {
      spots.push_back({pick(l.area.lo.x - 3, l.area.hi.x + 3),
                       pick(l.area.lo.y - 3, l.area.hi.y + 3)});
    }
    // Symbol corners and the points just beyond them.
    for (ModuleId m = 0; m < l.net->module_count(); ++m) {
      if (!l.dia->module_placed(m) || pick(0, 3) != 0) continue;
      const geom::Rect r = l.dia->module_rect(m);
      spots.push_back(r.hi);
      spots.push_back(r.lo - geom::Point{1, 0});
    }
    const std::vector<bool> got = uncovered_spots(*l.dia, spots);
    ASSERT_EQ(got.size(), spots.size());
    for (size_t i = 0; i < spots.size(); ++i) {
      const bool want = reference_clear(*l.dia, spots[i]);
      ASSERT_EQ(got[i], want) << geom::to_string(spots[i]);
      ++(want ? clear : covered);
    }
  }
  EXPECT_GT(clear, 200);
  EXPECT_GT(covered, 200);
}

}  // namespace
}  // namespace na
