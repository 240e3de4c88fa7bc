// Oracle test for the validator: the rasterized validate_diagram and
// validate_region must report exactly the issues of the hash-map checker
// they replaced, kept below verbatim as the reference (with the one rule
// change both share: nets with fewer than two terminals are not routable,
// as in the router).  Routed LIFE, datapath and synthetic-mesh diagrams are
// corrupted with a fixed seed until every message kind has appeared, and
// each corrupted diagram is validated in full and over seeded random
// regions.  Issue lists are compared sorted: report order is not part of
// the contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/generator.hpp"
#include "gen/datapath.hpp"
#include "gen/life.hpp"
#include "gen/synth.hpp"
#include "netlist/module_library.hpp"
#include "route/net_order.hpp"
#include "route/router.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

// ----- reference: the hash-map checker ---------------------------------------

std::uint64_t key_of(geom::Point p) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)) << 32) |
         static_cast<std::uint32_t>(p.y);
}

geom::Point point_of(std::uint64_t k) {
  return {static_cast<std::int32_t>(k >> 32),
          static_cast<std::int32_t>(k & 0xffffffffu)};
}

/// Shared checker body.  `region == nullptr` validates the whole diagram;
/// otherwise only geometry intersecting `*region` is examined (see the
/// scope rules on validate_region in the header).  The per-point work is
/// identical in both modes, so an in-region violation produces the same
/// message either way.
std::vector<std::string> validate_impl(const Diagram& dia,
                                       bool require_all_routed,
                                       const geom::Rect* region) {
  const Network& net = dia.network();
  std::vector<std::string> problems;
  auto report = [&](std::string msg) { problems.push_back(std::move(msg)); };
  auto in_scope = [&](geom::Point p) { return !region || region->contains(p); };

  // --- placement: everything placed, no symbol overlap ----------------------
  // Completeness is global (a property of the diagram, no geometry to
  // scope); the geometric checks run over the symbols touching the region.
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) report("module '" + net.module(m).name + "' unplaced");
  }
  for (TermId t : net.system_terms()) {
    if (!dia.system_term_placed(t)) {
      report("system terminal '" + net.term(t).name + "' unplaced");
    }
  }
  std::vector<int> scoped_mods;  // placed modules whose rect touches the scope
  for (int m = 0; m < net.module_count(); ++m) {
    if (!dia.module_placed(m)) continue;
    if (region && !region->overlaps(dia.module_rect(m))) continue;
    scoped_mods.push_back(m);
  }
  std::vector<TermId> scoped_terms;  // placed system terminals in scope
  for (TermId t : net.system_terms()) {
    if (!dia.system_term_placed(t)) continue;
    if (!in_scope(dia.term_pos(t))) continue;
    scoped_terms.push_back(t);
  }
  for (size_t i = 0; i < scoped_mods.size(); ++i) {
    const int a = scoped_mods[i];
    for (size_t j = i + 1; j < scoped_mods.size(); ++j) {
      const int b = scoped_mods[j];
      if (dia.module_rect(a).overlaps(dia.module_rect(b))) {
        report("modules '" + net.module(a).name + "' and '" + net.module(b).name +
               "' overlap");
      }
    }
  }
  for (size_t i = 0; i < scoped_terms.size(); ++i) {
    const TermId ti = scoped_terms[i];
    const geom::Point pi = dia.term_pos(ti);
    for (const int m : scoped_mods) {
      if (dia.module_rect(m).contains(pi)) {
        report("system terminal '" + net.term(ti).name + "' overlaps module '" +
               net.module(m).name + "'");
      }
    }
    for (size_t j = i + 1; j < scoped_terms.size(); ++j) {
      const TermId tj = scoped_terms[j];
      if (dia.term_pos(tj) == pi) {
        report("system terminals '" + net.term(ti).name + "' and '" +
               net.term(tj).name + "' coincide");
      }
    }
  }
  if (!problems.empty()) return problems;  // routing checks need full placement

  // --- per-net terminal cells ------------------------------------------------
  std::unordered_map<std::uint64_t, NetId> term_cell;  // point -> owning net
  for (int t = 0; t < net.term_count(); ++t) {
    const Terminal& term = net.term(t);
    if (term.net == kNone) continue;
    if (!in_scope(dia.term_pos(t))) continue;
    term_cell[key_of(dia.term_pos(t))] = term.net;
  }

  // --- routing geometry -------------------------------------------------------
  std::unordered_map<std::uint64_t, NetId> h_occ;
  std::unordered_map<std::uint64_t, NetId> v_occ;
  // Points where a net has a corner, branch, or endpoint ("nodes"): no other
  // net may touch these at all.
  std::unordered_map<std::uint64_t, NetId> node_of;
  std::vector<bool> touches(net.net_count(), region == nullptr);

  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (require_all_routed && region == nullptr && !r.routed &&
        net.net(n).terms.size() >= 2) {
      report("net '" + net.net(n).name + "' unrouted");
    }
    for (const auto& pl : r.polylines) {
      if (pl.size() < 2) {
        // A single point is only meaningful when joining at a terminal that
        // already lies on the net; treat as node.
        if (!pl.empty() && in_scope(pl[0])) {
          node_of[key_of(pl[0])] = n;
          touches[n] = true;
        }
        continue;
      }
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a.x != b.x && a.y != b.y) {
          if (!region || region->overlaps(geom::Segment{a, b}.bounds())) {
            report("net '" + net.net(n).name + "' has a non-orthogonal segment " +
                   geom::to_string(a) + "-" + geom::to_string(b));
          }
          continue;
        }
        if (a == b) continue;
        // Clip the segment to the scope, preserving its walk direction so
        // overlap reports come out in the same order as a full validation.
        geom::Point from = a;
        geom::Point to = b;
        if (region) {
          const geom::Rect clipped = [&] {
            const geom::Rect sb = geom::Segment{a, b}.bounds();
            return geom::Rect{{std::max(sb.lo.x, region->lo.x),
                               std::max(sb.lo.y, region->lo.y)},
                              {std::min(sb.hi.x, region->hi.x),
                               std::min(sb.hi.y, region->hi.y)}};
          }();
          if (clipped.empty()) continue;
          if (b.x >= a.x && b.y >= a.y) {
            from = clipped.lo;
            to = clipped.hi;
          } else {
            from = clipped.hi;
            to = clipped.lo;
          }
        }
        touches[n] = true;
        const bool horizontal = a.y == b.y;
        const geom::Point step = {(to.x > from.x) - (to.x < from.x),
                                  (to.y > from.y) - (to.y < from.y)};
        for (geom::Point p = from;; p += step) {
          auto& occ = horizontal ? h_occ : v_occ;
          auto [it, inserted] = occ.emplace(key_of(p), n);
          if (!inserted && it->second != n) {
            report("nets '" + net.net(n).name + "' and '" + net.net(it->second).name +
                   "' overlap at " + geom::to_string(p));
          }
          if (p == to) break;
        }
      }
      if (in_scope(pl.front())) node_of[key_of(pl.front())] = n;
      if (in_scope(pl.back())) node_of[key_of(pl.back())] = n;
      for (size_t i = 1; i + 1 < pl.size(); ++i) {
        if (in_scope(pl[i])) node_of[key_of(pl[i])] = n;  // corner
      }
    }
    if (require_all_routed && region != nullptr && !r.routed && touches[n] &&
        net.net(n).terms.size() >= 2) {
      report("net '" + net.net(n).name + "' unrouted");
    }
  }

  // --- nets vs module symbols and foreign terminals ---------------------------
  auto check_point = [&](geom::Point p, NetId n) {
    const auto tc = term_cell.find(key_of(p));
    const bool own_terminal = tc != term_cell.end() && tc->second == n;
    if (tc != term_cell.end() && tc->second != n) {
      report("net '" + net.net(n).name + "' touches a foreign terminal at " +
             geom::to_string(p));
      return;
    }
    if (own_terminal) return;
    for (const int m : scoped_mods) {
      if (dia.module_rect(m).contains(p)) {
        report("net '" + net.net(n).name + "' enters module '" + net.module(m).name +
               "' at " + geom::to_string(p));
        return;
      }
    }
    for (TermId t : scoped_terms) {
      if (dia.term_pos(t) == p && net.term(t).net != n) {
        report("net '" + net.net(n).name + "' covers system terminal '" +
               net.term(t).name + "'");
      }
    }
  };
  for (const auto& [pt, n] : h_occ) check_point(point_of(pt), n);
  for (const auto& [pt, n] : v_occ) {
    if (auto it = h_occ.find(pt); it == h_occ.end() || it->second != n) {
      check_point(point_of(pt), n);
    }
  }

  // --- node contact rule: a corner/endpoint of net A may not be touched by
  // any other net (crossing requires both straight through).
  for (const auto& [pt, n] : node_of) {
    for (const auto* occ : {&h_occ, &v_occ}) {
      auto it = occ->find(pt);
      if (it != occ->end() && it->second != n) {
        report("net '" + net.net(it->second).name + "' touches a node of net '" +
               net.net(n).name + "' at " + geom::to_string(point_of(pt)));
      }
    }
  }

  // --- connectivity: each routed net is one figure containing all terminals --
  // In region mode only the nets with in-scope geometry are re-checked, but
  // always over their *full* geometry: being one figure is not a local
  // property, and a patch can only disconnect a net at an edited point.
  for (NetId n = 0; n < net.net_count(); ++n) {
    const NetRoute& r = dia.route(n);
    if (!r.routed || !touches[n]) continue;
    std::unordered_set<std::uint64_t> points;
    for (const auto& pl : r.polylines) {
      for (size_t i = 1; i < pl.size(); ++i) {
        const geom::Point a = pl[i - 1];
        const geom::Point b = pl[i];
        if (a.x != b.x && a.y != b.y) continue;
        const geom::Point step = {(b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)};
        for (geom::Point p = a;; p += step) {
          points.insert(key_of(p));
          if (p == b) break;
        }
      }
      if (!pl.empty()) points.insert(key_of(pl.front()));
    }
    if (points.empty()) {
      report("net '" + net.net(n).name + "' marked routed but has no geometry");
      continue;
    }
    // BFS over unit adjacency within the point set.
    std::unordered_set<std::uint64_t> seen;
    std::queue<std::uint64_t> frontier;
    frontier.push(*points.begin());
    seen.insert(*points.begin());
    while (!frontier.empty()) {
      const geom::Point p = point_of(frontier.front());
      frontier.pop();
      for (geom::Dir d : geom::kAllDirs) {
        const std::uint64_t q = key_of(p + geom::delta(d));
        if (points.contains(q) && seen.insert(q).second) frontier.push(q);
      }
    }
    if (seen.size() != points.size()) {
      report("net '" + net.net(n).name + "' geometry is disconnected");
    }
    for (TermId t : net.net(n).terms) {
      if (!points.contains(key_of(dia.term_pos(t)))) {
        report("net '" + net.net(n).name + "' does not reach terminal '" +
               net.term(t).name + "'");
      }
    }
  }

  return problems;
}

// ----- corpus -----------------------------------------------------------------

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Every message kind the validator emits, told apart by how it starts and
/// a fixed fragment.
struct Kind {
  const char* starts;
  const char* contains;
};
constexpr std::array<Kind, 15> kKinds = {{
    {"module '", "' unplaced"},
    {"system terminal '", "' unplaced"},
    {"modules '", "' overlap"},
    {"system terminal '", "' overlaps module '"},
    {"system terminals '", "' coincide"},
    {"net '", "' unrouted"},
    {"net '", "non-orthogonal segment"},
    {"nets '", "' overlap at "},
    {"net '", "foreign terminal"},
    {"net '", "' enters module '"},
    {"net '", "covers system terminal"},
    {"net '", "touches a node of net"},
    {"net '", "has no geometry"},
    {"net '", "is disconnected"},
    {"net '", "does not reach terminal"},
}};

/// Index into kKinds of a message's kind; kKinds.size() if none.
size_t kind_of(const std::string& msg) {
  for (size_t k = 0; k < kKinds.size(); ++k) {
    const Kind& kind = kKinds[k];
    if (msg.starts_with(kind.starts) && msg.find(kind.contains) != std::string::npos) {
      return k;
    }
  }
  return kKinds.size();
}

/// A routed base design.  Its network carries one extra, unconnected
/// system terminal ("nc"), placed clear of everything, so that a net
/// covering it can be drawn.
struct Base {
  std::string name;
  std::unique_ptr<Network> net;  // the diagram points at it
  std::unique_ptr<Diagram> dia;
  TermId nc = kNone;
};

TermId add_bare_terminal(Network& net) {
  return net.add_system_terminal("nc", TermType::In);
}

/// Places the bare terminal two tracks beyond the placement's corner.
void park_bare_terminal(Diagram& dia, TermId nc) {
  dia.place_system_term(nc, dia.placement_bounds().hi + geom::Point{2, 2});
}

Base life_base() {
  Base b{"life", std::make_unique<Network>(gen::life_network()), nullptr, kNone};
  b.nc = add_bare_terminal(*b.net);
  b.dia = std::make_unique<Diagram>(*b.net);
  gen::life_hand_placement(*b.dia);
  park_bare_terminal(*b.dia, b.nc);
  RouterOptions ro;
  ro.margin = 12;
  ro.order_criterion = static_cast<int>(NetOrderCriterion::LongestFirst);
  EXPECT_EQ(route_all(*b.dia, ro).nets_failed, 0);
  return b;
}

/// Places with `opt`, parks the bare terminal, then routes.
Base generated_base(std::string name, Network net, GeneratorOptions opt) {
  Base b{std::move(name), std::make_unique<Network>(net), nullptr, kNone};
  const Diagram placed = generate_diagram(net, opt);  // without the bare terminal
  b.nc = add_bare_terminal(*b.net);
  b.dia = std::make_unique<Diagram>(*b.net);
  for (int m = 0; m < net.module_count(); ++m) {
    b.dia->place_module(m, placed.placed(m).pos, placed.placed(m).rot);
  }
  for (TermId t : net.system_terms()) b.dia->place_system_term(t, placed.term_pos(t));
  park_bare_terminal(*b.dia, b.nc);
  EXPECT_EQ(route_all(*b.dia, opt.router).nets_failed, 0);
  return b;
}

Base datapath_base() {
  GeneratorOptions opt;
  opt.placer.max_part_size = 5;
  opt.placer.max_box_size = 3;
  return generated_base("datapath", gen::datapath_network({8}), opt);
}

Base mesh_base() {
  gen::SynthOptions so;
  so.topology = gen::SynthTopology::GridMesh;
  so.modules = 64;
  so.seed = 1;
  GeneratorOptions opt;
  opt.placer.max_part_size = 8;
  opt.placer.max_box_size = 4;
  opt.placer.max_connections = 16;
  opt.router.margin = 6;
  return generated_base("mesh", gen::synth_network(so), opt);
}

/// Seeded corruptions of a routed diagram.
class Corruptor {
 public:
  Corruptor(const Base& base, std::mt19937& rng) : base_(base), rng_(rng) {}

  int uni(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }

  /// A fresh copy of the base diagram with 1–3 routing corruptions, or one
  /// placement corruption (which stops the routing checks) in one round
  /// out of eight.
  Diagram corrupt() {
    Diagram dia = *base_.dia;
    if (uni(0, 7) == 0) return corrupt_placement(dia);
    for (int k = uni(1, 3); k > 0; --k) corrupt_routing(dia);
    return dia;
  }

 private:
  const Network& net() const { return *base_.net; }
  NetId any_net() { return uni(0, net().net_count() - 1); }
  /// A net with drawn geometry.
  NetId drawn_net(const Diagram& dia) {
    for (;;) {
      const NetId n = any_net();
      if (!dia.route(n).polylines.empty()) return n;
    }
  }
  geom::Point any_point(const Diagram& dia) {
    const geom::Rect b = dia.placement_bounds();
    return {uni(b.lo.x, b.hi.x), uni(b.lo.y, b.hi.y)};
  }
  /// A point on a drawn polyline of `n`, between two of its corners.
  geom::Point point_on(const Diagram& dia, NetId n) {
    const auto& pls = dia.route(n).polylines;
    const auto& pl = pls[uni(0, static_cast<int>(pls.size()) - 1)];
    if (pl.size() < 2) return pl.front();
    const size_t i = uni(1, static_cast<int>(pl.size()) - 1);
    const geom::Rect seg = geom::Segment{pl[i - 1], pl[i]}.bounds();
    return {uni(seg.lo.x, seg.hi.x), uni(seg.lo.y, seg.hi.y)};
  }

  Diagram corrupt_placement(Diagram& dia) {
    const int modules = net().module_count();
    const auto& terms = net().system_terms();
    switch (uni(0, 3)) {
      case 0: {  // a module dropped onto another
        const ModuleId a = uni(0, modules - 1);
        const ModuleId b = uni(0, modules - 1);
        dia.place_module(a, dia.placed(b).pos + geom::Point{uni(-1, 1), uni(-1, 1)});
        break;
      }
      case 1: {  // a system terminal dropped onto another
        const TermId a = terms[uni(0, static_cast<int>(terms.size()) - 1)];
        const TermId b = terms[uni(0, static_cast<int>(terms.size()) - 1)];
        dia.place_system_term(a, dia.term_pos(b));
        break;
      }
      case 2: {  // a system terminal dropped into a module
        const TermId t = terms[uni(0, static_cast<int>(terms.size()) - 1)];
        const geom::Rect r = dia.module_rect(uni(0, modules - 1));
        dia.place_system_term(t, {uni(r.lo.x, r.hi.x), uni(r.lo.y, r.hi.y)});
        break;
      }
      default: {  // a module or system terminal left unplaced
        Diagram fresh(net());
        const ModuleId skip_m = uni(0, 1) ? uni(0, modules - 1) : kNone;
        const TermId skip_t =
            skip_m == kNone ? terms[uni(0, static_cast<int>(terms.size()) - 1)] : kNone;
        for (int m = 0; m < modules; ++m) {
          if (m != skip_m) fresh.place_module(m, dia.placed(m).pos, dia.placed(m).rot);
        }
        for (TermId t : terms) {
          if (t != skip_t) fresh.place_system_term(t, dia.term_pos(t));
        }
        for (NetId n = 0; n < net().net_count(); ++n) fresh.route(n) = dia.route(n);
        return fresh;
      }
    }
    return dia;
  }

  void corrupt_routing(Diagram& dia) {
    switch (uni(0, 12)) {
      case 0: {  // a diagonal step
        const geom::Point p = point_on(dia, drawn_net(dia));
        dia.route(drawn_net(dia)).polylines.push_back({p, p + geom::Point{1, uni(1, 2)}});
        break;
      }
      case 1: {  // one net's polyline copied into another
        const NetId from = drawn_net(dia);
        const auto& pls = dia.route(from).polylines;
        const auto pl = pls[uni(0, static_cast<int>(pls.size()) - 1)];
        dia.route(any_net()).polylines.push_back(pl);
        break;
      }
      case 2: {  // a run through some terminal cell
        const TermId t = uni(0, net().term_count() - 1);
        const geom::Point p = dia.term_pos(t);
        const geom::Point d =
            uni(0, 1) ? geom::Point{uni(1, 3), 0} : geom::Point{0, uni(1, 3)};
        dia.route(any_net()).polylines.push_back({p - d, p + d});
        break;
      }
      case 3: {  // a run across a module symbol
        const geom::Rect r = dia.module_rect(uni(0, net().module_count() - 1));
        const int y = uni(r.lo.y, r.hi.y);
        dia.route(any_net()).polylines.push_back({{r.lo.x - 1, y}, {r.hi.x + 1, y}});
        break;
      }
      case 4: {  // the bare system terminal moved onto a drawn run
        dia.place_system_term(base_.nc, point_on(dia, drawn_net(dia)));
        break;
      }
      case 5: {  // a single-point polyline on another net's run
        dia.route(any_net()).polylines.push_back({point_on(dia, drawn_net(dia))});
        break;
      }
      case 6: {  // a polyline deleted
        auto& pls = dia.route(drawn_net(dia)).polylines;
        pls.erase(pls.begin() + uni(0, static_cast<int>(pls.size()) - 1));
        break;
      }
      case 7: {  // a polyline shifted by one track
        auto& pls = dia.route(drawn_net(dia)).polylines;
        const geom::Point d = uni(0, 1) ? geom::Point{uni(0, 1) * 2 - 1, 0}
                                        : geom::Point{0, uni(0, 1) * 2 - 1};
        for (geom::Point& p : pls[uni(0, static_cast<int>(pls.size()) - 1)]) p += d;
        break;
      }
      case 8: {  // a polyline's end pulled back or pushed on by a track
        auto& pl = dia.route(drawn_net(dia)).polylines.front();
        if (pl.size() < 2) break;
        const geom::Point a = pl[pl.size() - 2];
        geom::Point& b = pl.back();
        const geom::Point step = {(b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)};
        b += uni(0, 1) ? step : geom::Point{-step.x, -step.y};
        break;
      }
      case 9:  // routed, but drawn nothing
        dia.route(drawn_net(dia)).polylines.clear();
        break;
      case 10:  // drawn, but not marked routed
        dia.route(drawn_net(dia)).routed = false;
        break;
      case 11: {  // an isolated far-away piece
        const geom::Point p =
            dia.placement_bounds().hi + geom::Point{uni(4, 9), uni(4, 9)};
        dia.route(drawn_net(dia)).polylines.push_back({p, p + geom::Point{uni(1, 3), 0}});
        break;
      }
      default: {  // a random L between two points of the placement
        const geom::Point a = any_point(dia);
        const geom::Point b = any_point(dia);
        dia.route(any_net()).polylines.push_back({a, {b.x, a.y}, b});
        break;
      }
    }
  }

  const Base& base_;
  std::mt19937& rng_;
};

/// Seeded regions over `dia`: random rectangles around its placement, some
/// reaching past it, some a module symbol with its surroundings.
std::vector<geom::Rect> regions_for(const Diagram& dia, std::mt19937& rng) {
  auto uni = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const geom::Rect b = dia.placement_bounds().expanded(4);
  std::vector<geom::Rect> out = {geom::Rect{{-1000, -1000}, {1000, 1000}}};
  for (int i = 0; i < 4; ++i) {
    const geom::Point lo{uni(b.lo.x, b.hi.x), uni(b.lo.y, b.hi.y)};
    out.push_back({lo, lo + geom::Point{uni(0, b.width() / 2), uni(0, b.height() / 2)}});
  }
  const Network& net = dia.network();
  const ModuleId m = uni(0, net.module_count() - 1);
  if (dia.module_placed(m)) out.push_back(dia.module_rect(m).expanded(uni(0, 3)));
  return out;
}

TEST(ValidateOracle, MatchesReferenceOnCorruptedDiagrams) {
  std::vector<Base> bases;
  bases.push_back(life_base());
  bases.push_back(datapath_base());
  bases.push_back(mesh_base());

  std::mt19937 rng(20261018);
  std::array<int, kKinds.size() + 1> seen{};
  int regions = 0, non_empty_regions = 0;
  for (const Base& base : bases) {
    SCOPED_TRACE(base.name);
    ASSERT_TRUE(validate_diagram(*base.dia, true).empty());
    ASSERT_TRUE(validate_impl(*base.dia, true, nullptr).empty());
    Corruptor corruptor(base, rng);
    for (int round = 0; round < 40; ++round) {
      const Diagram dia = corruptor.corrupt();
      const std::string what = "round " + std::to_string(round);
      for (const bool require : {false, true}) {
        const auto want = sorted(validate_impl(dia, require, nullptr));
        ASSERT_EQ(sorted(validate_diagram(dia, require)), want) << what;
        for (const std::string& msg : want) ++seen[kind_of(msg)];
        for (const geom::Rect& r : regions_for(dia, rng)) {
          const auto want_r = sorted(validate_impl(dia, require, &r));
          ASSERT_EQ(sorted(validate_region(dia, r, require)), want_r)
              << what << " region " << geom::to_string(r);
          ++regions;
          non_empty_regions += !want_r.empty();
        }
      }
    }
  }
  for (size_t k = 0; k < kKinds.size(); ++k) {
    EXPECT_GT(seen[k], 0) << "message kind never produced: " << kKinds[k].contains;
  }
  EXPECT_EQ(seen[kKinds.size()], 0) << "a message of no known kind";
  EXPECT_GT(non_empty_regions, regions / 4);
}

// A net with a single terminal is not routable: the router counts it as
// neither routed nor failed, and require_all_routed must not report it.
TEST(ValidateOracle, SingleTerminalNetIsNotUnrouted) {
  Network net;
  const ModuleLibrary lib = ModuleLibrary::standard_cells();
  const ModuleId a = lib.instantiate(net, "and2", "a0");
  const ModuleId o = lib.instantiate(net, "or2", "o0");
  const NetId n0 = net.add_net("n0");
  net.connect(n0, *net.term_by_name(a, "y"));
  net.connect(n0, *net.term_by_name(o, "a"));
  const NetId dangling = net.add_net("dangling");
  net.connect(dangling, *net.term_by_name(a, "a"));

  GeneratorOptions opt;
  opt.placer.max_part_size = 4;
  opt.placer.max_box_size = 4;
  GeneratorResult result;
  const Diagram dia = generate_diagram(net, opt, &result);
  EXPECT_EQ(result.route.nets_routed, 1);
  EXPECT_EQ(result.route.nets_failed, 0);
  EXPECT_FALSE(dia.route(dangling).routed);
  EXPECT_TRUE(validate_diagram(dia, /*require_all_routed=*/true).empty());
  const geom::Rect everywhere{{-1000, -1000}, {1000, 1000}};
  EXPECT_TRUE(validate_region(dia, everywhere, true).empty());

  // Drawn but unmarked, the same net still is not "unrouted" in a region;
  // a two-terminal net is.
  Diagram drawn = dia;
  const geom::Point p = dia.term_pos(*net.term_by_name(a, "a"));
  drawn.route(dangling).polylines.push_back({p, p - geom::Point{2, 0}});
  EXPECT_TRUE(validate_region(drawn, everywhere, true).empty());
  drawn.route(n0).routed = false;
  EXPECT_EQ(validate_diagram(drawn, true), std::vector<std::string>{"net 'n0' unrouted"});
  EXPECT_EQ(validate_region(drawn, everywhere, true),
            std::vector<std::string>{"net 'n0' unrouted"});
}

}  // namespace
}  // namespace na
