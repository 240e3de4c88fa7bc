// Equivalence tests for region-scoped validation: validate_region over a
// region covering the interesting geometry must report exactly the issues
// full validate_diagram reports — on clean patched diagrams (both empty),
// on deliberately corrupted diagrams (both the same non-empty set), and
// across the incremental engine's edit-scenario corpus where the region is
// the patch router's dirty hull.  Issue lists are compared sorted: report
// order is not part of the contract (validate_oracle_test pins the issue
// sets against the former hash-map checker).  The ValidateRegionNets
// suite pins the narrowed contract: with a net set, connectivity is
// re-proved only for the flagged nets, and a session that passes only the
// nets its patches drew stays byte-identical to one validating in full.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/chain.hpp"
#include "gen/datapath.hpp"
#include "gen/life.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "route/net_order.hpp"
#include "route/router.hpp"
#include "schematic/escher_writer.hpp"
#include "schematic/validate.hpp"

namespace na {
namespace {

RegenOptions life_options() {
  RegenOptions opt;
  opt.generator.placer.max_part_size = 3;
  opt.generator.placer.max_box_size = 3;
  opt.generator.placer.module_spacing = 1;
  opt.generator.placer.partition_spacing = 2;
  opt.generator.router.margin = 12;
  opt.generator.router.order_criterion =
      static_cast<int>(NetOrderCriterion::LongestFirst);
  return opt;
}

RegenOptions datapath_options() {
  RegenOptions opt;
  opt.generator.placer.max_part_size = 5;
  opt.generator.placer.max_box_size = 3;
  return opt;
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// A rect no diagram geometry escapes: full validation through the region-
/// scoped code path.
constexpr geom::Rect kEverywhere{{-1000, -1000}, {1000, 1000}};

/// Routed hand-placed LIFE diagram, rebuilt fresh so tests can corrupt it.
Diagram routed_life(const Network& net) {
  Diagram dia(net);
  gen::life_hand_placement(dia);
  const RegenOptions opt = life_options();
  EXPECT_EQ(route_all(dia, opt.generator.router).nets_failed, 0);
  return dia;
}

TEST(ValidateRegion, EmptyRegionReportsNothing) {
  const Network net = gen::life_network();
  const Diagram dia = routed_life(net);
  EXPECT_TRUE(validate_region(dia, geom::Rect{}).empty());
}

TEST(ValidateRegion, CleanDiagramIsCleanEverywhere) {
  const Network net = gen::life_network();
  const Diagram dia = routed_life(net);
  EXPECT_TRUE(validate_diagram(dia).empty());
  EXPECT_TRUE(validate_region(dia, kEverywhere).empty());
}

// Three injected violations at once — a net dragged through a module
// symbol, one net's polyline duplicated into another net (overlap + node
// contact), and a routed net with a deleted polyline (disconnected figure).
// Region validation over a region covering everything must reproduce the
// full report verbatim.
TEST(ValidateRegion, WholeBoundsEqualsFullValidationOnCorruptedDiagram) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);

  // Violation 1: a stray polyline of net 0 inside module 5's symbol.
  const geom::Rect sym = dia.module_rect(5);
  dia.route(0).polylines.push_back(
      {{sym.lo.x + 1, sym.lo.y + 1}, {sym.lo.x + 2, sym.lo.y + 1}});

  // Violation 2: net 2 claims a copy of net 1's first polyline.
  ASSERT_FALSE(dia.route(1).polylines.empty());
  dia.route(2).polylines.push_back(dia.route(1).polylines.front());

  // Violation 3: a multi-polyline routed net loses one figure.
  for (NetId n = 3; n < net.net_count(); ++n) {
    if (dia.route(n).routed && dia.route(n).polylines.size() > 1) {
      dia.route(n).polylines.pop_back();
      break;
    }
  }

  const std::vector<std::string> full = sorted(validate_diagram(dia));
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(sorted(validate_region(dia, kEverywhere)), full);
}

// A corruption confined to a small region: validating just that region
// must report exactly what full validation reports (the rest of the
// diagram is clean, so the two sets coincide).
TEST(ValidateRegion, ScopedRegionSeesLocalCorruption) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);

  const geom::Rect sym = dia.module_rect(4);
  dia.route(0).polylines.push_back(
      {{sym.lo.x + 1, sym.lo.y + 1}, {sym.lo.x + 2, sym.lo.y + 1}});

  const std::vector<std::string> full = sorted(validate_diagram(dia));
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(sorted(validate_region(dia, sym.expanded(2))), full);
  // Looking somewhere else entirely sees nothing — out-of-region issues
  // are not searched for (that is the escalation rule's job).
  const geom::Rect elsewhere{{sym.hi.x + 50, sym.hi.y + 50},
                             {sym.hi.x + 60, sym.hi.y + 60}};
  EXPECT_TRUE(validate_region(dia, elsewhere).empty());
}

// require_all_routed: a net with drawn geometry flagged unrouted is
// reported by both modes when its geometry touches the region.
TEST(ValidateRegion, UnroutedNetWithGeometryIsReported) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);
  for (NetId n = 0; n < net.net_count(); ++n) {
    if (dia.route(n).routed && !dia.route(n).polylines.empty()) {
      dia.route(n).routed = false;
      break;
    }
  }
  const std::vector<std::string> full =
      sorted(validate_diagram(dia, /*require_all_routed=*/true));
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(sorted(validate_region(dia, kEverywhere, true)), full);
}

// The edit-scenario corpus: every patched diagram, validated over the
// patch router's dirty hull (what RegenSession::update actually checks),
// must agree with full validation.  Both come out clean — the point is
// that the region verdict RegenSession trusts is never *weaker* than the
// full check on these diagrams.
TEST(ValidateRegion, DirtyRegionAgreesWithFullAcrossEditCorpus) {
  struct Scenario {
    const char* name;
    RegenOptions opt;
    Network base;
    Network edited;
    bool hand_placed;  ///< adopt the LIFE hand placement instead of generating
  };
  std::vector<Scenario> corpus;

  const Network life = gen::life_network();
  {
    NetworkEditor ed(life);
    ed.move_terminal("rule11", "we", {6, 11});
    corpus.push_back({"life_repin", life_options(), life, ed.build(), true});
  }
  {
    NetworkEditor ed(life);
    ed.add_module("probe", "probe", {4, 4});
    ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
    ed.connect("mode", "probe", "i");
    corpus.push_back(
        {"life_add_module", life_options(), life, ed.build(), true});
  }
  {
    NetworkEditor ed(life);
    ed.remove_net("alive0");
    corpus.push_back(
        {"life_delete_net", life_options(), life, ed.build(), true});
  }
  const Network dp = gen::datapath_network({8});
  {
    NetworkEditor ed(dp);
    ed.add_module("probe", "probe", {4, 4});
    ed.add_module_terminal("probe", "i", TermType::In, {0, 2});
    ed.connect("b2_acc", "probe", "i");
    corpus.push_back(
        {"datapath_add_module", datapath_options(), dp, ed.build(), false});
  }
  {
    NetworkEditor ed(dp);
    ed.remove_net("stat");
    corpus.push_back(
        {"datapath_delete_net", datapath_options(), dp, ed.build(), false});
  }

  for (Scenario& s : corpus) {
    SCOPED_TRACE(s.name);
    RegenSession session(s.opt);
    if (s.hand_placed) {
      Diagram hand(s.base);
      gen::life_hand_placement(hand);
      ASSERT_EQ(route_all(hand, s.opt.generator.router).nets_failed, 0);
      session.adopt(s.base, hand);
    } else {
      session.update(s.base);
    }
    const Diagram& inc = session.update(s.edited);
    ASSERT_EQ(session.last().incremental, 1) << "corpus edit must be patchable";

    const geom::Rect dirty = session.last().dirty_region;
    EXPECT_FALSE(dirty.empty()) << "patch must report a dirty region";
    EXPECT_EQ(sorted(validate_region(inc, dirty)), sorted(validate_diagram(inc)));
    EXPECT_TRUE(validate_region(inc, dirty).empty());
  }
}

// ----- narrowed connectivity: the net set ------------------------------------

bool is_connectivity(const std::string& issue) {
  return issue.find("disconnected") != std::string::npos ||
         issue.find("does not reach") != std::string::npos ||
         issue.find("has no geometry") != std::string::npos;
}

// Flagging every net narrows nothing: the result is the plain one, over the
// whole diagram and over a scoped region.
TEST(ValidateRegionNets, EveryNetFlaggedEqualsNoSet) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);
  const geom::Rect sym = dia.module_rect(5);
  dia.route(0).polylines.push_back(
      {{sym.lo.x + 1, sym.lo.y + 1}, {sym.lo.x + 2, sym.lo.y + 1}});
  dia.route(2).polylines.push_back(dia.route(1).polylines.front());

  const std::vector<bool> every(net.net_count(), true);
  ASSERT_FALSE(validate_region(dia, kEverywhere).empty());
  EXPECT_EQ(validate_region(dia, kEverywhere, false, &every),
            validate_region(dia, kEverywhere));
  EXPECT_EQ(validate_region(dia, sym.expanded(2), false, &every),
            validate_region(dia, sym.expanded(2)));
  EXPECT_EQ(validate_region(dia, kEverywhere, true, &every),
            validate_region(dia, kEverywhere, true));
}

// A net disconnected on purpose is reported when the set flags it and not
// looked at when it does not; the point rules run whatever the set says.
TEST(ValidateRegionNets, DisconnectedNetIsReportedOnlyWhenFlagged) {
  const Network net = gen::life_network();
  Diagram dia = routed_life(net);
  NetId cut = kNone;
  for (NetId n = 0; n < net.net_count() && cut == kNone; ++n) {
    if (dia.route(n).routed && dia.route(n).polylines.size() > 1) cut = n;
  }
  ASSERT_NE(cut, kNone);
  dia.route(cut).polylines.erase(dia.route(cut).polylines.begin());

  const std::vector<std::string> full = sorted(validate_diagram(dia));
  ASSERT_FALSE(full.empty());
  for (const std::string& issue : full) {
    EXPECT_TRUE(is_connectivity(issue)) << issue;
    EXPECT_NE(issue.find("'" + net.net(cut).name + "'"), std::string::npos) << issue;
  }
  std::vector<bool> only(net.net_count(), false);
  only[cut] = true;
  EXPECT_EQ(sorted(validate_region(dia, kEverywhere, false, &only)), full);
  std::vector<bool> others(net.net_count(), true);
  others[cut] = false;
  EXPECT_TRUE(validate_region(dia, kEverywhere, false, &others).empty());

  // A stray polyline inside a symbol: with no net flagged, the symbol-entry
  // rule still fires; only connectivity is left out.
  const geom::Rect sym = dia.module_rect(4);
  dia.route(0).polylines.push_back(
      {{sym.lo.x + 1, sym.lo.y + 1}, {sym.lo.x + 2, sym.lo.y + 1}});
  std::vector<std::string> point_rules;
  for (const std::string& issue : validate_diagram(dia)) {
    if (!is_connectivity(issue)) point_rules.push_back(issue);
  }
  ASSERT_FALSE(point_rules.empty());
  const std::vector<bool> none(net.net_count(), false);
  EXPECT_EQ(sorted(validate_region(dia, kEverywhere, false, &none)),
            sorted(point_rules));
}

TEST(ValidateRegionNets, SetMustFlagEveryNet) {
  const Network net = gen::life_network();
  const Diagram dia = routed_life(net);
  const std::vector<bool> short_set(net.net_count() - 1, true);
  EXPECT_THROW(validate_region(dia, kEverywhere, false, &short_set),
               std::invalid_argument);
}

/// The na_serve edit vocabulary over one design: phase A puts a probe
/// module on a random net or re-pins a random module terminal to a free
/// spot on its side; phase B undoes it, so the netlist is stationary.
class EditStream {
 public:
  EditStream(const Network& base, std::uint64_t seed) : base_(base), rng_(seed) {
    for (TermId t = 0; t < base_.term_count(); ++t) {
      if (!base_.term(t).is_system() && !free_spots(t).empty()) movable_.push_back(t);
    }
  }

  /// The network after the next phase, built from `current`.
  Network next(const Network& current) {
    NetworkEditor ed(current);
    if (undo_) {
      undo_(ed);
      undo_ = nullptr;
    } else if (movable_.empty() || pick(0, 1) == 0) {
      const int w = pick(3, 5), h = pick(3, 5);
      ed.add_module("probe", "", {w, h});
      ed.add_module_terminal("probe", "p", TermType::In, {0, pick(1, h - 1)});
      ed.connect(base_.net(pick(0, base_.net_count() - 1)).name, "probe", "p");
      undo_ = [](NetworkEditor& e) { e.remove_module("probe"); };
    } else {
      const TermId t = movable_[static_cast<size_t>(
          pick(0, static_cast<int>(movable_.size()) - 1))];
      const Terminal& term = base_.term(t);
      const std::string module = base_.module(term.module).name;
      const std::vector<geom::Point> spots = free_spots(t);
      ed.move_terminal(module, term.name,
                       spots[static_cast<size_t>(pick(0, static_cast<int>(spots.size()) - 1))]);
      undo_ = [module, name = term.name, pos = term.pos](NetworkEditor& e) {
        e.move_terminal(module, name, pos);
      };
    }
    return ed.build();
  }

 private:
  int pick(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }

  /// Non-corner points on the terminal's side of its module that no
  /// terminal of that module occupies.
  std::vector<geom::Point> free_spots(TermId id) const {
    const Terminal& t = base_.term(id);
    const Module& mod = base_.module(t.module);
    auto free = [&](geom::Point p) {
      return std::none_of(mod.terms.begin(), mod.terms.end(),
                          [&](TermId o) { return base_.term(o).pos == p; });
    };
    std::vector<geom::Point> spots;
    const bool vertical_side = t.pos.x == 0 || t.pos.x == mod.size.x;
    const int n = vertical_side ? mod.size.y : mod.size.x;
    for (int i = 1; i < n; ++i) {
      const geom::Point p = vertical_side ? geom::Point{t.pos.x, i} : geom::Point{i, t.pos.y};
      if (free(p)) spots.push_back(p);
    }
    return spots;
  }

  const Network& base_;
  std::mt19937_64 rng_;
  std::vector<TermId> movable_;
  std::function<void(NetworkEditor&)> undo_;
};

// A session validating only the nets its patches drew must produce exactly
// the diagrams of a twin validating every patch in full: every update stays
// incremental, none escalates to a full check, and the escher text agrees.
TEST(ValidateRegionNets, NarrowedSessionMatchesFullValidationTwin) {
  constexpr int kEdits = 240;
  const struct {
    const char* name;
    Network base;
  } designs[] = {{"datapath:16", gen::datapath_network({16})},
                 {"chain", gen::chain_network({})}};
  for (const auto& d : designs) {
    SCOPED_TRACE(d.name);
    RegenOptions full_opt;
    full_opt.validate_full = true;
    RegenSession narrowed, twin(full_opt);
    narrowed.update(d.base);
    twin.update(d.base);
    EditStream stream(d.base, 0x5e7e);
    Network current = d.base;
    for (int i = 0; i < kEdits; ++i) {
      SCOPED_TRACE(i);
      current = stream.next(current);
      const Diagram& a = narrowed.update(current);
      ASSERT_EQ(narrowed.last().incremental, 1);
      ASSERT_EQ(narrowed.last().region_validations, 1);
      ASSERT_EQ(narrowed.last().full_validations, 0);
      const Diagram& b = twin.update(current);
      ASSERT_EQ(twin.last().incremental, 1);
      ASSERT_EQ(to_escher_diagram(a, "t"), to_escher_diagram(b, "t"));
    }
    EXPECT_EQ(narrowed.totals().full_regens, 1);  // the opening generation
    EXPECT_EQ(narrowed.totals().full_validations, 0);
  }
}

}  // namespace
}  // namespace na
