// Equivalence tests for region-scoped validation: validate_region over a
// region covering the interesting geometry must report exactly the issues
// full validate_diagram reports — on clean patched diagrams (both empty),
// on deliberately corrupted diagrams (both the same non-empty set), and
// across the incremental engine's edit-scenario corpus where the region is
// the patch router's dirty hull.  Issue lists are compared sorted: report
// order is not part of the contract (validate_oracle_test pins the issue
// sets against the former hash-map checker).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/datapath.hpp"
#include "gen/life.hpp"
#include "incremental/edit.hpp"
#include "incremental/session.hpp"
#include "route/net_order.hpp"
#include "route/router.hpp"
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

}  // namespace
}  // namespace na
