#include "incremental/inc_place.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "incremental/vacancy.hpp"
#include "place/box_place.hpp"
#include "place/boxes.hpp"
#include "place/gravity.hpp"
#include "place/module_place.hpp"
#include "place/partition.hpp"
#include "place/partition_place.hpp"
#include "place/terminal_place.hpp"

namespace na {
namespace {

/// The frozen modules as one pinned pseudo-partition (the placer's own
/// preplaced-part treatment, Appendix E option -g).
PartitionLayout frozen_layout(const Diagram& dia,
                              const std::vector<ModuleId>& frozen,
                              geom::Rect hull) {
  PartitionLayout part;
  for (ModuleId m : frozen) {
    BoxLayout box;
    box.modules = {m};
    box.rot = {dia.placed(m).rot};
    box.pos = {{0, 0}};
    box.size = dia.module_size(m);
    part.boxes.push_back(std::move(box));
    part.box_pos.push_back(dia.placed(m).pos - hull.lo);
  }
  part.size = {hull.width(), hull.height()};
  return part;
}

/// The old arrangement of a dirty partition whose membership and module
/// sizes are unchanged, rebuilt as a pinnable layout over the NEW ids.
PartitionLayout refresh_layout(const Diagram& old_dia, const NetlistDiff& diff,
                               const std::vector<ModuleId>& partition,
                               geom::Rect hull) {
  PartitionLayout part;
  for (ModuleId m : partition) {
    const ModuleId om = diff.module_to_old[m];
    BoxLayout box;
    box.modules = {m};
    box.rot = {old_dia.placed(om).rot};
    box.pos = {{0, 0}};
    box.size = old_dia.module_size(om);
    part.boxes.push_back(std::move(box));
    part.box_pos.push_back(old_dia.placed(om).pos - hull.lo);
  }
  part.size = {hull.width(), hull.height()};
  return part;
}

/// Gravity centre of a dirty partition's nets over the endpoints whose
/// positions are already known — frozen module terminals (placed in `dia`)
/// and system terminals surviving from the old diagram.  This is the
/// partition-level GRAVITY_PLACED_BOXES sum of section 4.6.6, taken over
/// the preplaced part instead of over previously placed partitions, so an
/// *added* module is pulled toward the modules it talks to (readability
/// rule 2) instead of toward whatever edge of the frozen hull is nearest.
std::optional<geom::Point> net_gravity_center(
    const Diagram& dia, const Diagram& old_dia, const NetlistDiff& diff,
    const std::vector<ModuleId>& partition) {
  const Network& net = dia.network();
  std::unordered_set<ModuleId> members(partition.begin(), partition.end());
  std::unordered_set<NetId> nets;
  for (ModuleId m : partition) {
    for (TermId t : net.module(m).terms) {
      if (net.term(t).net != kNone) nets.insert(net.term(t).net);
    }
  }
  std::int64_t sx = 0, sy = 0, cnt = 0;
  for (NetId n : nets) {
    for (TermId t : net.net(n).terms) {
      const Terminal& term = net.term(t);
      geom::Point p;
      if (term.is_system()) {
        const TermId ot = diff.term_to_old[t];
        if (ot == kNone || !old_dia.system_term_placed(ot)) continue;
        p = old_dia.term_pos(ot);
      } else {
        if (members.contains(term.module) || !dia.module_placed(term.module)) {
          continue;
        }
        p = dia.term_pos(t);
      }
      sx += p.x;
      sy += p.y;
      ++cnt;
    }
  }
  if (cnt == 0) return std::nullopt;
  return geom::Point{static_cast<int>(sx / cnt), static_cast<int>(sy / cnt)};
}

}  // namespace

IncPlaceResult incremental_place(Diagram& dia, const Diagram& old_dia,
                                 const NetlistDiff& diff, const DirtyInfo& dirty,
                                 const PlacementInfo& old_info,
                                 const PlacerOptions& opt) {
  const Network& net = dia.network();
  IncPlaceResult result;

  // ----- freeze clean modules at their cached positions ----------------------
  std::vector<ModuleId> frozen;
  std::vector<bool> dirty_mask(net.module_count(), false);
  for (ModuleId m = 0; m < net.module_count(); ++m) {
    const ModuleId om = diff.module_to_old[m];
    if (!dirty.module_dirty[m] && om != kNone && old_dia.module_placed(om)) {
      const PlacedModule& pm = old_dia.placed(om);
      dia.place_module(m, pm.pos, pm.rot);
      frozen.push_back(m);
    } else {
      dirty_mask[m] = true;
    }
  }
  result.modules_frozen = static_cast<int>(frozen.size());

  // ----- re-place the dirty set through the section-4.6 pipeline -------------
  std::vector<std::vector<ModuleId>> new_partitions;
  std::vector<std::vector<Box>> new_boxes;
  if (result.modules_frozen < net.module_count()) {
    const PartitionLimits limits{opt.max_part_size, opt.max_connections};
    new_partitions = partition_network(net, limits, dirty_mask);

    std::vector<PartitionLayout> layouts;
    std::vector<std::optional<geom::Point>> fixed_pos;
    geom::Rect frozen_hull;
    for (ModuleId m : frozen) frozen_hull = frozen_hull.hull(dia.module_rect(m));
    if (!frozen.empty()) {
      layouts.push_back(frozen_layout(dia, frozen, frozen_hull));
      fixed_pos.push_back(frozen_hull.lo);
    }

    // Old module -> old partition index, for the in-place refresh test.
    const Network& old_net = old_dia.network();
    std::vector<int> old_part_of(old_net.module_count(), -1);
    for (size_t p = 0; p < old_info.partitions.size(); ++p) {
      for (ModuleId om : old_info.partitions[p]) {
        old_part_of[om] = static_cast<int>(p);
      }
    }

    std::vector<geom::Rect> pinned;  // holes already promised to a partition
    // Built on the first gravity seed: the frozen symbols and the cached
    // diagram's routed cells as summed-area tables.
    std::optional<PointCounts> frozen_cover;
    std::optional<PointCounts> routed;
    for (const auto& partition : new_partitions) {
      // In-place refresh: when the partition's membership and module sizes
      // are unchanged (the edit moved a terminal pin or rewired a net), the
      // old arrangement is still the right one — re-running the box layout
      // would spread the group into space it does not have and tear up
      // every net it touches.  Keep the old geometry verbatim.
      int old_part = -1;
      bool unchanged = !partition.empty();
      for (ModuleId m : partition) {
        const ModuleId om = diff.module_to_old[m];
        if (om == kNone || !old_dia.module_placed(om) ||
            old_net.module(om).size != net.module(m).size ||
            old_part_of[om] == -1 ||
            (old_part != -1 && old_part_of[om] != old_part)) {
          unchanged = false;
          break;
        }
        old_part = old_part_of[om];
      }
      if (unchanged &&
          old_info.partitions[old_part].size() == partition.size()) {
        geom::Rect hull;
        for (ModuleId m : partition) {
          hull = hull.hull(old_dia.module_rect(diff.module_to_old[m]));
        }
        bool clear = true;  // old rects cannot hit frozen ones, only holes
        for (const geom::Rect& r : pinned) {
          if (hull.overlaps(r)) clear = false;
        }
        if (clear) {
          layouts.push_back(refresh_layout(old_dia, diff, partition, hull));
          fixed_pos.push_back(hull.lo);
          pinned.push_back(hull);
          std::vector<Box> boxes;
          for (const Box& ob : old_info.boxes[old_part]) {
            Box nb;
            for (ModuleId om : ob) nb.push_back(diff.module_to_new[om]);
            boxes.push_back(std::move(nb));
          }
          new_boxes.push_back(std::move(boxes));
          continue;
        }
      }

      auto boxes = form_boxes(net, partition, opt.max_box_size);
      std::vector<BoxLayout> box_layouts;
      box_layouts.reserve(boxes.size());
      for (const Box& b : boxes) {
        box_layouts.push_back(place_box_modules(net, b, opt.module_spacing));
      }
      PartitionLayout layout =
          place_boxes(net, std::move(box_layouts), opt.box_spacing);

      // Hole pinning: the hull the partition's modules vacated in the old
      // diagram.  Pin the new layout there when it fits and collides with
      // nothing frozen and no other pinned hole.
      std::optional<geom::Point> pin;
      geom::Rect hole;
      bool all_existed = !partition.empty();
      for (ModuleId m : partition) {
        const ModuleId om = diff.module_to_old[m];
        if (om == kNone || !old_dia.module_placed(om)) {
          all_existed = false;
          break;
        }
        hole = hole.hull(old_dia.module_rect(om));
      }
      if (all_existed && layout.size.x <= hole.width() &&
          layout.size.y <= hole.height()) {
        const geom::Rect target = geom::Rect::from_size(hole.lo, layout.size);
        bool clear = true;
        for (ModuleId m : frozen) {
          if (target.expanded(opt.partition_spacing)
                  .overlaps(dia.module_rect(m))) {
            clear = false;
            break;
          }
        }
        for (const geom::Rect& r : pinned) {
          if (target.overlaps(r)) clear = false;
        }
        if (clear) {
          pin = hole.lo;
          pinned.push_back(target);
        }
      }

      // Gravity seeding: a partition without a vacated hole (added modules,
      // or a refreshed group that outgrew its hole) is pulled toward the
      // gravity centre of its nets' already-placed endpoints and dropped on
      // the nearest vacancy — testing against the *individual* frozen
      // module rectangles, so holes inside the frozen hull are usable and
      // the ring search expands the hull locally when they are not.  Only
      // when no legal cell exists within the bounded radius does the
      // partition fall through to place_partitions, which treats the
      // frozen part as one solid rectangle and lines it up at the edge.
      if (!pin && !frozen.empty()) {
        if (const auto center =
                net_gravity_center(dia, old_dia, diff, partition)) {
          const geom::Point ideal = *center - geom::Point{layout.size.x / 2,
                                                          layout.size.y / 2};
          const int spacing = std::max(opt.module_spacing, 1);
          const int max_radius =
              std::max(frozen_hull.width(), frozen_hull.height()) / 2 +
              std::max(layout.size.x, layout.size.y) + spacing + 1;
          if (!routed) {
            frozen_cover = symbol_cover(dia, frozen);
            routed = routed_cells(old_dia);
          }
          if (const auto spot =
                  gravity_vacancy(ideal, layout.size, *frozen_cover, pinned,
                                  spacing, max_radius, *routed)) {
            pin = *spot;
            pinned.push_back(geom::Rect::from_size(*spot, layout.size));
          }
        }
      }
      layouts.push_back(std::move(layout));
      fixed_pos.push_back(pin);
      new_boxes.push_back(std::move(boxes));
    }

    const FullLayout full =
        place_partitions(net, std::move(layouts), opt.partition_spacing, fixed_pos);
    for (size_t p = 0; p < full.partitions.size(); ++p) {
      const PartitionLayout& part = full.partitions[p];
      for (size_t b = 0; b < part.boxes.size(); ++b) {
        const BoxLayout& box = part.boxes[b];
        for (size_t i = 0; i < box.modules.size(); ++i) {
          const ModuleId m = box.modules[i];
          if (dia.module_placed(m)) continue;  // frozen stays put
          dia.place_module(m, full.partition_pos[p] + part.box_pos[b] + box.pos[i],
                           box.rot[i]);
          ++result.modules_replaced;
        }
      }
    }
  }

  // ----- system terminals: keep survivors, ring-place the rest ---------------
  // A re-placed partition may have grown over a survivor's spot.
  std::vector<TermId> survivors;
  std::vector<geom::Point> spots;
  for (TermId st : net.system_terms()) {
    const TermId ot = diff.term_to_old[st];
    if (ot == kNone || !old_dia.system_term_placed(ot)) continue;
    survivors.push_back(st);
    spots.push_back(old_dia.term_pos(ot));
  }
  const std::vector<bool> clear = uncovered_spots(dia, spots);
  for (size_t i = 0; i < survivors.size(); ++i) {
    if (clear[i]) dia.place_system_term(survivors[i], spots[i]);
  }
  place_system_terminals(dia);

  // ----- feasibility: frozen placement must stay overlap-free ----------------
  result.feasible = placement_feasible(dia);

  // ----- merged structure: carried-over clean partitions + the new ones ------
  for (size_t p = 0; p < old_info.partitions.size(); ++p) {
    if (p < dirty.partition_dirty.size() && dirty.partition_dirty[p]) continue;
    std::vector<ModuleId> mapped;
    for (ModuleId om : old_info.partitions[p]) {
      const ModuleId nm = diff.module_to_new[om];
      if (nm != kNone) mapped.push_back(nm);
    }
    if (mapped.empty()) continue;
    std::vector<Box> boxes;
    if (p < old_info.boxes.size()) {
      for (const Box& ob : old_info.boxes[p]) {
        Box nb;
        for (ModuleId om : ob) {
          const ModuleId nm = diff.module_to_new[om];
          if (nm != kNone) nb.push_back(nm);
        }
        if (!nb.empty()) boxes.push_back(std::move(nb));
      }
    }
    result.info.partitions.push_back(std::move(mapped));
    result.info.boxes.push_back(std::move(boxes));
  }
  for (size_t p = 0; p < new_partitions.size(); ++p) {
    result.info.partitions.push_back(std::move(new_partitions[p]));
    result.info.boxes.push_back(std::move(new_boxes[p]));
  }
  return result;
}

}  // namespace na
