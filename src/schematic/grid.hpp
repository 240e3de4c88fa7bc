// The routing plane: a bounded grid of tracks with obstacle and net
// occupancy bookkeeping.
//
// This realises the obstacle model of paper section 5.6.2: module boundings
// and placed system terminals are obstacles; routed nets occupy tracks and
// may be *crossed* perpendicularly by other nets but never overlapped; a
// bend of a net occupies both orientations of its grid point, so no other
// net may pass there (the paper's "bends in nets" obstacles).  The border
// of the plane acts as a module bounding (out-of-bounds is blocked).
//
// Per grid point the grid tracks:
//   * blocked      — part of a module symbol / system terminal / plane edge,
//   * owner        — terminal cell: only the owning net may enter,
//   * h / v        — net occupying the point horizontally / vertically,
//   * claim        — claimpoint reservation (section 5.7).
//
// A Cell is 12 bytes: `h`, `v` and one 32-bit gate word that folds the
// other three into who may enter the point.  Gate bit 31 marks a blocked
// cell; bits 0-29 name the one net that may enter, or hold kAnyNet (every
// net: a free, unclaimed cell) or kNoNet (none).  So a free cell stores
// its claim there and a blocked one its terminal owner.  A blocked cell
// can carry a claim too (the API allows it; the router never makes one);
// such a cell sets gate bit 30 and keeps its owner and claim in a small
// side map, with bits 0-29 still saying who may enter.
//
// Beside the cells the grid keeps a closed mask, one bit per point, row by
// row in 64-bit words: the points no net may ever enter, that is blocked
// cells that are no terminal (module bodies, pure-obstacle system
// terminals).  Only block() and set_terminal() change it; commits (tracks
// and claims) never do, so it is static for a whole routing pass.  The
// search core's min-link bend bound reads it (route/min_link.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/rect.hpp"
#include "netlist/network.hpp"
#include "schematic/diagram.hpp"

namespace na {

class RoutingGrid {
 public:
  explicit RoutingGrid(geom::Rect area);

  const geom::Rect& area() const { return area_; }
  bool in_bounds(geom::Point p) const { return area_.contains(p); }

  // ----- obstacle construction ----------------------------------------------
  // Net ids given here are kNone or 0 .. kMaxNet; others throw
  // std::invalid_argument.
  void block(geom::Point p);
  void block_rect(geom::Rect r);
  /// Marks a terminal cell: blocked for everyone except net `n`.
  void set_terminal(geom::Point p, NetId n);
  /// Claims `p` for net `n` (a temporary obstacle for all other nets).
  void set_claim(geom::Point p, NetId n);
  void clear_claim(geom::Point p);

  /// Gate word layout (see the file comment).
  static constexpr std::uint32_t kBlockedBit = 1u << 31;
  static constexpr std::uint32_t kSideBit = 1u << 30;
  static constexpr std::uint32_t kNetMask = kSideBit - 1;
  static constexpr std::uint32_t kAnyNet = kNetMask;
  static constexpr std::uint32_t kNoNet = kNetMask - 1;
  static constexpr NetId kMaxNet = static_cast<NetId>(kNoNet) - 1;

  // ----- state queries -------------------------------------------------------
  /// One grid point's state.  Its predicates are the rules behind the point
  /// queries below, so a caller holding one cell (the search core's hot
  /// loop) derives all of them from a single load.  The net `n` asked
  /// about is 0 .. kMaxNet.
  struct Cell {
    NetId h = kNone;
    NetId v = kNone;
    std::uint32_t gate = kAnyNet;

    bool enterable(NetId n) const {
      return gate == kAnyNet || (gate & kNetMask) == static_cast<std::uint32_t>(n);
    }
    bool passable(NetId n, bool horizontal) const {
      return enterable(n) && (horizontal ? h : v) == kNone;
    }
    bool can_turn(NetId n) const { return enterable(n) && h == kNone && v == kNone; }
    bool crosses(NetId n, bool horizontal) const {
      const NetId other = horizontal ? v : h;
      return other != kNone && other != n;
    }
    bool occupied_by(NetId n) const { return h == n || v == n; }
    bool node_free(NetId n) const {
      return (h == kNone || h == n) && (v == kNone || v == n);
    }
  };

  /// The cell at `p`, which must be in bounds (unchecked).
  const Cell& cell(geom::Point p) const { return cells_[index(p)]; }

  bool blocked(geom::Point p) const {
    return !in_bounds(p) || (cell(p).gate & kBlockedBit) != 0;
  }
  NetId terminal_owner(geom::Point p) const {
    return in_bounds(p) ? obstacle(index(p)).owner : kNone;
  }
  NetId claim_owner(geom::Point p) const {
    return in_bounds(p) ? obstacle(index(p)).claim : kNone;
  }
  NetId h_net(geom::Point p) const { return in_bounds(p) ? cell(p).h : kNone; }
  /// May no net ever enter `p` (out of bounds, or blocked and no terminal)?
  bool closed(geom::Point p) const {
    if (!in_bounds(p)) return true;
    const int x = p.x - area_.lo.x;
    const std::uint64_t word =
        closed_[static_cast<size_t>(p.y - area_.lo.y) * row_words_ + x / 64];
    return (word >> (x % 64) & 1) != 0;
  }
  /// The closed mask: row `y - area().lo.y` is `closed_row_words()` words
  /// from `closed_words() + row * closed_row_words()`; bit `x % 64` of
  /// word `x / 64` (x counted from area().lo.x) is the point's bit, and
  /// the bits past the last column are 0.
  const std::uint64_t* closed_words() const { return closed_.data(); }
  int closed_row_words() const { return row_words_; }
  NetId v_net(geom::Point p) const { return in_bounds(p) ? cell(p).v : kNone; }

  /// May net `n` be present at `p` at all (bounds, modules, claims,
  /// foreign terminal cells)?
  bool enterable(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).enterable(n);
  }
  /// May net `n` run through `p` in the given orientation?  Own occupancy
  /// also blocks (re-using a track would overlap the net with itself; the
  /// router treats own-net cells as join targets instead).
  bool passable(geom::Point p, NetId n, bool horizontal) const {
    return in_bounds(p) && cell(p).passable(n, horizontal);
  }
  /// May net `n` place a corner (or branch) at `p`?  Requires both
  /// orientations free: a bend obstructs the whole point.
  bool can_turn(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).can_turn(n);
  }
  /// Does a move through `p` in the given orientation cross a foreign net?
  bool crosses_at(geom::Point p, NetId n, bool horizontal) const {
    return in_bounds(p) && cell(p).crosses(n, horizontal);
  }
  /// Is `p` occupied by net `n` itself (either orientation)?
  bool occupied_by(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).occupied_by(n);
  }
  /// May net `n` place a *node* (endpoint, corner, branch) at `p`?  Both
  /// orientations must be free or already net `n`'s own: a node of one net
  /// may not be touched by any other net.
  bool node_free(geom::Point p, NetId n) const {
    return in_bounds(p) && cell(p).node_free(n);
  }

  // ----- net commitment ------------------------------------------------------
  /// One orientation slot written by occupy_polyline (undo/replay record
  /// for the speculative parallel router; the previous value is always
  /// kNone, so undo is clear_track and replay is set_track).
  struct TrackWrite {
    geom::Point p;
    bool horizontal;
  };

  /// Registers a routed polyline: every unit step of the chain occupies its
  /// orientation at both endpoints of the step.  Re-occupation by the same
  /// net is idempotent; occupation over a foreign net throws (internal
  /// invariant violation — the router must never produce it).  When given,
  /// `journal` receives one entry per slot actually changed.
  void occupy_polyline(NetId n, std::span<const geom::Point> pts,
                       std::vector<TrackWrite>* journal = nullptr);

  /// Conflict query: would occupy_polyline(n, pts) succeed on the current
  /// occupancy?  (The speculative committer's cheap insurance before
  /// committing a path that was computed against an older grid state.)
  bool polyline_fits(NetId n, std::span<const geom::Point> pts) const;

  /// Raw occupancy writes, used to replay or undo journalled commits on a
  /// cloned grid (RoutingGrid is copyable; a copy is the routing snapshot
  /// the speculative workers search against).
  void set_track(geom::Point p, bool horizontal, NetId n);
  void clear_track(geom::Point p, bool horizontal) { set_track(p, horizontal, kNone); }

  /// Statistics helper: number of grid points where two different nets
  /// cross (one horizontal, one vertical).
  int crossing_count() const;

  /// A standalone sub-grid covering the intersection of `sub` with this
  /// grid's area; every covered cell is copied verbatim.  Points outside
  /// the sub-area are out of bounds — the clip boundary acts blocked, so
  /// a search on the clipped grid can never produce geometry leaving it
  /// (the sharded router's per-shard search space).  Throws when the
  /// intersection is empty.
  RoutingGrid clipped(geom::Rect sub) const;

 private:
  size_t index(geom::Point p) const {
    return static_cast<size_t>(p.y - area_.lo.y) * width_ + (p.x - area_.lo.x);
  }
  Cell& at(geom::Point p) { return cells_[index(p)]; }
  void set_closed(geom::Point p, bool closed);

  /// The obstacle state the gate word encodes, as the API sets it.
  struct Obstacle {
    bool blocked = false;
    NetId owner = kNone;
    NetId claim = kNone;
  };
  Obstacle obstacle(size_t i) const;
  void set_obstacle(size_t i, const Obstacle& o);

  geom::Rect area_;
  int width_ = 0;  // number of columns
  std::vector<Cell> cells_;
  int row_words_ = 0;  // closed-mask words per row
  std::vector<std::uint64_t> closed_;
  /// Owner and claim of the blocked cells that also carry a claim.
  std::unordered_map<size_t, Obstacle> side_;
};
static_assert(sizeof(RoutingGrid::Cell) == 12);

/// Builds the routing plane for a fully placed diagram: the placement
/// bounding box expanded by `margin` empty tracks, with every module
/// rectangle blocked, every connected terminal marked as its net's entry
/// point, every system terminal blocked for foreign nets, and every
/// prerouted polyline already occupied.
RoutingGrid build_grid(const Diagram& dia, int margin = 4);

}  // namespace na
