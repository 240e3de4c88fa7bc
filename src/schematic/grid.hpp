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
#pragma once

#include <span>
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
  void block(geom::Point p);
  void block_rect(geom::Rect r);
  /// Marks a terminal cell: blocked for everyone except net `n`.
  void set_terminal(geom::Point p, NetId n);
  /// Claims `p` for net `n` (a temporary obstacle for all other nets).
  void set_claim(geom::Point p, NetId n);
  void clear_claim(geom::Point p);

  // ----- state queries -------------------------------------------------------
  /// One grid point's state.  Its predicates are the rules behind the point
  /// queries below, so a caller holding one cell (the search core's hot
  /// loop) derives all of them from a single load.
  struct Cell {
    NetId h = kNone;
    NetId v = kNone;
    NetId owner = kNone;
    NetId claim = kNone;
    bool blocked = false;

    bool enterable(NetId n) const {
      return (!blocked || owner == n) && (claim == kNone || claim == n);
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

  bool blocked(geom::Point p) const { return !in_bounds(p) || cell(p).blocked; }
  NetId terminal_owner(geom::Point p) const { return in_bounds(p) ? cell(p).owner : kNone; }
  NetId claim_owner(geom::Point p) const { return in_bounds(p) ? cell(p).claim : kNone; }
  NetId h_net(geom::Point p) const { return in_bounds(p) ? cell(p).h : kNone; }
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

  geom::Rect area_;
  int width_ = 0;  // number of columns
  std::vector<Cell> cells_;
};

/// Builds the routing plane for a fully placed diagram: the placement
/// bounding box expanded by `margin` empty tracks, with every module
/// rectangle blocked, every connected terminal marked as its net's entry
/// point, every system terminal blocked for foreign nets, and every
/// prerouted polyline already occupied.
RoutingGrid build_grid(const Diagram& dia, int margin = 4);

}  // namespace na
