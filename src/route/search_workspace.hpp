// Reusable scratch state for the grid search core.
//
// Every connection search used to allocate O(W*H) `best`/`parent` vectors
// and a fresh open set; on large planes the allocation and paging cost
// rivals the search itself.  A SearchWorkspace keeps those arrays alive
// across searches and invalidates them in O(1) with a generation stamp: a
// slot's contents are only meaningful when its stamp equals the
// workspace's current generation, so "clearing" the arrays is a counter
// increment.  One workspace serves one thread; the parallel driver keeps
// one per worker.
//
// ObservedMask records exactly which grid cells a search batch read (every
// grid query in the search core is single-cell, so the searches mark each
// queried point).  The speculative parallel router uses it to decide
// whether a net routed against a stale grid is still exact: if no later
// commit touched a queried cell, re-running the searches on the live grid
// would read identical state and take identical decisions at every step,
// so the speculative result can be committed as-is.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/rect.hpp"

namespace na::detail {

/// One open-set entry: packed cost key, search state and push sequence
/// number.  The search pops entries in (key, seq) order.
struct OpenEntry {
  std::uint64_t key;
  std::int32_t state;
  std::uint32_t seq;
};
static_assert(sizeof(OpenEntry) == 16);

/// A FIFO lane of the open set: a power-of-two ring buffer, so its memory
/// tracks the most entries live at once, not the number of pushes.
class OpenLane {
 public:
  bool empty() const { return head_ == tail_; }
  const OpenEntry& front() const { return buf_[head_ & mask_]; }
  void pop() { ++head_; }
  void push(const OpenEntry& e) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_++ & mask_] = e;
  }
  void clear() { head_ = tail_ = 0; }

 private:
  void grow() {
    std::vector<OpenEntry> next(std::max<size_t>(64, 2 * buf_.size()));
    size_t n = 0;
    for (size_t i = head_; i != tail_; ++i) next[n++] = buf_[i & mask_];
    buf_ = std::move(next);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<OpenEntry> buf_;
  size_t mask_ = 0;
  size_t head_ = 0;
  size_t tail_ = 0;
};

/// The search's open set: one FIFO lane per edge kind (straight step,
/// straight step over a crossing, bend).  The search expands keys in
/// non-decreasing order and every push is the expanded key plus its
/// lane's fixed delta, so each lane receives keys in non-decreasing order
/// with rising sequence numbers: each lane is sorted by (key, seq), and
/// the smallest of the three heads is the smallest entry overall.  Push
/// and pop are O(1), and the pop order is (key, seq) by construction,
/// independent of how the lanes are stored.
class OpenSet {
 public:
  static constexpr int kLanes = 3;

  void clear() {
    for (OpenLane& l : lanes_) l.clear();
    seq_ = 0;
  }
  /// `key` must be no smaller than the lane's previous push, which holds
  /// when it is the last popped key plus the lane's fixed delta.
  void push(int lane, std::uint64_t key, std::int32_t state) {
    lanes_[lane].push({key, state, seq_++});
  }
  /// Removes the smallest entry into `out`; false when the set is empty.
  bool pop(OpenEntry& out) {
    OpenLane* best = nullptr;
    for (OpenLane& l : lanes_) {
      if (l.empty()) continue;
      if (!best || l.front().key < best->front().key ||
          (l.front().key == best->front().key && l.front().seq < best->front().seq)) {
        best = &l;
      }
    }
    if (!best) return false;
    out = best->front();
    best->pop();
    return true;
  }

 private:
  std::array<OpenLane, kLanes> lanes_;
  std::uint32_t seq_ = 0;
};

class SearchWorkspace {
 public:
  static constexpr std::uint64_t kUnvisited =
      std::numeric_limits<std::uint64_t>::max();

  /// Search keys pack three 20-bit cost fields, so the top 4 bits of each
  /// slot are free to hold a generation stamp.  A slot is valid only when
  /// its stamp matches the current one; stamps cycle 1..15 (0 means
  /// scrubbed), and every 15th begin() re-scrubs the array so a stale slot
  /// can never alias a live stamp.  The array stays 8 bytes per state —
  /// the same cache footprint as the plain `best` vector it replaces —
  /// while "clearing" costs 1/15th of a fill on average instead of a full
  /// allocate-and-fill per search.
  static constexpr int kKeyBits = 60;
  static constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKeyBits) - 1;

  /// Prepares the workspace for a search over `nstates` states: grows the
  /// arrays if needed and invalidates previous contents (amortized O(1)).
  void begin(int nstates) {
    const size_t need = static_cast<size_t>(nstates);
    if (slots_.size() < need) {
      slots_.resize(need);
      parent_.resize(need);
    }
    stamp_ = stamp_ % 15 + 1;
    if (stamp_ == 1) std::fill(slots_.begin(), slots_.end(), 0);
    open_.clear();
  }

  /// Raw pointers into the (already sized) arrays for the search hot loop.
  /// Holding them as locals lets the optimizer keep them in registers:
  /// open-set pushes mutate the workspace object, so access through the
  /// workspace itself would force a data-pointer reload after every relax.
  /// Valid until the next begin().
  struct View {
    std::uint64_t* slots;
    std::int32_t* parent;
    std::uint64_t tag;  ///< current stamp, pre-shifted into the top bits

    std::uint64_t best(int s) const {
      const std::uint64_t v = slots[s];
      return (v & ~kKeyMask) == tag ? (v & kKeyMask) : kUnvisited;
    }
    void record(int s, std::uint64_t key, int from) const {
      slots[s] = key | tag;
      parent[s] = from;
    }
  };
  View view() {
    return {slots_.data(), parent_.data(),
            static_cast<std::uint64_t>(stamp_) << kKeyBits};
  }

  std::uint64_t best(int s) const {
    const std::uint64_t v = slots_[s];
    const std::uint64_t tag = static_cast<std::uint64_t>(stamp_) << kKeyBits;
    return (v & ~kKeyMask) == tag ? (v & kKeyMask) : kUnvisited;
  }
  /// Only meaningful for states recorded in the current generation.
  int parent(int s) const { return parent_[s]; }

  /// The open set (cleared by begin(), driven by the search loop).
  OpenSet& open() { return open_; }

 private:
  std::vector<std::uint64_t> slots_;
  std::vector<std::int32_t> parent_;
  OpenSet open_;
  std::uint32_t stamp_ = 0;
};

/// Set of grid cells examined by the searches of one net-routing task.
class ObservedMask {
 public:
  void reset(geom::Rect area) {
    area_ = area;
    width_ = area.width() + 1;
    bits_.assign(static_cast<size_t>(width_) * (area.height() + 1), 0);
  }

  void mark(geom::Point p) {
    if (area_.contains(p)) bits_[index(p)] = 1;
  }

  /// Marks every cell of an axis-parallel segment (both endpoints included).
  void mark_segment(geom::Point a, geom::Point b) {
    const geom::Point step = {a.x == b.x ? 0 : (b.x > a.x ? 1 : -1),
                              a.y == b.y ? 0 : (b.y > a.y ? 1 : -1)};
    for (geom::Point p = a;; p += step) {
      mark(p);
      if (p == b) break;
    }
  }

  /// Was `p` queried by any of the task's searches?  A commit at a cell
  /// for which this returns false cannot have influenced the task.
  bool covers(geom::Point p) const { return test(p); }

  /// Number of marked cells (diagnostics / tests).
  int marked_count() const {
    return static_cast<int>(std::count(bits_.begin(), bits_.end(), 1));
  }

 private:
  bool test(geom::Point p) const {
    return area_.contains(p) && bits_[index(p)] != 0;
  }
  size_t index(geom::Point p) const {
    return static_cast<size_t>(p.y - area_.lo.y) * width_ + (p.x - area_.lo.x);
  }

  geom::Rect area_;
  int width_ = 0;
  std::vector<std::uint8_t> bits_;
};

}  // namespace na::detail
