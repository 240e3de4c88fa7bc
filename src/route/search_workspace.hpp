// Reusable scratch state for the grid search core.
//
// Every connection search used to allocate O(W*H) `best`/`parent` vectors
// and a fresh open set; on large planes the allocation and paging cost
// rivals the search itself.  A SearchWorkspace keeps one 8-byte slot per
// state alive across searches (key, arrival move and stamp in one word)
// and invalidates it in O(1) with a generation stamp: a slot's contents
// are only meaningful when its stamp equals the table's current
// generation, so "clearing" the table is a counter increment.
// One workspace serves one thread; the parallel driver keeps one per
// worker.
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
#include <stdexcept>
#include <vector>

#include "geom/rect.hpp"
#include "route/min_link.hpp"

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

/// The bound search's open set: a binary heap popping the smallest
/// (key, seq) first, where the key is a state's cost plus its lower bound.
/// Its pushes are not ordered, so the lanes above cannot serve it.
class BestFirstQueue {
 public:
  void clear() {
    heap_.clear();
    seq_ = 0;
  }
  void push(std::uint64_t key, std::int32_t state) {
    heap_.push_back({key, state, seq_++});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  /// Removes the smallest entry into `out`; false when the queue is empty.
  bool pop(OpenEntry& out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    out = heap_.back();
    heap_.pop_back();
    return true;
  }

 private:
  static bool later(const OpenEntry& a, const OpenEntry& b) {
    return a.key != b.key ? a.key > b.key : a.seq > b.seq;
  }

  std::vector<OpenEntry> heap_;
  std::uint32_t seq_ = 0;
};

/// How the search reached a state (p, d).  Two bits name the state's
/// parent, so the table stores no parent index.  Headings are numbered so
/// that the two perpendicular to `d` are `d ^ 2` and `d ^ 3`.
enum class Move : std::uint8_t {
  Step = 0,   ///< straight step from (p - delta(d), d)
  Turn2 = 1,  ///< turn at p from heading d ^ 2
  Turn3 = 2,  ///< turn at p from heading d ^ 3
  Start = 3,  ///< a start state: no parent
};

/// Best keys and arrival moves of one search's states.
class StateTable {
 public:
  static constexpr std::uint64_t kUnvisited =
      std::numeric_limits<std::uint64_t>::max();

  /// One 8-byte slot per state: `stamp:8 | move:2 | key:54`.  Search keys
  /// are 54 bits: a 14-bit bends field (bits 40-53) over two 20-bit fields
  /// (crossings and length, in the mode's order).  Bits 54-55 hold the
  /// state's Move and the top 8 bits a generation stamp.  A slot is valid
  /// only when its stamp matches the current one; stamps cycle 1..255 (0
  /// means scrubbed), and every 255th begin() re-scrubs the slots written
  /// since the last scrub so a stale slot can never alias a live stamp.
  /// "Clearing" thus costs 1/255th of a fill on average instead of a full
  /// allocate-and-fill per search.
  static constexpr int kKeyBits = 54;
  static constexpr int kStampShift = 56;
  static constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKeyBits) - 1;
  static constexpr std::uint64_t kStampMask = ~((std::uint64_t{1} << kStampShift) - 1);
  static constexpr std::uint32_t kStamps = (1u << (64 - kStampShift)) - 1;

  /// Prepares the table for a search over `nstates` states: grows the
  /// array if needed and invalidates previous contents (amortized O(1)).
  void begin(int nstates) {
    const size_t need = static_cast<size_t>(nstates);
    if (slots_.size() < need) slots_.resize(need);
    stamp_ = stamp_ % kStamps + 1;
    if (stamp_ == 1) {
      // Only slots below the largest search since the last scrub were
      // written; slots above it are still zero.
      std::fill(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(used_), 0);
      scrubbed_ += used_;
      used_ = 0;
    }
    used_ = std::max(used_, need);
  }

  /// A raw pointer into the (already sized) array for the search hot loop.
  /// Holding it as a local lets the optimizer keep it in a register:
  /// open-set pushes mutate the workspace object, so access through the
  /// workspace itself would force a data-pointer reload after every relax.
  /// Valid until the next begin().
  struct View {
    std::uint64_t* slots;
    std::uint64_t tag;  ///< current stamp, pre-shifted into the top bits

    std::uint64_t best(int s) const {
      const std::uint64_t v = slots[s];
      return (v & kStampMask) == tag ? (v & kKeyMask) : kUnvisited;
    }
    /// Throws std::length_error for a key that would reach the move bits
    /// (a path of 16384 or more bends).
    void record(int s, std::uint64_t key, Move move) const {
      if (key > kKeyMask) [[unlikely]] key_overflow();
      slots[s] = tag | static_cast<std::uint64_t>(move) << kKeyBits | key;
    }
  };
  View view() {
    return {slots_.data(), static_cast<std::uint64_t>(stamp_) << kStampShift};
  }

  std::uint64_t best(int s) const {
    const std::uint64_t v = slots_[s];
    const std::uint64_t tag = static_cast<std::uint64_t>(stamp_) << kStampShift;
    return (v & kStampMask) == tag ? (v & kKeyMask) : kUnvisited;
  }
  /// Only meaningful for states recorded in the current generation.
  Move move(int s) const { return static_cast<Move>((slots_[s] >> kKeyBits) & 3); }

  /// Slots zeroed by scrubs so far (a work counter).
  std::uint64_t scrubbed_slots() const { return scrubbed_; }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] static void key_overflow() {
    throw std::length_error("search key overflows its 54 bits");
  }

  std::vector<std::uint64_t> slots_;
  std::uint32_t stamp_ = 0;
  size_t used_ = 0;  ///< slots possibly written since the last scrub
  std::uint64_t scrubbed_ = 0;
};
static_assert(StateTable::kKeyBits + 2 == StateTable::kStampShift,
              "a Move takes the two bits between key and stamp");

class SearchWorkspace {
 public:
  /// Prepares a search over `nstates` states and returns its table.  A
  /// windowed search indexes its states by its window and gets a table of
  /// its own: were its stamps drawn from the plane-sized table, each such
  /// search would bring that table's full scrub one search closer.
  StateTable& begin(int nstates, bool windowed) {
    open_.clear();
    heap_.clear();
    StateTable& table = windowed ? window_ : plane_;
    table.begin(nstates);
    return table;
  }

  /// The table the last begin() prepared for a search of this kind.
  const StateTable& table(bool windowed) const { return windowed ? window_ : plane_; }

  /// The open sets of the canonical and the bound search (cleared by
  /// begin(), driven by the search loop).
  OpenSet& open() { return open_; }
  BestFirstQueue& heap() { return heap_; }
  /// The min-link field, rebuilt by each search that needs one.
  MinLinkField& field() { return field_; }

  /// Slots both tables have scrubbed so far (a work counter).
  std::uint64_t scrubbed_slots() const {
    return plane_.scrubbed_slots() + window_.scrubbed_slots();
  }

 private:
  StateTable plane_;
  StateTable window_;
  OpenSet open_;
  BestFirstQueue heap_;
  MinLinkField field_;
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
