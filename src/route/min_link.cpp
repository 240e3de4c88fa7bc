#include "route/min_link.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace na::detail {
namespace {

/// The points reachable from `seeds` by running through `open` points
/// toward bit 0 (kDown) or toward bit 63, inside one word: shift-doubling,
/// where each round doubles the run length a seed can cover.
template <bool kDown>
std::uint64_t fill_word(std::uint64_t seeds, std::uint64_t open) {
  std::uint64_t g = seeds & open;
  std::uint64_t p = open;
  for (int s = 1; s < 64; s *= 2) {
    if constexpr (kDown) {
      g |= p & (g >> s);
      p &= p >> s;
    } else {
      g |= p & (g << s);
      p &= p << s;
    }
  }
  return g;
}

/// kSpread[m] has byte i equal to bit i of m: eight cells' bits as bytes.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> t{};
  for (int m = 0; m < 256; ++m) {
    for (int i = 0; i < 8; ++i) t[m] |= static_cast<std::uint64_t>(m >> i & 1) << (8 * i);
  }
  return t;
}();

}  // namespace

void MinLinkField::build(const RoutingGrid& grid, geom::Point target,
                         std::optional<geom::Dir> entry, int max_level) {
  const geom::Rect area = grid.area();
  width_ = area.width() + 1;
  height_ = area.height() + 1;
  row_words_ = grid.closed_row_words();
  const size_t words = static_cast<size_t>(row_words_) * height_;
  const int limit = std::clamp(max_level, 0, kMaxLevel);
  // Levels are ORed into zeroed nibbles eight cells at a time, so the
  // last row's writes may run up to 63 bytes past the area.
  bytes_.assign(static_cast<size_t>(width_) * height_ + 64, 0);

  // Open points: not closed, and inside the row (the mask's padding bits
  // past the last column are 0, so they would read as open).
  const std::uint64_t tail =
      width_ % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (width_ % 64)) - 1;
  const std::uint64_t* closed = grid.closed_words();
  open_.resize(words);
  for (size_t i = 0; i < words; ++i) {
    const bool last = static_cast<int>(i % row_words_) == row_words_ - 1;
    open_[i] = ~closed[i] & (last ? tail : ~std::uint64_t{0});
  }
  for (Bitmap& b : heading_) b.assign(words, 0);
  before_h_.assign(words, 0);
  before_v_.assign(words, 0);

  // Level 0: the states one straight run from the goal.  The goal is a
  // straight step onto the target with an allowed heading.
  const bool reachable = area.contains(target) && !grid.closed(target);
  for (geom::Dir d : geom::kAllDirs) {
    if (!reachable) break;
    if (entry && *entry != d) continue;
    const geom::Point q = target - geom::delta(d);
    if (grid.closed(q)) continue;
    const int x = q.x - area.lo.x;
    heading_[static_cast<int>(d)][static_cast<size_t>(q.y - area.lo.y) * row_words_ + x / 64] |=
        std::uint64_t{1} << (x % 64);
  }
  Bitmap& left = heading_[static_cast<int>(geom::Dir::Left)];
  Bitmap& right = heading_[static_cast<int>(geom::Dir::Right)];
  Bitmap& up = heading_[static_cast<int>(geom::Dir::Up)];
  Bitmap& down = heading_[static_cast<int>(geom::Dir::Down)];
  fill_rows(before_v_);
  fill_vertical(up, before_h_, true);
  fill_vertical(down, before_h_, false);
  record(left, right, before_h_, 0, 0);
  record(up, down, before_v_, 4, 0);

  // Level k: a turn onto a perpendicular heading of level k - 1, then a
  // straight run.
  for (int level = 1; level <= limit; ++level) {
    for (size_t i = 0; i < words; ++i) {
      before_h_[i] = left[i] | right[i];
      before_v_[i] = up[i] | down[i];
    }
    fill_vertical(up, before_h_, true);
    fill_vertical(down, before_h_, false);
    fill_rows(before_v_);
    const bool grew_h = record(left, right, before_h_, 0, level);
    const bool grew_v = record(up, down, before_v_, 4, level);
    if (!grew_h && !grew_v) break;  // a fixpoint: the rest is unreachable
  }
  // The states no level reached need more than `limit` bends (or cannot
  // reach the goal at all).  They are disjoint from `left` and `up`, which
  // serve as the (empty) previous level.
  for (size_t i = 0; i < words; ++i) {
    before_h_[i] = ~(left[i] | right[i]);
    before_v_[i] = ~(up[i] | down[i]);
  }
  record(before_h_, before_h_, left, 0, limit + 1);
  record(before_v_, before_v_, up, 4, limit + 1);
}

void MinLinkField::fill_vertical(Bitmap& heading, const Bitmap& extra, bool up) {
  // Heading up (+y) reaches rows above: sweep from the top row down.
  const int rw = row_words_;
  for (int c = 0; c < rw; ++c) {
    std::uint64_t reach = 0;
    for (int r = 0; r < height_; ++r) {
      const int y = up ? height_ - 1 - r : r;
      const size_t i = static_cast<size_t>(y) * rw + c;
      reach = open_[i] & (heading[i] | extra[i] | reach);
      heading[i] = reach;
    }
  }
}

void MinLinkField::fill_rows(const Bitmap& extra) {
  // Heading right (+x) reaches columns to its right: its fill runs toward
  // bit 0 and from the row's last word to its first, carrying bit 0 of
  // each word into bit 63 of the next.  Heading left runs the other way.
  // The two chains are independent, so they run side by side.
  Bitmap& left = heading_[static_cast<int>(geom::Dir::Left)];
  Bitmap& right = heading_[static_cast<int>(geom::Dir::Right)];
  const int rw = row_words_;
  for (int y = 0; y < height_; ++y) {
    const size_t row = static_cast<size_t>(y) * rw;
    std::uint64_t carry_left = 0;
    std::uint64_t carry_right = 0;
    for (int k = 0; k < rw; ++k) {
      const size_t l = row + k;
      const size_t r = row + (rw - 1 - k);
      left[l] = fill_word<false>(left[l] | extra[l] | carry_left, open_[l]);
      right[r] = fill_word<true>(right[r] | extra[r] | carry_right << 63, open_[r]);
      carry_left = left[l] >> 63;
      carry_right = right[r] & 1;
    }
  }
}

bool MinLinkField::record(const Bitmap& now_a, const Bitmap& now_b, const Bitmap& before,
                          int shift, int level) {
  // A cell is fresh once per axis and its nibble is still 0, so the level
  // is ORed in: eight cells per store.
  bool grew = false;
  const std::uint64_t set = std::uint64_t{static_cast<std::uint8_t>(level << shift)};
  const size_t words = open_.size();
  for (size_t i = 0; i < words; ++i) {
    std::uint64_t fresh = (now_a[i] | now_b[i]) & ~before[i] & open_[i];
    if (fresh == 0) continue;
    grew = true;
    std::uint8_t* base = bytes_.data() + (i / row_words_) * width_ + (i % row_words_) * 64;
    for (; fresh != 0; fresh >>= 8, base += 8) {
      const std::uint64_t eight = kSpread[fresh & 0xFF] * set;
      if (eight == 0) continue;
      std::uint64_t cells;
      std::memcpy(&cells, base, 8);
      cells |= eight;
      std::memcpy(base, &cells, 8);
    }
  }
  return grew;
}

}  // namespace na::detail
