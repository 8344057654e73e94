// Free-gap timeline of one flash resource (a die or a channel).
//
// The device books every operation onto the timelines of the resources it
// occupies. A timeline records the end of its last reservation and the free
// gaps before that end, so an operation whose ready time falls before the
// end can backfill an idle gap instead of queueing behind reservations made
// by callers that run ahead in simulated time (conservative backfilling:
// a reservation, once made, never moves, so no earlier-booked op is delayed
// by a later one).
//
// Memory is bounded: at most kMaxGaps gaps are remembered. Past that, the
// oldest (earliest) gap is forgotten and treated as busy — deterministic,
// and never optimistic: a forgotten gap only makes later ops start later.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/sim_clock.h"

namespace noftl::flash {

class Timeline {
 public:
  static constexpr size_t kMaxGaps = 32;

  /// A free place found by EarliestFit: its start, and the gap it lies in
  /// (kTail: at or past end()). Valid until the timeline next changes.
  struct Fit {
    SimTime start;
    uint32_t gap;
  };
  static constexpr uint32_t kTail = ~0u;

  /// End of the latest reservation (0 when nothing was ever booked).
  SimTime end() const { return end_; }

  /// Earliest t >= from such that [t, t + duration) is free. O(1) at or
  /// past end(); otherwise a binary search for the first gap that ends
  /// after `from`, then a walk to the first gap long enough.
  Fit EarliestFit(SimTime from, SimTime duration) const {
    if (from >= end_ || duration == 0) return {from, kTail};
    for (size_t i = FirstGapEndingAfter(from); i < size_; i++) {
      const Gap& g = slots_[first_ + i];
      const SimTime t = std::max(from, g.start);
      if (t + duration <= g.end) return {t, static_cast<uint32_t>(i)};
    }
    return {end_, kTail};
  }

  /// Book `duration` at a place EarliestFit just returned for it.
  void Reserve(Fit fit, SimTime duration) {
    if (duration == 0) return;
    const SimTime start = fit.start;
    const SimTime stop = start + duration;
    if (fit.gap == kTail) {
      assert(start >= end_);
      if (start > end_) Insert(size_, {end_, start});
      end_ = stop;
      return;
    }
    const size_t i = fit.gap;
    Gap& g = slots_[first_ + i];
    assert(i < size_ && g.start <= start && stop <= g.end);
    if (g.start < start && stop < g.end) {
      const Gap tail{stop, g.end};
      g.end = start;
      Insert(i + 1, tail);
    } else if (g.start < start) {
      g.end = start;
    } else if (stop < g.end) {
      g.start = stop;
    } else {
      std::memmove(&g, &g + 1, (size_ - i - 1) * sizeof(Gap));
      size_--;
    }
  }

 private:
  struct Gap {
    SimTime start;
    SimTime end;
  };

  /// Index (among the live gaps) of the first gap that ends after `t`.
  /// Branch-free binary search: where `t` falls among the gaps is
  /// unpredictable, so a branch per step would mostly mispredict.
  size_t FirstGapEndingAfter(SimTime t) const {
    if (size_ == 0) return 0;
    const Gap* live = slots_.data() + first_;
    const Gap* base = live;
    for (size_t n = size_; n > 1;) {
      const size_t half = n / 2;
      base = base[half].end <= t ? base + half : base;
      n -= half;
    }
    return static_cast<size_t>(base - live) + (base->end <= t ? 1 : 0);
  }

  /// Insert `gap` at live index `i` (size_ appends), then forget the oldest
  /// gap if the bound is exceeded.
  void Insert(size_t i, Gap gap) {
    if (slots_.empty()) slots_.resize(2 * kMaxGaps);
    if (first_ + size_ == slots_.size()) {
      std::memmove(slots_.data(), slots_.data() + first_, size_ * sizeof(Gap));
      first_ = 0;
    }
    Gap* at = slots_.data() + first_ + i;
    std::memmove(at + 1, at, (size_ - i) * sizeof(Gap));
    *at = gap;
    if (++size_ > kMaxGaps) {
      first_++;
      size_--;
    }
  }

  // The live gaps are slots_[first_, first_ + size_), sorted, disjoint and
  // never adjacent, all before end_. Forgetting the oldest gap advances
  // first_; the window slides back to the front only when it reaches the
  // end of slots_, so dropping costs O(1) amortized. slots_ is allocated
  // with the first gap and lives on the heap, so a die's timeline stays a
  // few words next to its other hot fields.
  std::vector<Gap> slots_;
  uint32_t first_ = 0;
  uint32_t size_ = 0;
  SimTime end_ = 0;
};

}  // namespace noftl::flash
