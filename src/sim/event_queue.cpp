#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace paraio::sim {

namespace {

/// SplitMix64 finalizer: a fixed bijection on 64-bit values, so distinct
/// sequence numbers always map to distinct tie-break keys.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

bool EventQueue::earlier(const Entry& a, const Entry& b) noexcept {
  if (a.when != b.when) return a.when < b.when;
  return a.key < b.key;
}

bool EventQueue::all_same_when(const std::vector<Entry>& entries) noexcept {
  for (const Entry& e : entries) {
    if (e.when != entries.front().when) return false;
  }
  return true;
}

void EventQueue::set_tie_break_seed(std::uint64_t seed) {
  if (!empty()) {
    throw std::logic_error(
        "sim::EventQueue: the tie-break seed must be set while no event is "
        "pending (" + std::to_string(size()) + " pending)");
  }
  tie_seed_ = seed;
}

std::uint32_t EventQueue::acquire_slot(Action action) {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slots_[s].next_free;
    slots_[s].action = std::move(action);
    return s;
  }
  const auto s = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(Slot{std::move(action), kNoSlot});
  return s;
}

EventQueue::Action EventQueue::take_action(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  Action action = std::move(s.action);
  s.next_free = free_head_;
  free_head_ = slot;
  return action;
}

void EventQueue::schedule(SimTime when, Action action) {
  assert(when >= now_ && "event scheduled in the past");
  const std::uint64_t seq = next_seq_++;
  if (when == now_ && tie_seed_ == 0) {
    push_lane(LaneEntry{{}, acquire_slot(std::move(action))});
    return;
  }
  const std::uint64_t key = tie_seed_ == 0 ? seq : mix64(seq ^ tie_seed_);
  ++live_;
  route(Entry{when, key, acquire_slot(std::move(action))});
  // A from-empty schedule may route to the rungs/top; pull it straight into
  // bottom so the "earliest ladder event is bottom's head" invariant (and
  // with it, const next_time()) holds on every exit.
  if (bottom_empty()) refill();
}

void EventQueue::compact_lane() noexcept {
  // Drop the popped prefix once it dominates, so an instant that never
  // drains (processes yielding to each other) keeps the lane O(live).
  lane_.erase(lane_.begin(),
              lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
}

void EventQueue::clear_lane() noexcept {
  lane_.clear();
  lane_head_ = 0;
}

SimTime EventQueue::next_time() const {
  assert(!empty() && "next_time() on empty queue");
  if (lane_head_ < lane_.size()) return now_;
  assert(!bottom_empty());
  return bottom_[bottom_head_].when;
}

EventQueue::Due EventQueue::pop_ladder() {
  assert(!bottom_empty());
  const Entry e = bottom_[bottom_head_];
  ++bottom_head_;
  now_ = e.when;
  Due due{{}, take_action(e.slot)};
  --live_;
  refill();
  return due;
}

// --- routing ---------------------------------------------------------------

void EventQueue::route(const Entry& e) {
  if (e.when < bottom_threshold_) {
    insert_bottom(e);
    maybe_spill_bottom();
    return;
  }
  // Singleton fast path: scheduling into an empty queue (the timer-chain /
  // ping-pong shape, where one event is in flight at a time) would route to
  // top_ only for refill() to immediately convert it back.  Going straight
  // into bottom produces the exact state refill_from_top's direct-sort path
  // would: one-entry bottom, threshold raised to nextafter(when).  Guarded
  // on the containers (not live_) because a drained rung may linger until
  // the next refill reaches it.
  if (depth_ == 0 && top_.empty() && bottom_.empty()) {
    bottom_.push_back(e);
    bottom_head_ = 0;
    bottom_threshold_ = std::max(bottom_threshold_,
                                 std::nextafter(e.when, kTimeInfinity));
    return;
  }
  // Innermost (earliest window) first; route_ends ascend outwards.
  for (std::size_t i = depth_; i-- > 0;) {
    if (e.when < rungs_[i].route_end) {
      place_in_rung(rungs_[i], e);
      return;
    }
  }
  top_.push_back(e);
  if (e.when < top_min_) top_min_ = e.when;
  if (e.when > top_max_) top_max_ = e.when;
}

void EventQueue::insert_bottom(const Entry& e) {
  // The popped prefix [0, bottom_head_) is dead weight; drop it once it
  // dominates the vector so inserts and spills stay O(live bottom).
  if (bottom_head_ >= 64 && bottom_head_ * 2 >= bottom_.size()) {
    bottom_.erase(bottom_.begin(),
                  bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
    bottom_head_ = 0;
  }
  // Common case first: a new event at or past the latest bottom time (FIFO
  // keys make same-instant arrivals sort last) is a plain append.
  if (bottom_.empty() || !earlier(e, bottom_.back())) {
    bottom_.push_back(e);
    return;
  }
  const auto it = std::upper_bound(
      bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_),
      bottom_.end(), e, earlier);
  bottom_.insert(it, e);
}

void EventQueue::place_in_rung(Rung& r, const Entry& e) {
  const std::size_t n = r.n;
  const SimTime off = (e.when - r.start) / r.width;
  std::size_t idx = 0;
  if (off > 0.0) {
    idx = off >= static_cast<SimTime>(n) ? n - 1
                                         : static_cast<std::size_t>(off);
  }
  // Correct the division hint against the exact boundary expression, so
  // placement agrees bit-for-bit with the drain thresholds.
  while (idx + 1 < n && e.when >= r.boundary(idx + 1)) ++idx;
  while (idx > 0 && e.when < r.boundary(idx)) --idx;
  // Entries landing behind the drain point (possible when an inner rung's
  // route_end sits below our boundary(cur)) fold into the next live bucket;
  // the per-bucket sort at drain time restores exact order.
  if (idx < r.cur) idx = r.cur;
  assert(idx < n);
  std::vector<Entry>& bucket = r.buckets[idx];
  if (bucket.capacity() == 0 && !free_buckets_.empty()) {
    bucket.swap(free_buckets_.back());
    free_buckets_.pop_back();
  }
  bucket.push_back(e);
}

void EventQueue::maybe_spill_bottom() {
  if (bottom_.size() - bottom_head_ <= kBottomSpillLimit) return;
  // Keep the earliest kBottomKeep entries; move the tail (larger times) into
  // a new innermost rung so sorted inserts stay O(small).  The cut must fall
  // between distinct timestamps: same-instant events split across bottom and
  // a rung could interleave wrongly under a seeded tie-break.
  // bottom_ is sorted by when, so the first distinct timestamp at or past
  // the keep point is an upper_bound away — O(log n), which matters because
  // this runs on every insert while the bottom is over the spill limit (a
  // linear scan here is O(n^2) for same-instant bursts).
  const SimTime keep_when = bottom_[bottom_head_ + kBottomKeep - 1].when;
  const auto cut_it = std::upper_bound(
      bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_ + kBottomKeep),
      bottom_.end(), keep_when,
      [](SimTime w, const Entry& e) { return w < e.when; });
  if (cut_it == bottom_.end()) return;
  const auto cut = static_cast<std::size_t>(cut_it - bottom_.begin());
  const SimTime new_threshold =
      std::nextafter(bottom_[cut - 1].when, kTimeInfinity);
  scratch_.assign(bottom_.begin() + static_cast<std::ptrdiff_t>(cut),
                  bottom_.end());
  const bool built = build_rung(scratch_, new_threshold, bottom_threshold_);
  scratch_.clear();
  if (!built) return;
  bottom_.resize(cut);
  bottom_threshold_ = new_threshold;
}

// --- refilling -------------------------------------------------------------

void EventQueue::refill() {
  if (!bottom_empty()) return;
  bottom_.clear();  // reset the consumed bottom
  bottom_head_ = 0;
  while (bottom_empty() && live_ > 0) {
    assert(depth_ > 0 || !top_.empty());
    if (depth_ > 0) {
      refill_from_rung();
    } else {
      refill_from_top();
    }
  }
}

void EventQueue::refill_from_rung() {
  Rung& r = rungs_[depth_ - 1];
  const std::size_t n = r.n;
  while (r.cur < n && r.buckets[r.cur].empty()) ++r.cur;
  if (r.cur == n) {
    bottom_threshold_ = std::max(bottom_threshold_, r.route_end);
    --depth_;
    return;
  }
  const std::size_t j = r.cur;
  // The bucket's storage leaves the rung for the free list; its entries are
  // copied out of it first.
  free_buckets_.emplace_back().swap(r.buckets[j]);
  const std::vector<Entry>& bucket = free_buckets_.back();
  ++r.cur;
  // Everything remaining in this rung (and all outer structures) is at or
  // beyond drain_end; everything in `bucket` is strictly below it.
  const SimTime drain_end =
      (j + 1 == n) ? r.route_end : std::min(r.boundary(j + 1), r.route_end);
  // The child must span the drained bucket, not [bottom_threshold_,
  // drain_end): with the latter, a cluster sitting in the LAST bucket keeps
  // drain_end == route_end, the child rung comes out identical to its
  // parent, and the spawn loop never terminates.  Starting at the bucket's
  // own boundary shrinks the window by a factor of n every generation
  // (entries folded forward from below boundary(j) simply land in the
  // child's bucket 0 — placement clamps, and the drain-time sort orders
  // them).  build_rung rejects the window once FP can no longer split it.
  const SimTime child_start = std::max(bottom_threshold_, r.boundary(j));
  const bool exhausted = r.cur == n;
  const bool try_spawn = bucket.size() > kSpawnThreshold &&
                         depth_ - (exhausted ? 1 : 0) < kMaxRungs &&
                         !all_same_when(bucket);
  if (exhausted) --depth_;
  if (!try_spawn) {
    sort_into_bottom(bucket, drain_end);
    free_buckets_.back().clear();
    return;
  }
  // The child's buckets draw on the free list, so the entries leave the
  // freed storage before they are placed.
  scratch_.assign(bucket.begin(), bucket.end());
  free_buckets_.back().clear();
  if (!build_rung(scratch_, child_start, drain_end)) {
    sort_into_bottom(scratch_, drain_end);
  }
  scratch_.clear();
}

void EventQueue::refill_from_top() {
  assert(!top_.empty());
  const SimTime tmin = top_min_;
  const SimTime tmax = top_max_;
  top_min_ = kTimeInfinity;
  top_max_ = -kTimeInfinity;
  // nextafter makes the bound exclusive of nothing: future arrivals at
  // exactly tmax still sort into bottom next to the events already there.
  const SimTime threshold = std::nextafter(tmax, kTimeInfinity);
  // Neither path routes into top_, so it is read in place.
  if (top_.size() <= kDirectSortLimit || !build_rung(top_, tmin, threshold)) {
    sort_into_bottom(top_, threshold);
  }
  top_.clear();
}

bool EventQueue::build_rung(const std::vector<Entry>& entries,
                            SimTime start, SimTime route_end) {
  const std::size_t n = std::min(entries.size(), kMaxBuckets);
  if (n < 2) return false;
  const SimTime span = route_end - start;
  if (!std::isfinite(span) || span <= 0.0) return false;
  const SimTime width = span / static_cast<SimTime>(n);
  // Reject degenerate windows where the width is absorbed by the magnitude
  // of `start` — the boundary expression could not separate buckets, and the
  // fallback (a plain sort) is both correct and cheaper.
  if (!(width > 0.0) || !(start + width > start)) return false;
  if (depth_ == rungs_.size()) rungs_.emplace_back();
  Rung& r = rungs_[depth_++];
  r.start = start;
  r.width = width;
  r.route_end = route_end;
  r.n = n;
  r.cur = 0;
  if (r.buckets.size() < n) r.buckets.resize(n);
  for (const Entry& e : entries) place_in_rung(r, e);
  return true;
}

void EventQueue::sort_into_bottom(const std::vector<Entry>& entries,
                                  SimTime new_threshold) {
  assert(bottom_empty());
  bottom_.assign(entries.begin(), entries.end());
  std::sort(bottom_.begin(), bottom_.end(), earlier);
  bottom_head_ = 0;
  // max(): a stale higher threshold is still safe — every event outside
  // bottom is at or beyond it — and routes more arrivals onto the sorted
  // fast path.
  bottom_threshold_ = std::max(bottom_threshold_, new_threshold);
}

}  // namespace paraio::sim
