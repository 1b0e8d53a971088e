// Deterministic pending-event set for the discrete-event kernel.
//
// Events are (time, key, action) entries ordered by time, with a per-event
// key breaking same-instant ties: under the default FIFO order the key IS
// the insertion sequence number, and under a tie-break seed it is a seeded
// bijection of it (keys are therefore always distinct, so (time, key) is a
// strict total order).  Two events scheduled for the same instant fire in
// key order.  That property is load-bearing: every table in the benchmark
// suite is expected to be bit-for-bit reproducible across runs.
//
// The queue keeps the clock: now() is the time of the most recently popped
// event, and nothing may be scheduled before it.  Events split over two
// structures:
//
//   lane     a FIFO of events scheduled for now() itself (under FIFO
//            order only): coroutine wake-ups as raw handles, and generic
//            actions as indices into the action pool.  Append and pop are
//            O(1).  Every lane entry was scheduled after the clock reached
//            now(), so it carries a larger key than any ladder entry due at
//            now() — those fire first, then the lane drains in FIFO order,
//            and only then does time advance.
//   ladder   everything else: timed events, and under a tie-break seed
//            same-instant ones too, so that their keys can interleave.
//
// The ladder is a ladder queue (Tang & Goh's design family) instead of a
// binary heap, for O(1) amortized schedule/pop instead of O(log n):
//
//   bottom   sorted vector (ascending, consumed through a head index)
//            holding the next events to fire; pop() is an index increment.
//            An arrival below the latest bottom time is a binary search
//            plus a shift of the entries behind it.  Before the lane,
//            same-instant wake-ups landed there: on ESCAT-512 96% of
//            bottom arrivals were such mid-vector inserts, shifting 38.6
//            entries on average.
//   rungs    a stack of bucket arrays, each subdividing a time window of the
//            rung above it; draining a bucket either sorts it into bottom or,
//            if it is crowded, spawns a finer child rung.
//   top      unsorted catch-all for far-future events, bulk-converted into a
//            rung (or directly into bottom when small) when reached.
//
// Storage is recycled, as the ladder queue's O(1) amortized bound assumes:
// entries are copied between structures and each source is clear()ed, so
// bottom and top keep their capacity; a drained bucket's storage goes to a
// free list that the next empty bucket to receive an entry draws from; and
// a retired rung stays in rungs_ (past depth_) with its bucket array for
// the next rung built at that depth.  Once warm, a steady schedule/pop
// stream allocates nothing, however far ahead its events are pending.
//
// Bucket placement uses exact boundary arithmetic (the same floating-point
// expression for routing, placement, and drain thresholds) so same-instant
// events can never be split across structures or mis-ordered relative to the
// reference heap — tests/sim/event_queue_diff_test.cpp runs this queue, lane
// included, in lockstep against the test-only sim::HeapEventQueue
// (tests/sim/heap_queue.hpp) to prove it.
//
// The queue maintains the invariant that whenever ladder events are pending,
// the earliest one is at bottom's head — which is what lets next_time() be
// a genuinely const read.
//
// Not thread-safe by design: the kernel is single-threaded and determinism
// is the whole point.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace paraio::sim {

class EventQueue {
 public:
  using Action = sim::Action;

  /// A popped event: a coroutine to resume, or an action to run.
  struct Due {
    std::coroutine_handle<> resume;  ///< set for a schedule_resume() entry
    Action action;                   ///< set otherwise
    void operator()() {
      if (resume) {
        resume.resume();
      } else {
        action();
      }
    }
  };

  /// Seeds the schedule-perturbation mode: with a non-zero seed, events at
  /// the *same* instant are ordered by a seeded permutation of their
  /// insertion sequence instead of FIFO.  Causality is preserved (an event
  /// can never run before it is scheduled, and time order is untouched), so
  /// every seed yields a valid schedule — code whose results depend on the
  /// seed is relying on the FIFO tie-break, exactly what the testkit's
  /// perturbation checker hunts for.  Seed 0 restores plain FIFO.  Keys are
  /// stamped at schedule time, and the seed decides whether same-instant
  /// events take the lane, so this throws std::logic_error unless the
  /// queue is empty.
  void set_tie_break_seed(std::uint64_t seed);
  [[nodiscard]] std::uint64_t tie_break_seed() const noexcept {
    return tie_seed_;
  }

  /// Time of the most recently popped event (0 before the first pop).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `when`.  Precondition: when >=
  /// now().  `when` may equal now() (the event fires after all
  /// earlier-scheduled events at the same instant).
  void schedule(SimTime when, Action action);

  /// Schedules a resumption of `h` at now(), after all earlier-scheduled
  /// events at this instant.  Under FIFO order this is an O(1) lane append
  /// with no pool slot.
  void schedule_resume(std::coroutine_handle<> h);

  /// True if no event is pending.
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Number of pending events, lane included.
  [[nodiscard]] std::size_t size() const noexcept {
    return live_ + (lane_.size() - lane_head_);
  }

  /// Time of the earliest pending event.  Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Removes the earliest pending event and advances now() to its time.
  /// Precondition: !empty().
  std::pair<SimTime, Due> pop();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t key;   // == seq under FIFO; permuted under a tie-break seed
    std::uint32_t slot;
  };

  /// A lane entry: a wake-up (`resume` set) or a pooled action.
  struct LaneEntry {
    std::coroutine_handle<> resume;
    std::uint32_t slot;
  };

  struct Slot {
    Action action;
    std::uint32_t next_free = kNoSlot;
  };

  /// One ladder rung: `n` equal-width buckets starting at `start`.
  /// `route_end` is the exclusive upper routing bound — every entry stored
  /// in (or newly routed to) this rung has when < route_end, and every
  /// entry in outer structures has when >= route_end.
  struct Rung {
    SimTime start = 0.0;
    SimTime width = 0.0;
    SimTime route_end = 0.0;
    std::size_t n = 0;    // buckets in use: the first n of `buckets`
    std::size_t cur = 0;  // next bucket to drain
    /// At least n buckets; every bucket outside [cur, n) is empty and
    /// holds no storage, so a retired rung's array is ready for reuse.
    std::vector<std::vector<Entry>> buckets;

    /// The exact boundary expression.  Placement, routing, and the bottom
    /// threshold all evaluate this same formula so floating-point rounding
    /// is bit-identical everywhere.
    [[nodiscard]] SimTime boundary(std::size_t i) const {
      return start + static_cast<SimTime>(i) * width;
    }
  };

  /// True when the next event comes from the lane: it has entries left
  /// and no ladder entry is due at now() (those carry smaller keys).
  [[nodiscard]] bool lane_first() const noexcept {
    return lane_head_ < lane_.size() &&
           (live_ == 0 || bottom_[bottom_head_].when != now_);
  }

  /// Ascending (when, key) order: the sort order of bottom_, so the
  /// earliest event is at the head.  Keys are distinct, so this is strict.
  static bool earlier(const Entry& a, const Entry& b) noexcept;
  static bool all_same_when(const std::vector<Entry>& entries) noexcept;

  [[nodiscard]] bool bottom_empty() const noexcept {
    return bottom_head_ == bottom_.size();
  }

  std::uint32_t acquire_slot(Action action);
  [[nodiscard]] Action take_action(std::uint32_t slot) noexcept;

  void push_lane(const LaneEntry& e);
  void compact_lane() noexcept;
  void clear_lane() noexcept;
  Due pop_lane();
  Due pop_ladder();

  void route(const Entry& e);
  void insert_bottom(const Entry& e);
  void place_in_rung(Rung& r, const Entry& e);
  void maybe_spill_bottom();

  /// Restores the invariant "live_ > 0 implies bottom_ has an unpopped
  /// entry", pulling from rungs/top as needed.
  void refill();
  void refill_from_rung();
  void refill_from_top();

  /// Builds a rung over [start, route_end) and distributes a copy of
  /// `entries` into it.  Returns false when the window is degenerate
  /// (zero/absorbed width), in which case the caller must fall back to
  /// sorting the entries directly.
  bool build_rung(const std::vector<Entry>& entries, SimTime start,
                  SimTime route_end);

  /// Copies `entries` into bottom, sorted ascending.
  void sort_into_bottom(const std::vector<Entry>& entries,
                        SimTime new_threshold);

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kDirectSortLimit = 64;   // top -> bottom as-is
  static constexpr std::size_t kSpawnThreshold = 48;    // bucket -> child rung
  static constexpr std::size_t kMaxBuckets = 4096;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kBottomSpillLimit = 256; // sorted-insert bound
  static constexpr std::size_t kBottomKeep = 64;

  std::vector<Entry> bottom_;  // sorted ascending by (when, key)
  std::size_t bottom_head_ = 0;  // entries before this index already popped
  /// Events with when < bottom_threshold_ are sorted into bottom_ on
  /// arrival; everything at or above it belongs to the rungs/top.
  SimTime bottom_threshold_ = -kTimeInfinity;
  /// [0, depth_) are live, [0] outermost, [depth_ - 1] drained first;
  /// the rest are retired rungs kept for their bucket arrays.
  std::vector<Rung> rungs_;
  std::size_t depth_ = 0;
  std::vector<Entry> top_;     // unsorted far-future events
  std::vector<Entry> scratch_;  // entries between structures, kept empty
  /// Storage of drained buckets, emptied, for buckets yet to be filled.
  std::vector<std::vector<Entry>> free_buckets_;
  SimTime top_min_ = kTimeInfinity;
  SimTime top_max_ = -kTimeInfinity;

  std::vector<LaneEntry> lane_;  // FIFO of events at now_
  std::size_t lane_head_ = 0;    // entries before this index already popped

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;         // pending ladder entries
  SimTime now_ = 0.0;
  std::uint64_t tie_seed_ = 0;
};

// The lane paths run once per same-instant event; keep them inline.

inline void EventQueue::schedule_resume(std::coroutine_handle<> h) {
  if (tie_seed_ != 0) {
    schedule(now_, [h] { h.resume(); });
    return;
  }
  ++next_seq_;  // one sequence number per event, lane or ladder
  push_lane(LaneEntry{h, 0});
}

inline void EventQueue::push_lane(const LaneEntry& e) {
  if (lane_head_ >= 64 && lane_head_ * 2 >= lane_.size()) compact_lane();
  lane_.push_back(e);
}

inline std::pair<SimTime, EventQueue::Due> EventQueue::pop() {
  assert(!empty() && "pop() on empty queue");
  if (lane_first()) return {now_, pop_lane()};
  Due due = pop_ladder();  // advances now_
  return {now_, std::move(due)};
}

inline EventQueue::Due EventQueue::pop_lane() {
  const LaneEntry e = lane_[lane_head_++];
  if (lane_head_ == lane_.size()) clear_lane();
  if (e.resume) return Due{e.resume, {}};
  return Due{{}, take_action(e.slot)};
}

}  // namespace paraio::sim
