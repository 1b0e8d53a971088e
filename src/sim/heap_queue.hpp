// Reference pending-event set: a binary heap with the exact ordering
// contract of sim::EventQueue.
//
// This is the pre-ladder implementation, kept as the executable
// specification of event ordering: (when, key) min-order, FIFO ties under
// seed 0, seeded same-instant permutation otherwise.  O(log n)
// schedule/pop — correct, slow, and obviously so.
// tests/sim/event_queue_diff_test.cpp drives it in lockstep with the ladder
// queue and asserts identical pop sequences over randomized schedule/pop
// interleavings.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace paraio::sim {

class HeapEventQueue {
 public:
  using Action = sim::Action;

  /// Same semantics as EventQueue::set_tie_break_seed.
  void set_tie_break_seed(std::uint64_t seed);
  [[nodiscard]] std::uint64_t tie_break_seed() const noexcept {
    return tie_seed_;
  }

  /// Schedules `action` at `when`.
  void schedule(SimTime when, Action action);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the earliest event.  Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest event.  Precondition: !empty().
  std::pair<SimTime, Action> pop();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t key;  // == seq under FIFO; permuted under a tie-break seed
    Action action;
  };

  /// Heap order for std::push_heap/pop_heap, which build a max-heap: the
  /// earliest (when, key) must compare greatest.  Keys are distinct, so
  /// this is strict.
  static bool later(const Entry& a, const Entry& b) noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.key > b.key;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t tie_seed_ = 0;
};

}  // namespace paraio::sim
