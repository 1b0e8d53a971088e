#include "sim/heap_queue.hpp"

#include <cassert>
#include <stdexcept>

namespace paraio::sim {

namespace {

/// SplitMix64 finalizer — must match EventQueue's key derivation exactly,
/// since the differential harness compares seeded pop orders.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void HeapEventQueue::set_tie_break_seed(std::uint64_t seed) {
  if (!empty()) {
    throw std::logic_error(
        "sim::HeapEventQueue: the tie-break seed must be set while no event "
        "is pending");
  }
  tie_seed_ = seed;
}

std::uint64_t HeapEventQueue::schedule(SimTime when, Action action) {
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t key = tie_seed_ == 0 ? seq : mix64(seq ^ tie_seed_);
  heap_.push(Entry{when, seq, key});
  pending_.emplace(seq, std::move(action));
  ++live_;
  return seq;
}

bool HeapEventQueue::cancel(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return false;
  pending_.erase(it);
  --live_;
  drop_dead_top();
  return true;
}

void HeapEventQueue::drop_dead_top() {
  while (!heap_.empty() && !pending_.contains(heap_.top().seq)) {
    heap_.pop();
  }
}

SimTime HeapEventQueue::next_time() const {
  assert(live_ > 0 && "next_time() on empty queue");
  assert(!heap_.empty() && pending_.contains(heap_.top().seq));
  return heap_.top().when;
}

std::pair<SimTime, HeapEventQueue::Action> HeapEventQueue::pop() {
  assert(live_ > 0 && "pop() on empty queue");
  const Entry top = heap_.top();
  heap_.pop();
  const auto it = pending_.find(top.seq);
  assert(it != pending_.end() && "heap top must be live");
  Action action = std::move(it->second);
  pending_.erase(it);
  --live_;
  drop_dead_top();
  return {top.when, std::move(action)};
}

}  // namespace paraio::sim
