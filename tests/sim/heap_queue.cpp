#include "heap_queue.hpp"

#include <algorithm>
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

void HeapEventQueue::schedule(SimTime when, Action action) {
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t key = tie_seed_ == 0 ? seq : mix64(seq ^ tie_seed_);
  heap_.push_back(Entry{when, key, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

SimTime HeapEventQueue::next_time() const {
  assert(!empty() && "next_time() on empty queue");
  return heap_.front().when;
}

std::pair<SimTime, HeapEventQueue::Action> HeapEventQueue::pop() {
  assert(!empty() && "pop() on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Entry top = std::move(heap_.back());
  heap_.pop_back();
  return {top.when, std::move(top.action)};
}

}  // namespace paraio::sim
