// The ladder queue recycles its storage: once warm, a steady schedule/pop
// stream makes no heap allocation, and events pending far in the future
// (which keep the top and the outer rungs alive) do not change that.
//
// Every ::operator new in this binary is counted, so the test binary holds
// only these tests.  The process is single-threaded while counting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hpp"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
// GCC pairs the replaced operator new with free() when it inlines these and
// warns; malloc/free is exactly how the replacement pairs them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace paraio::sim {
namespace {

/// Pops `events` events, scheduling one replacement per pop a pseudo-random
/// 0–96 time units ahead: the shape of bench_micro_sim's
/// queue_rolling_horizon, a queue that stays ~64 deep while time advances.
void roll(EventQueue& q, int& seq, int events) {
  for (int i = 0; i < events; ++i) {
    auto [when, due] = q.pop();
    due();
    q.schedule(when + static_cast<double>((seq * 13) % 97), [] {});
    ++seq;
  }
}

/// Heap allocations made by `measured` events after `warmup` events.
std::uint64_t steady_state_allocs(bool far_future, int warmup, int measured) {
  EventQueue q;
  int seq = 0;
  for (; seq < 64; ++seq) {
    q.schedule(static_cast<double>((seq * 13) % 97), [] {});
  }
  if (far_future) {
    for (double t : {1e9, 2e9, 3e9}) q.schedule(t, [] {});
  }
  roll(q, seq, warmup);
  const std::uint64_t before = g_allocs;
  roll(q, seq, measured);
  return g_allocs - before;
}

TEST(LadderStorage, RollingHorizonAllocatesNothingOnceWarm) {
  const std::uint64_t plain = steady_state_allocs(false, 50000, 200000);
  const std::uint64_t with_far = steady_state_allocs(true, 50000, 200000);
  EXPECT_EQ(plain, with_far);
  EXPECT_EQ(plain, 0u);
}

}  // namespace
}  // namespace paraio::sim
