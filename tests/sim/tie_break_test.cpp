// Unit tests for the seeded same-instant tie-break permutation
// (EventQueue::set_tie_break_seed) that the testkit's schedule-perturbation
// checker builds on: seed 0 is exactly FIFO, a non-zero seed is a
// permutation (same events, each exactly once), time order is never
// violated, and the permutation is deterministic per seed.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace paraio::sim {
namespace {

std::vector<int> drain_same_instant(std::uint64_t seed, int n) {
  EventQueue q;
  q.set_tie_break_seed(seed);
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  return order;
}

TEST(TieBreak, SeedZeroIsFifo) {
  const auto order = drain_same_instant(0, 16);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(TieBreak, SeededDrainIsAPermutation) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 42u}) {
    auto order = drain_same_instant(seed, 16);
    ASSERT_EQ(order.size(), 16u) << "seed " << seed;
    auto sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i) << "seed " << seed;
    }
  }
}

TEST(TieBreak, SomeSeedActuallyPermutes) {
  const auto fifo = drain_same_instant(0, 16);
  bool any_differs = false;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    if (drain_same_instant(seed, 16) != fifo) {
      any_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(TieBreak, DeterministicPerSeed) {
  EXPECT_EQ(drain_same_instant(7, 12), drain_same_instant(7, 12));
}

TEST(TieBreak, TimeOrderIsNeverViolated) {
  EventQueue q;
  q.set_tie_break_seed(99);
  std::vector<double> times;
  // Interleave instants so the heap has every chance to scramble them.
  for (int i = 0; i < 8; ++i) {
    q.schedule(2.0, [&times] { times.push_back(2.0); });
    q.schedule(1.0, [&times] { times.push_back(1.0); });
    q.schedule(3.0, [&times] { times.push_back(3.0); });
  }
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(times.size(), 24u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(TieBreak, EngineExposesTheSeed) {
  Engine engine;
  EXPECT_EQ(engine.tie_break_seed(), 0u);
  engine.set_tie_break_seed(1234);
  EXPECT_EQ(engine.tie_break_seed(), 1234u);

  // A seeded engine still runs every spawned task to completion.
  int ran = 0;
  auto proc = [&]() -> Task<> {
    co_await engine.delay(1.0);
    ++ran;
  };
  for (int i = 0; i < 5; ++i) engine.spawn(proc());
  engine.run();
  EXPECT_EQ(ran, 5);
}

// Keys are stamped when an event is scheduled, and the seed decides whether
// a same-instant event takes the FIFO lane, so re-seeding with anything
// pending would mix two orders.  Refused in every build, not only where
// asserts are compiled in.
TEST(TieBreak, SeedWithPendingEventsThrows) {
  Engine engine;
  engine.call_in(1.0, [] {});
  EXPECT_THROW(engine.set_tie_break_seed(7), std::logic_error);
  EXPECT_EQ(engine.tie_break_seed(), 0u);
  engine.run();
  engine.set_tie_break_seed(7);  // nothing pending again
  EXPECT_EQ(engine.tie_break_seed(), 7u);
  engine.set_tie_break_seed(0);

  // A pending same-instant wake-up counts too.
  bool resumed = false;
  auto proc = [&]() -> Task<> {
    co_await engine.yield();
    resumed = true;
  };
  engine.spawn(proc());
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_THROW(engine.set_tie_break_seed(3), std::logic_error);
  engine.run();
  EXPECT_TRUE(resumed);
  engine.set_tie_break_seed(3);  // drained
  EXPECT_EQ(engine.tie_break_seed(), 3u);

  EventQueue q;
  q.schedule(2.0, [] {});
  EXPECT_THROW(q.set_tie_break_seed(5), std::logic_error);
}

}  // namespace
}  // namespace paraio::sim
