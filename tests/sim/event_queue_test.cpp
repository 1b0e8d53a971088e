#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace paraio::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PopReturnsScheduledTime) {
  EventQueue q;
  q.schedule(7.25, [] {});
  auto [when, action] = q.pop();
  EXPECT_DOUBLE_EQ(when, 7.25);
}

TEST(EventQueue, NextTimeSeesEarliest) {
  EventQueue q;
  q.schedule(9.0, [] {});
  q.schedule(4.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

// Property sweep: scheduled events pop in nondecreasing time order with
// stable ties.
class EventQueueOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueOrderProperty, PopsMonotonicallyWithStableTies) {
  const int n = GetParam();
  EventQueue q;
  std::vector<std::pair<double, int>> fired;
  // A deterministic pseudo-random-ish schedule using arithmetic hashing.
  for (int i = 0; i < n; ++i) {
    const double t = static_cast<double>((i * 7919) % 13);
    q.schedule(t, [&fired, t, i] { fired.emplace_back(t, i); });
  }
  double last_time = -1.0;
  int last_seq_at_time = -1;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    action();
    const auto& [t, seq] = fired.back();
    EXPECT_DOUBLE_EQ(t, when);
    EXPECT_GE(when, last_time);
    if (when == last_time) {
      EXPECT_GT(seq, last_seq_at_time);
    }
    last_time = when;
    last_seq_at_time = seq;
  }
  EXPECT_EQ(fired.size(), static_cast<size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EventQueueOrderProperty,
                         ::testing::Values(1, 2, 10, 100, 1000));

}  // namespace
}  // namespace paraio::sim
