#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace paraio::sim {
namespace {

TEST(Engine, TimeStartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST(Engine, RunAdvancesToLastEvent) {
  Engine e;
  e.call_in(5.0, [] {});
  e.call_in(2.0, [] {});
  EXPECT_DOUBLE_EQ(e.run(), 5.0);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, CallbacksSeeCurrentTime) {
  Engine e;
  double seen = -1.0;
  e.call_in(3.5, [&] { seen = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 3.5);
}

TEST(Engine, CallAtSchedulesAbsolute) {
  Engine e;
  std::vector<double> times;
  e.call_at(2.0, [&] { times.push_back(e.now()); });
  e.call_at(1.0, [&] { times.push_back(e.now()); });
  e.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

// Impossible schedules are refused in every build type, not only where
// asserts are compiled in: a negative delay would run time backwards and a
// NaN one would make now() NaN.
TEST(Engine, CallInRejectsNegativeNanAndInfiniteDelays) {
  Engine e;
  for (const double bad : {-3.0, std::numeric_limits<double>::quiet_NaN(),
                           kTimeInfinity}) {
    EXPECT_THROW(e.call_in(bad, [] {}), std::invalid_argument) << bad;
  }
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_DOUBLE_EQ(e.run(), 0.0);
}

TEST(Engine, CallAtRejectsThePast) {
  Engine e;
  e.call_in(5.0, [] {});
  e.run();
  EXPECT_THROW(e.call_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(e.call_at(std::numeric_limits<double>::quiet_NaN(), [] {}),
               std::invalid_argument);
  EXPECT_EQ(e.pending_events(), 0u);
  e.call_at(5.0, [] {});  // now() itself is allowed
  EXPECT_DOUBLE_EQ(e.run(), 5.0);
}

TEST(Engine, NegativeDelayInTaskRethrowsFromRun) {
  Engine e;
  bool resumed = false;
  auto proc = [](Engine& eng, bool& flag) -> Task<> {
    co_await eng.delay(2.0);
    co_await eng.delay(-1.0);
    flag = true;
  };
  e.spawn(proc(e, resumed));
  EXPECT_THROW(e.run(), std::invalid_argument);
  EXPECT_FALSE(resumed);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, NestedSchedulingFromCallback) {
  Engine e;
  std::vector<double> times;
  e.call_in(1.0, [&] {
    times.push_back(e.now());
    e.call_in(1.0, [&] { times.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.call_in(1.0, [&] { ++fired; });
  e.call_in(10.0, [&] { ++fired; });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilWithDrainedQueueStopsAtLastEvent) {
  Engine e;
  e.call_in(2.0, [] {});
  e.run_until(100.0);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, StepExecutesOneEvent) {
  Engine e;
  int fired = 0;
  e.call_in(1.0, [&] { ++fired; });
  e.call_in(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventId id = e.call_in(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, EventsExecutedCounter) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.call_in(static_cast<double>(i), [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 7u);
}

TEST(Engine, SpawnedTaskRuns) {
  Engine e;
  bool ran = false;
  auto proc = [](Engine& eng, bool& flag) -> Task<> {
    co_await eng.delay(1.0);
    flag = true;
  };
  e.spawn(proc(e, ran));
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, SpawnedTaskExceptionPropagatesFromRun) {
  Engine e;
  auto proc = [](Engine& eng) -> Task<> {
    co_await eng.delay(1.0);
    throw std::runtime_error("boom");
  };
  e.spawn(proc(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, DelayZeroYieldsAfterQueuedEvents) {
  Engine e;
  std::vector<int> order;
  auto proc = [](Engine& eng, std::vector<int>& ord) -> Task<> {
    ord.push_back(1);
    co_await eng.yield();
    ord.push_back(3);
  };
  // Queued first; the task starts synchronously at spawn, runs to its yield
  // point, and its resumption queues behind this already-pending event.
  e.call_in(0.0, [&] { order.push_back(2); });
  e.spawn(proc(e, order));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ManyConcurrentProcessesInterleaveDeterministically) {
  Engine e;
  std::vector<int> order;
  auto proc = [](Engine& eng, std::vector<int>& ord, int id) -> Task<> {
    for (int step = 0; step < 3; ++step) {
      co_await eng.delay(1.0);
      ord.push_back(id * 10 + step);
    }
  };
  for (int id = 0; id < 3; ++id) e.spawn(proc(e, order, id));
  e.run();
  // At each integer time, processes wake in spawn order.
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 1, 11, 21, 2, 12, 22}));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<double> times;
    auto proc = [](Engine& eng, std::vector<double>& out, double step) -> Task<> {
      for (int i = 0; i < 5; ++i) {
        co_await eng.delay(step);
        out.push_back(eng.now());
      }
    };
    e.spawn(proc(e, times, 0.3));
    e.spawn(proc(e, times, 0.7));
    e.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace paraio::sim
