#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/task_group.hpp"

namespace paraio::sim {
namespace {

TEST(Event, WaitAfterSetCompletesImmediately) {
  Engine e;
  Event ev(e);
  ev.set();
  bool done = false;
  auto proc = [&]() -> Task<> {
    co_await ev.wait();
    done = true;
  };
  e.spawn(proc());
  e.run();
  EXPECT_TRUE(done);
}

TEST(Event, SetWakesAllWaiters) {
  Engine e;
  Event ev(e);
  int woken = 0;
  auto waiter = [&]() -> Task<> {
    co_await ev.wait();
    ++woken;
  };
  for (int i = 0; i < 5; ++i) e.spawn(waiter());
  e.call_in(2.0, [&] { ev.set(); });
  e.run();
  EXPECT_EQ(woken, 5);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Event, ResetReArms) {
  Engine e;
  Event ev(e);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  bool done = false;
  auto proc = [&]() -> Task<> {
    co_await ev.wait();
    done = true;
  };
  e.spawn(proc());
  e.call_in(1.0, [&] { ev.set(); });
  e.run();
  EXPECT_TRUE(done);
}

TEST(Semaphore, FastPathWhenAvailable) {
  Engine e;
  Semaphore sem(e, 2);
  int acquired = 0;
  auto proc = [&]() -> Task<> {
    co_await sem.acquire();
    ++acquired;
  };
  e.spawn(proc());
  e.spawn(proc());
  e.run();
  EXPECT_EQ(acquired, 2);
  EXPECT_EQ(sem.available(), 0u);
}

TEST(Semaphore, BlocksWhenExhausted) {
  Engine e;
  Semaphore sem(e, 1);
  std::vector<int> order;
  auto proc = [&](Engine& eng, int id, double hold) -> Task<> {
    co_await sem.acquire();
    order.push_back(id);
    co_await eng.delay(hold);
    sem.release();
  };
  e.spawn(proc(e, 1, 5.0));
  e.spawn(proc(e, 2, 1.0));
  e.spawn(proc(e, 3, 1.0));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));  // FIFO under contention
  EXPECT_DOUBLE_EQ(e.now(), 7.0);
}

TEST(Semaphore, ReleaseWithoutWaitersIncrementsCount) {
  Engine e;
  Semaphore sem(e, 0);
  sem.release(3);
  EXPECT_EQ(sem.available(), 3u);
}

TEST(Semaphore, FifoHandoffPreventsBarging) {
  Engine e;
  Semaphore sem(e, 0);
  std::vector<int> order;
  auto proc = [&](int id) -> Task<> {
    co_await sem.acquire();
    order.push_back(id);
  };
  for (int i = 0; i < 4; ++i) e.spawn(proc(i));
  e.call_in(1.0, [&] { sem.release(4); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mutex, MutualExclusion) {
  Engine e;
  Mutex m(e);
  int inside = 0;
  int max_inside = 0;
  auto proc = [&](Engine& eng) -> Task<> {
    co_await m.lock();
    ++inside;
    max_inside = std::max(max_inside, inside);
    // held across the delay on purpose: the test measures FIFO handoff
    co_await eng.delay(1.0);
    --inside;
    m.unlock();
  };
  for (int i = 0; i < 5; ++i) e.spawn(proc(e));
  e.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Barrier, ReleasesWhenAllArrive) {
  Engine e;
  Barrier b(e, 3);
  std::vector<double> release_times;
  auto proc = [&](Engine& eng, double arrive_at) -> Task<> {
    co_await eng.delay(arrive_at);
    co_await b.arrive_and_wait();
    release_times.push_back(eng.now());
  };
  e.spawn(proc(e, 1.0));
  e.spawn(proc(e, 2.0));
  e.spawn(proc(e, 3.0));
  e.run();
  ASSERT_EQ(release_times.size(), 3u);
  for (double t : release_times) EXPECT_DOUBLE_EQ(t, 3.0);
  EXPECT_EQ(b.generation(), 1u);
}

TEST(Barrier, CyclicReuse) {
  Engine e;
  Barrier b(e, 2);
  std::vector<double> times;
  auto proc = [&](Engine& eng, double step) -> Task<> {
    for (int cycle = 0; cycle < 3; ++cycle) {
      co_await eng.delay(step);
      co_await b.arrive_and_wait();
      times.push_back(eng.now());
    }
  };
  e.spawn(proc(e, 1.0));
  e.spawn(proc(e, 2.0));
  e.run();
  // Each cycle completes when the slower (step=2) process arrives.
  ASSERT_EQ(times.size(), 6u);
  EXPECT_EQ(b.generation(), 3u);
  EXPECT_DOUBLE_EQ(times.back(), 6.0);
}

TEST(Barrier, SingleParty) {
  Engine e;
  Barrier b(e, 1);
  bool passed = false;
  auto proc = [&]() -> Task<> {
    co_await b.arrive_and_wait();
    passed = true;
  };
  e.spawn(proc());
  e.run();
  EXPECT_TRUE(passed);
}

TEST(Latch, ZeroCountReadyImmediately) {
  Engine e;
  Latch latch(e, 0);
  bool done = false;
  auto proc = [&]() -> Task<> {
    co_await latch.wait();
    done = true;
  };
  e.spawn(proc());
  e.run();
  EXPECT_TRUE(done);
}

TEST(Latch, WaitsForAllCountDowns) {
  Engine e;
  Latch latch(e, 3);
  double done_at = -1.0;
  auto waiter = [&](Engine& eng) -> Task<> {
    co_await latch.wait();
    done_at = eng.now();
  };
  e.spawn(waiter(e));
  e.call_in(1.0, [&] { latch.count_down(); });
  e.call_in(2.0, [&] { latch.count_down(); });
  e.call_in(3.0, [&] { latch.count_down(); });
  e.run();
  EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(TaskGroup, JoinWaitsForAll) {
  Engine e;
  TaskGroup group(e);
  int finished = 0;
  double joined_at = -1.0;
  auto worker = [&](Engine& eng, double dur) -> Task<> {
    co_await eng.delay(dur);
    ++finished;
  };
  auto coordinator = [&](Engine& eng) -> Task<> {
    group.spawn(worker(eng, 1.0));
    group.spawn(worker(eng, 5.0));
    group.spawn(worker(eng, 3.0));
    co_await group.join();
    joined_at = eng.now();
  };
  e.spawn(coordinator(e));
  e.run();
  EXPECT_EQ(finished, 3);
  EXPECT_DOUBLE_EQ(joined_at, 5.0);
}

TEST(TaskGroup, JoinOnEmptyGroupIsImmediate) {
  Engine e;
  TaskGroup group(e);
  bool done = false;
  auto proc = [&]() -> Task<> {
    co_await group.join();
    done = true;
  };
  e.spawn(proc());
  e.run();
  EXPECT_TRUE(done);
}

TEST(TaskGroup, ReusableAfterJoin) {
  Engine e;
  TaskGroup group(e);
  std::vector<double> joins;
  auto worker = [](Engine& eng) -> Task<> { co_await eng.delay(1.0); };
  auto coordinator = [&](Engine& eng) -> Task<> {
    for (int round = 0; round < 3; ++round) {
      group.spawn(worker(eng));
      group.spawn(worker(eng));
      co_await group.join();
      joins.push_back(eng.now());
    }
  };
  e.spawn(coordinator(e));
  e.run();
  EXPECT_EQ(joins, (std::vector<double>{1.0, 2.0, 3.0}));
}

// Property: a barrier of N parties synchronizes all N release times for a
// spread of N values.
class BarrierProperty : public ::testing::TestWithParam<int> {};

TEST_P(BarrierProperty, AllPartiesReleaseAtLastArrival) {
  const int parties = GetParam();
  Engine e;
  Barrier b(e, static_cast<std::size_t>(parties));
  std::vector<double> times;
  auto proc = [&](Engine& eng, int id) -> Task<> {
    co_await eng.delay(static_cast<double>(id + 1));
    co_await b.arrive_and_wait();
    times.push_back(eng.now());
  };
  for (int i = 0; i < parties; ++i) e.spawn(proc(e, i));
  e.run();
  ASSERT_EQ(times.size(), static_cast<size_t>(parties));
  for (double t : times) EXPECT_DOUBLE_EQ(t, static_cast<double>(parties));
}

INSTANTIATE_TEST_SUITE_P(Parties, BarrierProperty,
                         ::testing::Values(1, 2, 3, 8, 32, 128));

}  // namespace
}  // namespace paraio::sim
