#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/deadlock.hpp"
#include "sim/race.hpp"
#include "sim/sync.hpp"
#include "sim/task_group.hpp"

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

using Log = std::vector<std::string>;

Task<> log_after_event(Engine& eng, Event& ev, Log& log, std::string name) {
  co_await ev.wait();
  log.push_back(name);
  co_await eng.yield();
  log.push_back(name + "+yield");
}

Task<> log_after_acquire(Semaphore& sem, Log& log, std::string name) {
  co_await sem.acquire();
  log.push_back(name);
}

Task<> log_after_join(TaskGroup& group, Log& log, std::string name) {
  co_await group.join();
  log.push_back(name);
}

Task<> log_after_wait(Event& ev, Log& log, std::string name) {
  co_await ev.wait();
  log.push_back(name);
}

/// Counts what the kernel reports to observers.
class CountingObserver final : public EngineObserver {
 public:
  void on_schedule(SimTime now, SimTime when) override {
    (void)now;
    (void)when;
    ++schedules;
  }
  void on_event(SimTime when) override {
    (void)when;
    ++events;
  }
  std::size_t schedules = 0;
  std::size_t events = 0;
};

// Under the default tie-break (seed 0) events at one instant fire in the
// order they were scheduled, whatever scheduled them: generic callbacks
// (call_in(0.0), call_at(now())) and coroutine wake-ups (Event::set,
// Semaphore::release, the TaskGroup join, yield()) share one FIFO.  Entries
// already due at now() when the instant began fire first (they were
// scheduled earlier), events scheduled while the instant drains queue
// behind everything already there, and time advances only after that.
TEST(Engine, SameInstantEventsFireInScheduleOrder) {
  Engine e;
  CountingObserver counts;
  e.attach(counts);
  Event ev(e);
  Event go(e);
  Semaphore sem(e, 0);
  TaskGroup group(e);
  Log log;
  auto note = [&log, &e](const char* name) {
    return [&log, &e, name] {
      EXPECT_DOUBLE_EQ(e.now(), 1.0) << name;
      log.emplace_back(name);
    };
  };

  e.spawn(log_after_event(e, ev, log, "event"));
  e.spawn(log_after_acquire(sem, log, "semaphore"));
  group.spawn(log_after_wait(go, log, "child"));
  e.spawn(log_after_join(group, log, "join"));
  EXPECT_EQ(e.pending_events(), 0u);

  e.call_at(1.0, [&] {
    log.emplace_back("A");
    e.call_at(1.5, [&log] { log.emplace_back("later"); });
    ev.set();
    e.call_in(0.0, note("call_in"));
    sem.release();
    e.call_at(e.now(), note("call_at"));
    go.set();
    e.call_in(0.0, [&, nested = note("nested")] {
      log.emplace_back("call_in-2");
      e.call_in(0.0, nested);
    });
  });
  // Scheduled before the instant begins, so already due when A runs.
  e.call_at(1.0, [&] {
    log.emplace_back("D");
    e.call_in(0.0, note("from-D"));
  });

  ASSERT_TRUE(e.step());  // A
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  // D, later, and six same-instant events.
  EXPECT_EQ(e.pending_events(), 8u);

  e.run();
  EXPECT_EQ(log, (Log{"A", "D", "event", "call_in", "semaphore", "call_at",
                      "child", "call_in-2", "from-D", "event+yield", "join",
                      "nested", "later"}));
  EXPECT_DOUBLE_EQ(e.now(), 1.5);
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.live_tasks(), 0u);
  EXPECT_EQ(counts.events, e.events_executed());
  EXPECT_EQ(counts.events, log.size());
  // Every executed event was scheduled exactly once.
  EXPECT_EQ(counts.schedules, counts.events);
}

/// Appends its id to a shared log on every executed event.
class OrderObserver final : public EngineObserver {
 public:
  OrderObserver(std::vector<int>& log, int id) : log_(log), id_(id) {}
  void on_event(SimTime when) override {
    (void)when;
    log_.push_back(id_);
  }

 private:
  std::vector<int>& log_;
  int id_;
};

// Observers may be detached in any order, not only last-in first-out, and
// every attached observer hears each event, newest first.
TEST(Engine, ObserversDetachInAnyOrder) {
  Engine e;
  auto deadlocks = std::make_unique<DeadlockDetector>(e);
  RaceDetector races(e);
  deadlocks.reset();
  EXPECT_EQ(e.deadlock_detector(), nullptr);
  EXPECT_EQ(e.race_detector(), &races);
  bool fired = false;
  e.call_in(1.0, [&fired] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.events_executed(), 1u);

  std::vector<int> order;
  OrderObserver first(order, 1);
  OrderObserver second(order, 2);
  OrderObserver third(order, 3);
  e.attach(first);
  e.attach(second);
  e.attach(third);
  e.call_in(1.0, [] {});
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));

  e.detach(second);
  e.call_in(1.0, [] {});
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 3, 1}));
}

}  // namespace
}  // namespace paraio::sim
