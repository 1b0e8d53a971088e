#include "sim/race.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace paraio::sim {
namespace {

using TaskId = RaceDetector::TaskId;

// Two tasks write the same site at the same simulated instant with nothing
// ordering them but the event queue's FIFO tie-break: the canonical
// golden-trace hazard.  Capture-free coroutine (paraio-lint would flag a
// capturing lambda here, and rightly so).
Task<> unordered_writer(Engine& engine, RaceDetector& det, TaskId id) {
  co_await engine.delay(1.0);
  det.write(id, "counter");
}

TEST(RaceDetector, FlagsSameInstantUnorderedWrites) {
  Engine engine;
  RaceDetector det(engine);
  const TaskId a = det.register_task("writer-a");
  const TaskId b = det.register_task("writer-b");
  engine.spawn(unordered_writer(engine, det, a));
  engine.spawn(unordered_writer(engine, det, b));
  engine.run();
  det.finish();
  EXPECT_FALSE(det.ok());
  ASSERT_EQ(det.races().size(), 1u);
  EXPECT_EQ(det.races()[0].site, "counter");
  EXPECT_DOUBLE_EQ(det.races()[0].time, 1.0);
  EXPECT_NE(det.report().find("counter"), std::string::npos);
  EXPECT_NE(det.report().find("writer-a"), std::string::npos);
}

// Same shape, but the writes go through a sim::Mutex with acquire/release
// annotations.  The FIFO handoff still resumes the second writer at the
// same instant — the happens-before edge is what clears it.
Task<> guarded_writer(Engine& engine, RaceDetector& det, TaskId id,
                      Mutex& mutex) {
  co_await engine.delay(1.0);
  co_await mutex.lock();
  // RaceDetector bookkeeping, not a Semaphore awaitable:
  det.acquire(id, &mutex);
  det.write(id, "counter");
  det.release(id, &mutex);
  mutex.unlock();
}

TEST(RaceDetector, MutexOrderedSameInstantWritesAreClean) {
  Engine engine;
  RaceDetector det(engine);
  Mutex mutex(engine);
  const TaskId a = det.register_task("writer-a");
  const TaskId b = det.register_task("writer-b");
  engine.spawn(guarded_writer(engine, det, a, mutex));
  engine.spawn(guarded_writer(engine, det, b, mutex));
  engine.run();
  det.finish();
  EXPECT_EQ(det.access_count(), 2u);
  EXPECT_TRUE(det.ok()) << det.report();
}

Task<> delayed_writer(Engine& engine, RaceDetector& det, TaskId id,
                      double when) {
  co_await engine.delay(when);
  det.write(id, "counter");
}

TEST(RaceDetector, DistinctInstantsAreClean) {
  Engine engine;
  RaceDetector det(engine);
  const TaskId a = det.register_task("early");
  const TaskId b = det.register_task("late");
  engine.spawn(delayed_writer(engine, det, a, 1.0));
  engine.spawn(delayed_writer(engine, det, b, 2.0));
  engine.run();
  det.finish();
  EXPECT_TRUE(det.ok()) << det.report();
}

Task<> reader(Engine& engine, RaceDetector& det, TaskId id) {
  co_await engine.delay(1.0);
  det.read(id, "counter");
}

TEST(RaceDetector, ConcurrentReadsAreClean) {
  Engine engine;
  RaceDetector det(engine);
  const TaskId a = det.register_task("reader-a");
  const TaskId b = det.register_task("reader-b");
  engine.spawn(reader(engine, det, a));
  engine.spawn(reader(engine, det, b));
  engine.run();
  det.finish();
  EXPECT_TRUE(det.ok()) << det.report();
}

TEST(RaceDetector, ReadWriteSameInstantIsARace) {
  Engine engine;
  RaceDetector det(engine);
  const TaskId a = det.register_task("reader");
  const TaskId b = det.register_task("writer");
  engine.spawn(reader(engine, det, a));
  engine.spawn(unordered_writer(engine, det, b));
  engine.run();
  det.finish();
  EXPECT_FALSE(det.ok());
  ASSERT_EQ(det.races().size(), 1u);
}

Task<> fork_child(RaceDetector& det, TaskId id) {
  det.write(id, "shared");
  co_return;
}

Task<> fork_parent(Engine& engine, RaceDetector& det, TaskId parent,
                   TaskId child) {
  co_await engine.delay(1.0);
  det.write(parent, "shared");
  det.fork(parent, child);
  engine.spawn(fork_child(det, child));
}

TEST(RaceDetector, ForkEdgeOrdersParentBeforeChild) {
  Engine engine;
  RaceDetector det(engine);
  const TaskId parent = det.register_task("parent");
  const TaskId child = det.register_task("child");
  engine.spawn(fork_parent(engine, det, parent, child));
  engine.run();
  det.finish();
  EXPECT_EQ(det.access_count(), 2u);
  EXPECT_TRUE(det.ok()) << det.report();
}

TEST(RaceDetector, TaskForKeyIsMemoized) {
  Engine engine;
  RaceDetector det(engine);
  const TaskId n0 = det.task_for_key(0, "node");
  const TaskId n1 = det.task_for_key(1, "node");
  EXPECT_NE(n0, n1);
  EXPECT_EQ(det.task_for_key(0, "node"), n0);
  EXPECT_EQ(det.task_name(n0), "node#0");
}

// The detector chains to (and restores) whatever observer was already
// attached, so it can coexist with the testkit's InvariantChecker.
struct CountingObserver final : EngineObserver {
  std::uint64_t events = 0;
  void on_event(SimTime) override { ++events; }
};

TEST(RaceDetector, ChainsAndRestoresExistingObserver) {
  Engine engine;
  CountingObserver counter;
  engine.set_observer(&counter);
  {
    RaceDetector det(engine);
    EXPECT_EQ(RaceDetector::find(engine), &det);
    engine.spawn(delayed_writer(engine, det, det.register_task("w"), 1.0));
    engine.run();
    EXPECT_GT(counter.events, 0u);  // forwarded through the chain
  }
  EXPECT_EQ(engine.observer(), &counter);
  EXPECT_EQ(RaceDetector::find(engine), nullptr);
}

}  // namespace
}  // namespace paraio::sim
