// Tests for sim::DeadlockDetector: the classic AB/BA two-mutex cycle, a
// bounded-channel self-deadlock, a join cycle, lockdep-style order
// inversions caught on runs that got lucky, and no-false-positive runs over
// the annotated production code paths (PFS kLog token mutex, PPFS I/O-node
// server queue).
#include "sim/deadlock.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hw/machine.hpp"
#include "pfs/pfs.hpp"
#include "ppfs/ion_server.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/race.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::sim {
namespace {

TEST(DeadlockDetector, TwoMutexAbbaCycleReported) {
  Engine engine;
  DeadlockDetector det(engine);
  Mutex a(engine);
  Mutex b(engine);
  const auto t1 = det.register_task("writer-ab");
  const auto t2 = det.register_task("writer-ba");

  auto ab = [&]() -> Task<> {
    det.lock_wait(t1, &a, "mutex-a");
    co_await a.lock();
    det.lock_acquired(t1, &a, "mutex-a");
    co_await engine.delay(1.0);
    det.lock_wait(t1, &b, "mutex-b");
    // never resumes: t2 holds b, waits on a (the shape under test)
    co_await b.lock();
    det.lock_acquired(t1, &b, "mutex-b");
  };
  auto ba = [&]() -> Task<> {
    det.lock_wait(t2, &b, "mutex-b");
    co_await b.lock();
    det.lock_acquired(t2, &b, "mutex-b");
    co_await engine.delay(1.0);
    det.lock_wait(t2, &a, "mutex-a");
    // never resumes (the other half of the AB/BA cycle under test)
    co_await a.lock();
    det.lock_acquired(t2, &a, "mutex-a");
  };
  engine.spawn(ab());
  engine.spawn(ba());
  engine.run();  // quiescence with live waiters triggers the analysis

  EXPECT_FALSE(det.ok());
  ASSERT_EQ(det.cycles().size(), 1u);
  const auto& cycle = det.cycles().front();
  ASSERT_EQ(cycle.edges.size(), 2u);
  // The cycle closes: each edge's provider is the next edge's waiter.
  EXPECT_EQ(cycle.edges[0].provider, cycle.edges[1].waiter);
  EXPECT_EQ(cycle.edges[1].provider, cycle.edges[0].waiter);
  // Each report edge carries the wanted resource and what the waiter held.
  for (const auto& edge : cycle.edges) {
    EXPECT_FALSE(edge.resource.empty());
    ASSERT_EQ(edge.held.size(), 1u);
    EXPECT_NE(edge.held.front(), edge.resource);
  }
  const std::string report = det.report();
  EXPECT_NE(report.find("writer-ab"), std::string::npos) << report;
  EXPECT_NE(report.find("writer-ba"), std::string::npos) << report;
  EXPECT_NE(report.find("mutex-a"), std::string::npos) << report;
  EXPECT_NE(report.find("mutex-b"), std::string::npos) << report;
}

TEST(DeadlockDetector, ChannelSelfDeadlockReported) {
  Engine engine;
  DeadlockDetector det(engine);
  Channel<int> ch(engine, 1);
  const auto t = det.register_task("loopback");
  det.channel_sender(t, &ch, "loopback-queue");
  det.channel_receiver(t, &ch, "loopback-queue");

  auto loop = [&]() -> Task<> {
    det.send_wait(t, &ch, "loopback-queue");
    co_await ch.send(1);
    det.send_done(t, &ch);
    det.send_wait(t, &ch, "loopback-queue");
    // buffer full; the only receiver is us (the self-deadlock under test)
    co_await ch.send(2);
    det.send_done(t, &ch);
    (void)co_await ch.recv();
  };
  engine.spawn(loop());
  engine.run();

  EXPECT_FALSE(det.ok());
  ASSERT_EQ(det.cycles().size(), 1u);
  const auto& cycle = det.cycles().front();
  ASSERT_EQ(cycle.edges.size(), 1u);
  EXPECT_EQ(cycle.edges.front().waiter, cycle.edges.front().provider);
  EXPECT_EQ(cycle.edges.front().kind, DeadlockDetector::WaitKind::kSend);
  EXPECT_NE(det.report().find("loopback-queue"), std::string::npos)
      << det.report();
}

TEST(DeadlockDetector, JoinCycleReported) {
  Engine engine;
  DeadlockDetector det(engine);
  const auto t1 = det.register_task("stage-1");
  const auto t2 = det.register_task("stage-2");
  det.join_wait(t1, t2);
  det.join_wait(t2, t1);
  det.finish();

  EXPECT_FALSE(det.ok());
  ASSERT_EQ(det.cycles().size(), 1u);
  ASSERT_EQ(det.cycles().front().edges.size(), 2u);
  for (const auto& edge : det.cycles().front().edges) {
    EXPECT_EQ(edge.kind, DeadlockDetector::WaitKind::kJoin);
  }
  const std::string report = det.report();
  EXPECT_NE(report.find("stage-1"), std::string::npos) << report;
  EXPECT_NE(report.find("stage-2"), std::string::npos) << report;
}

// Lockdep-style: the run completes fine (the orders never overlapped in
// time), but acquiring a->b in one place and b->a in another means some
// interleaving deadlocks — caught without needing the unlucky schedule.
TEST(DeadlockDetector, OrderInversionCaughtOnLuckyRun) {
  Engine engine;
  DeadlockDetector det(engine);
  Mutex a(engine);
  Mutex b(engine);
  const auto t = det.register_task("reorderer");

  auto proc = [&]() -> Task<> {
    det.lock_wait(t, &a, "mutex-a");
    co_await a.lock();
    det.lock_acquired(t, &a, "mutex-a");
    det.lock_wait(t, &b, "mutex-b");
    // nested ordered acquisition, released promptly (benign by design)
    co_await b.lock();
    det.lock_acquired(t, &b, "mutex-b");
    b.unlock();
    det.lock_released(t, &b);
    a.unlock();
    det.lock_released(t, &a);

    det.lock_wait(t, &b, "mutex-b");
    co_await b.lock();
    det.lock_acquired(t, &b, "mutex-b");
    det.lock_wait(t, &a, "mutex-a");
    // reversed order on purpose: the detector must flag this schedule
    co_await a.lock();
    det.lock_acquired(t, &a, "mutex-a");
    a.unlock();
    det.lock_released(t, &a);
    b.unlock();
    det.lock_released(t, &b);
  };
  engine.spawn(proc());
  engine.run();
  det.finish();

  EXPECT_TRUE(det.cycles().empty());    // nothing actually wedged...
  EXPECT_TRUE(det.stranded().empty());
  ASSERT_EQ(det.inversions().size(), 1u);  // ...but the order cycle is real
  EXPECT_FALSE(det.ok());
  const auto& inv = det.inversions().front();
  EXPECT_NE(inv.first, inv.second);
  EXPECT_NE(det.report().find("acquired in both orders"), std::string::npos)
      << det.report();
}

// No false positives on the annotated PFS path: kLog writers contend on the
// shared-offset token mutex (lock_wait/acquired/released fire in pfs.cpp)
// but everything drains.
TEST(DeadlockDetector, CleanPfsLogRunHasNoFindings) {
  Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  pfs::Pfs fs(machine);
  DeadlockDetector det(engine);

  auto writer = [&](io::NodeId node) -> Task<> {
    io::OpenOptions o;
    o.mode = io::AccessMode::kLog;
    o.create = true;
    auto f = co_await fs.open(node, "/log", o);
    co_await f->write(1000);
    co_await f->close();
  };
  engine.spawn(writer(0));
  engine.spawn(writer(1));
  engine.spawn(writer(2));
  engine.run();
  det.finish();

  EXPECT_TRUE(det.ok()) << det.report();
  EXPECT_EQ(fs.file_size("/log"), 3000u);
}

// No false positives on the annotated PPFS path: submit()/serve() declare
// the queue roles and the server daemon parks in recv() at drain time —
// expected, not stranded.
TEST(DeadlockDetector, CleanIonServerRunHasNoFindings) {
  Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(8, 1));
  ppfs::IonServer server(machine, 0, /*aggregate=*/true, 64 * 1024);
  DeadlockDetector det(engine);

  auto proc = [&](io::NodeId node) -> Task<> {
    const io::IoOutcome r = co_await server.submit(
        node, std::uint64_t{node} * 4096, 4096, /*is_write=*/true);
    EXPECT_TRUE(r.ok());
  };
  engine.spawn(proc(0));
  engine.spawn(proc(1));
  engine.run();
  det.finish();

  EXPECT_TRUE(det.ok()) << det.report();
  EXPECT_EQ(server.stats().requests, 2u);
}

// The detector coexists with the race detector on the observer chain, and
// find() locates each through the other.
TEST(DeadlockDetector, FindWalksObserverChain) {
  Engine engine;
  EXPECT_EQ(DeadlockDetector::find(engine), nullptr);
  RaceDetector races(engine);
  DeadlockDetector deadlocks(engine);
  EXPECT_EQ(DeadlockDetector::find(engine), &deadlocks);
  EXPECT_EQ(RaceDetector::find(engine), &races);
}

}  // namespace
}  // namespace paraio::sim
