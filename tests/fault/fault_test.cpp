// Fault injection and recovery: RAID-3 degraded mode and rebuild, Machine
// accessor bounds, FaultInjector scheduling, and the end-to-end acceptance
// scenarios of docs/FAULTS.md — a disk failing mid-ESCAT completes with the
// degraded-read penalty visible in metrics, an ION crash completes via
// retry/backoff + failover, and the same FaultPlan + seed reproduces
// bit-identical traces.  Property tests drive random seeded plans through
// full invariant checking and deadlock detection.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../testkit/test_configs.hpp"
#include "apps/synthetic.hpp"
#include "core/experiment.hpp"
#include "hw/machine.hpp"
#include "hw/raid.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pablo/instrument.hpp"
#include "ppfs/ppfs.hpp"
#include "sim/deadlock.hpp"
#include "sim/engine.hpp"
#include "testkit/gen.hpp"
#include "testkit/invariants.hpp"
#include "testkit/property.hpp"
#include "testkit/trace_hash.hpp"

namespace paraio {
namespace {

// --- RAID-3 degraded mode ---------------------------------------------------

sim::Task<> access_once(hw::Raid3Array& array, std::uint64_t bytes,
                        bool is_write, bool expect_degraded) {
  const hw::DiskOutcome r = co_await array.access(0, bytes, is_write);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.degraded, expect_degraded);
}

double timed_access(bool degraded, bool is_write, std::uint64_t bytes) {
  sim::Engine engine;
  hw::Raid3Array array(engine, hw::Raid3Params{});
  if (degraded) array.fail_disk(2);
  engine.spawn(access_once(array, bytes, is_write, degraded));
  return engine.run();
}

TEST(FaultRaid, DegradedReadPaysReconstructionPenalty) {
  const std::uint64_t bytes = 1 << 20;
  const double healthy_read = timed_access(false, false, bytes);
  const double degraded_read = timed_access(true, false, bytes);
  // Expected extra = (penalty - 1) * bytes / streaming_rate.
  const hw::Raid3Params params;
  const double extra = (params.degraded_read_penalty - 1.0) *
                       static_cast<double>(bytes) / params.streaming_rate();
  EXPECT_GT(extra, 0.0);
  EXPECT_NEAR(degraded_read, healthy_read + extra, 1e-9);
  // Writes skip parity reconstruction: no extra time, but the access is
  // still counted as degraded.
  const double healthy_write = timed_access(false, true, bytes);
  const double degraded_write = timed_access(true, true, bytes);
  EXPECT_DOUBLE_EQ(degraded_write, healthy_write);
}

TEST(FaultRaid, DoubleFailureRefusesAccess) {
  sim::Engine engine;
  hw::Raid3Array array(engine, hw::Raid3Params{});
  array.fail_disk(0);
  array.fail_disk(3);
  EXPECT_TRUE(array.failed());
  auto proc = [&]() -> sim::Task<> {
    const hw::DiskOutcome r = co_await array.access(0, 4096, false);
    EXPECT_TRUE(r.failed);
    EXPECT_FALSE(r.ok());
  };
  engine.spawn(proc());
  engine.run();
  EXPECT_EQ(array.fault_stats().disk_failures, 2u);
  EXPECT_EQ(array.fault_stats().failed_accesses, 1u);
  EXPECT_EQ(array.fault_stats().degraded_accesses, 0u);
}

TEST(FaultRaid, RepairRebuildsAndRestoresHealth) {
  sim::Engine engine;
  hw::Raid3Array array(engine, hw::Raid3Params{});
  auto proc = [&]() -> sim::Task<> {
    // Establish an extent the rebuild must reconstruct.
    const hw::DiskOutcome w = co_await array.access(0, 4 << 20, true);
    EXPECT_TRUE(w.ok());
    array.fail_disk(1);
    EXPECT_TRUE(array.degraded());
    array.repair_disk(1);
    EXPECT_EQ(array.disk_health(1), hw::DiskHealth::kRebuilding);
    // Foreground traffic while the rebuild holds the spindles: served, and
    // still flagged degraded until the rebuild finishes.
    const hw::DiskOutcome r = co_await array.access(0, 4096, false);
    EXPECT_TRUE(r.ok());
  };
  engine.spawn(proc());
  engine.run();  // drains the background rebuild too
  EXPECT_EQ(array.disk_health(1), hw::DiskHealth::kHealthy);
  EXPECT_FALSE(array.degraded());
  EXPECT_EQ(array.fault_stats().repairs, 1u);
  EXPECT_GE(array.fault_stats().rebuild_bytes, std::uint64_t{4} << 20);
  EXPECT_GT(array.fault_stats().rebuild_chunks, 0u);
}

// A rebuild reconstructs the chunks writes touched, not every address up
// to the highest one: disk addresses are sparse (file id << 30, absorber
// drains from 2^45), so the highest written byte overstates the data by
// orders of magnitude.
TEST(FaultRaid, RebuildCoversOnlyWrittenChunks) {
  sim::Engine engine;
  hw::Raid3Array array(engine, hw::Raid3Params{});  // 1 MiB rebuild chunks
  const std::uint64_t mib = std::uint64_t{1} << 20;
  auto proc = [&]() -> sim::Task<> {
    const hw::DiskOutcome w = co_await array.access(std::uint64_t{4} << 30,
                                                    mib, true);
    EXPECT_TRUE(w.ok());
    array.fail_disk(2);
    array.repair_disk(2);
  };
  engine.spawn(proc());
  engine.run();
  EXPECT_EQ(array.disk_health(2), hw::DiskHealth::kHealthy);
  EXPECT_EQ(array.fault_stats().rebuild_bytes, mib);
  EXPECT_EQ(array.fault_stats().rebuild_chunks, 1u);
}

// Writes that straddle chunk boundaries or revisit a chunk count each
// touched chunk once.
TEST(FaultRaid, RebuildCountsEachTouchedChunkOnce) {
  sim::Engine engine;
  hw::Raid3Array array(engine, hw::Raid3Params{});
  const std::uint64_t mib = std::uint64_t{1} << 20;
  auto proc = [&]() -> sim::Task<> {
    // Chunks 2-4 (straddling), 4 again, 9, then 2 again.
    const std::pair<std::uint64_t, std::uint64_t> writes[] = {
        {2 * mib + 100, 2 * mib}, {4 * mib, 4096}, {9 * mib + 7, 1},
        {2 * mib, mib}};
    for (const auto& [offset, bytes] : writes) {
      const hw::DiskOutcome w = co_await array.access(offset, bytes, true);
      EXPECT_TRUE(w.ok());
    }
    array.fail_disk(0);
    array.repair_disk(0);
  };
  engine.spawn(proc());
  engine.run();
  EXPECT_EQ(array.fault_stats().rebuild_chunks, 4u);
  EXPECT_EQ(array.fault_stats().rebuild_bytes, 4 * mib);
}

TEST(FaultRaid, DiskIndexBoundsChecked) {
  sim::Engine engine;
  hw::Raid3Array array(engine, hw::Raid3Params{});  // 5 disks: [0, 5)
  EXPECT_THROW(array.fail_disk(5), std::out_of_range);
  EXPECT_THROW(array.repair_disk(99), std::out_of_range);
  EXPECT_THROW((void)array.disk_health(5), std::out_of_range);
  try {
    array.fail_disk(7);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("7"), std::string::npos) << what;
    EXPECT_NE(what.find("5"), std::string::npos) << what;
  }
}

TEST(FaultMachine, IonAccessorsBoundsChecked) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  EXPECT_THROW((void)machine.ion_array(2), std::out_of_range);
  EXPECT_THROW((void)machine.ion_node_id(2), std::out_of_range);
  EXPECT_THROW((void)machine.ion_up(2), std::out_of_range);
  EXPECT_THROW(machine.set_ion_up(2, false), std::out_of_range);
  EXPECT_THROW((void)machine.ion_epoch(2), std::out_of_range);
  EXPECT_THROW((void)machine.compute_node_id(4), std::out_of_range);
  try {
    (void)machine.ion_array(9);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ion_array"), std::string::npos) << what;
    EXPECT_NE(what.find("index 9"), std::string::npos) << what;
    EXPECT_NE(what.find("2 I/O nodes"), std::string::npos) << what;
  }
}

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjection, AppliesEventsAtPlannedTimes) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  fault::FaultPlan plan;
  plan.add({1.0, fault::FaultKind::kDiskFail, 0, 0, 0.0});
  plan.add({2.0, fault::FaultKind::kIonCrash, 1, 0, 0.0});
  fault::FaultInjector injector(engine, machine, plan);

  auto probe = [&]() -> sim::Task<> {
    co_await engine.delay(0.5);
    EXPECT_EQ(injector.applied(), 0u);
    EXPECT_FALSE(machine.ion_array(0).degraded());
    EXPECT_TRUE(machine.ion_up(1));
    co_await engine.delay(1.0);  // t = 1.5
    EXPECT_EQ(injector.applied(), 1u);
    EXPECT_TRUE(machine.ion_array(0).degraded());
    EXPECT_TRUE(machine.ion_up(1));
    co_await engine.delay(1.0);  // t = 2.5
    EXPECT_EQ(injector.applied(), 2u);
    EXPECT_FALSE(machine.ion_up(1));
    EXPECT_EQ(machine.ion_epoch(1), 1u);
  };
  engine.spawn(probe());
  engine.run();
  EXPECT_EQ(injector.applied(), 2u);
}

// Every plan entry is checked when the injector is built, so a bad entry
// fails with its description instead of mid-run (or, for a NaN time,
// silently blocking the entries after it).
TEST(FaultInjection, RejectsInvalidPlanEntries) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    fault::FaultEvent event;
    const char* reason;  // what the message must say after the entry
  };
  using K = fault::FaultKind;
  // paragon_xps(4, 2): I/O nodes [0, 2), five-disk arrays.
  for (const Bad& bad : {
           Bad{{nan, K::kDiskFail, 0, 0, 0.0}, "time must"},
           Bad{{inf, K::kIonCrash, 0, 0, 0.0}, "time must"},
           Bad{{0.5, K::kIonCrash, 0, 0, 0.0}, "time must"},
           Bad{{2.0, K::kIonCrash, 2, 0, 0.0}, "ion out of range"},
           Bad{{2.0, K::kIonRestart, 7, 0, 0.0}, "ion out of range"},
           Bad{{2.0, K::kDiskFail, 2, 0, 0.0}, "ion out of range"},
           Bad{{2.0, K::kDiskRepair, 1, 5, 0.0}, "disk out of range"},
           Bad{{2.0, K::kNetLoss, 0, 0, 1.5}, "loss probability"},
           Bad{{2.0, K::kNetLoss, 0, 0, -0.1}, "loss probability"},
           Bad{{2.0, K::kNetLoss, 0, 0, nan}, "loss probability"},
           Bad{{2.0, K::kNetDelay, 0, 0, -1.0}, "delay must"},
           Bad{{2.0, K::kNetDelay, 0, 0, inf}, "delay must"},
       }) {
    sim::Engine engine;
    hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
    auto advance = [&]() -> sim::Task<> { co_await engine.delay(1.0); };
    engine.spawn(advance());
    engine.run();  // now() == 1: entries before it are in the past
    fault::FaultPlan plan;
    plan.add({3.0, fault::FaultKind::kDiskFail, 1, 4, 0.0});  // valid
    plan.add(bad.event);
    const std::string entry = fault::describe(bad.event);
    try {
      fault::FaultInjector injector(engine, machine, plan);
      ADD_FAILURE() << "accepted " << entry;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("plan entry 1"), std::string::npos) << what;
      EXPECT_NE(what.find("(" + entry + "): " + bad.reason),
                std::string::npos)
          << what;
    }
    // Nothing was scheduled, not even the valid entry.
    EXPECT_EQ(engine.pending_events(), 0u) << entry;
  }
}

// Rebuild traffic occupies the spindles, so the published busy time must
// include it: "busiest resources" would otherwise under-report a rebuilding
// array.
TEST(FaultInjection, RebuildTimeShowsInPublishedBusyTime) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  obs::Registry metrics;
  machine.attach_metrics(metrics);
  fault::FaultPlan plan;
  plan.add({1.0, fault::FaultKind::kDiskFail, 0, 1, 0.0});
  plan.add({2.0, fault::FaultKind::kDiskRepair, 0, 1, 0.0});
  fault::FaultInjector injector(engine, machine, plan, &metrics);

  auto writer = [&]() -> sim::Task<> {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const hw::DiskOutcome w =
          co_await machine.ion_array(0).access(i << 20, 1 << 20, true);
      EXPECT_TRUE(w.ok());
      co_await engine.delay(0.5);
    }
  };
  engine.spawn(writer());
  engine.run();

  const hw::Raid3Array& array = machine.ion_array(0);
  ASSERT_GT(array.fault_stats().rebuild_chunks, 0u);
  EXPECT_EQ(metrics.gauge("hw.array0.busy_s").value(), array.stats().busy_time);
  EXPECT_EQ(metrics.counter("fault.disk-repair").value(), 1u);
}

/// Records the time of every executed event.
struct EventTimes final : sim::EngineObserver {
  std::vector<sim::SimTime> times;
  void on_event(sim::SimTime when) override { times.push_back(when); }
};

// Fault events are ordinary kernel events: the observers already attached
// hear each of them, at its planned time, like any other event.
TEST(FaultInjection, AttachesBesideExistingObservers) {
  testkit::InvariantChecker checker;
  EventTimes seen;
  sim::Engine engine;
  engine.attach(checker);
  engine.attach(seen);
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(2, 1));
  fault::FaultPlan plan;
  plan.add({0.5, fault::FaultKind::kIonCrash, 0, 0, 0.0});
  plan.add({1.5, fault::FaultKind::kIonRestart, 0, 0, 0.0});
  fault::FaultInjector injector(engine, machine, plan);
  auto tick = [&]() -> sim::Task<> { co_await engine.delay(1.0); };
  engine.spawn(tick());
  engine.run();
  EXPECT_EQ(injector.applied(), 2u);
  EXPECT_TRUE(machine.ion_up(0));
  EXPECT_EQ(machine.ion_epoch(0), 1u);
  EXPECT_EQ(seen.times.size(), engine.events_executed());
  for (const sim::SimTime at : {0.5, 1.5}) {
    EXPECT_EQ(std::count(seen.times.begin(), seen.times.end(), at), 1)
        << "no event observed at t=" << at;
  }
  EXPECT_EQ(engine.now(), 1.5);
  checker.finish();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// A fault lands at exactly its planned time, even when no other event is
// due then: in a quiet gap between application events, and after the
// application's last event.
TEST(FaultInjection, AppliesAtExactTimeInQuietGapsAndAfterLastEvent) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  obs::Tracer tracer;
  tracer.bind(engine);
  fault::FaultPlan plan;
  plan.add({3.0, fault::FaultKind::kDiskFail, 0, 2, 0.0});
  plan.add({25.0, fault::FaultKind::kIonCrash, 1, 0, 0.0});
  fault::FaultInjector injector(engine, machine, plan, nullptr, &tracer);

  // Application events at t = 1 and t = 10 only.
  auto app = [&]() -> sim::Task<> {
    co_await engine.delay(1.0);
    EXPECT_EQ(injector.applied(), 0u);
    co_await engine.delay(9.0);
    EXPECT_EQ(injector.applied(), 1u);
    EXPECT_TRUE(machine.ion_array(0).degraded());
  };
  engine.spawn(app());
  engine.run();

  EXPECT_EQ(injector.applied(), 2u);
  EXPECT_FALSE(machine.ion_up(1));
  EXPECT_EQ(engine.now(), 25.0);
  ASSERT_EQ(tracer.instants().size(), 2u);
  EXPECT_EQ(*tracer.instants()[0].name, "disk-fail");
  EXPECT_EQ(tracer.instants()[0].time, 3.0);
  EXPECT_EQ(*tracer.instants()[1].name, "ion-crash");
  EXPECT_EQ(tracer.instants()[1].time, 25.0);
}

// --- acceptance: the scenarios the issue names ------------------------------

TEST(FaultRecovery, DiskFailureMidEscatCompletesDegraded) {
  core::ExperimentConfig cfg =
      testkit::golden_experiment(testkit::golden_escat());
  const core::ExperimentResult clean = core::run_experiment(cfg);
  ASSERT_GT(clean.run_end, clean.run_start);

  // Fail one drive of ION 0's array halfway through the measured run.
  cfg.fault_plan.add({(clean.run_start + clean.run_end) / 2.0,
                      fault::FaultKind::kDiskFail, 0, 1, 0.0});
  obs::Registry metrics;
  cfg.hooks.metrics = &metrics;
  const core::ExperimentResult faulty = core::run_experiment(cfg);

  // The run completes under degraded hardware...
  EXPECT_GT(faulty.run_end, faulty.run_start);
  EXPECT_EQ(faulty.trace.size(), clean.trace.size());
  EXPECT_EQ(faulty.faults_injected, 1u);
  EXPECT_EQ(faulty.raid_faults.disk_failures, 1u);
  // ...with post-failure accesses served in degraded mode, and the penalty
  // visible in the hardware metrics.
  EXPECT_GT(faulty.raid_faults.degraded_accesses, 0u);
  EXPECT_EQ(faulty.raid_faults.failed_accesses, 0u);
  EXPECT_GT(metrics.counter("hw.array0.degraded").value(), 0u);
  EXPECT_EQ(metrics.counter("fault.injected").value(), 1u);
  EXPECT_EQ(metrics.counter("fault.disk-fail").value(), 1u);
  // Degraded reads only add time: the faulty run can never be faster.
  EXPECT_GE(faulty.run_end, clean.run_end);
}

TEST(FaultRecovery, IonCrashFailsOverAndCompletes) {
  core::ExperimentConfig cfg =
      testkit::golden_experiment(testkit::golden_escat());
  cfg.filesystem = core::FsChoice::ppfs();  // the fault-aware mount
  const core::ExperimentResult clean = core::run_experiment(cfg);
  ASSERT_GT(clean.run_end, clean.run_start);
  EXPECT_EQ(clean.recovery.retries, 0u);
  EXPECT_EQ(clean.recovery.failovers, 0u);
  EXPECT_EQ(clean.recovery.requests, clean.recovery.ok);

  // Crash ION 1 halfway through the measured run; it never restarts, so
  // every later request to it must retry, back off, and fail over.
  cfg.fault_plan.add({(clean.run_start + clean.run_end) / 2.0,
                      fault::FaultKind::kIonCrash, 1, 0, 0.0});
  const core::ExperimentResult faulty = core::run_experiment(cfg);

  EXPECT_GT(faulty.run_end, faulty.run_start);
  EXPECT_EQ(faulty.faults_injected, 1u);
  // Graceful degradation: refusals were retried and re-routed to surviving
  // I/O nodes, and every request still completed — no dirty data lost.
  EXPECT_GT(faulty.recovery.refused, 0u);
  EXPECT_GT(faulty.recovery.retries, 0u);
  EXPECT_GT(faulty.recovery.failovers, 0u);
  EXPECT_GT(faulty.recovery.failover_bytes, 0u);
  EXPECT_EQ(faulty.recovery.failed, 0u);
  EXPECT_EQ(faulty.recovery.requests, faulty.recovery.ok);
  // The same application work was performed despite the crash.
  EXPECT_EQ(testkit::logical_signature(faulty.trace),
            testkit::logical_signature(clean.trace));
}

TEST(FaultRecovery, SamePlanSameSeedIsBitIdentical) {
  core::ExperimentConfig cfg =
      testkit::golden_experiment(testkit::golden_escat());
  cfg.filesystem = core::FsChoice::ppfs();
  // A busy plan: degraded array, a lossy-interconnect window (exercises the
  // seeded loss and retry-jitter streams), and an ION crash/restart pair.
  cfg.fault_plan.add({5.0, fault::FaultKind::kDiskFail, 0, 0, 0.0});
  cfg.fault_plan.add({10.0, fault::FaultKind::kNetLoss, 0, 0, 0.10});
  cfg.fault_plan.add({30.0, fault::FaultKind::kNetLoss, 0, 0, 0.0});
  cfg.fault_plan.add({15.0, fault::FaultKind::kIonCrash, 2, 0, 0.0});
  cfg.fault_plan.add({40.0, fault::FaultKind::kIonRestart, 2, 0, 0.0});

  const core::ExperimentResult a = core::run_experiment(cfg);
  const core::ExperimentResult b = core::run_experiment(cfg);
  EXPECT_EQ(testkit::hash_trace(a.trace), testkit::hash_trace(b.trace))
      << testkit::hash_hex(testkit::hash_trace(a.trace)) << " vs "
      << testkit::hash_hex(testkit::hash_trace(b.trace));
  EXPECT_EQ(a.run_end, b.run_end);
  EXPECT_EQ(a.recovery.requests, b.recovery.requests);
  EXPECT_EQ(a.recovery.retries, b.recovery.retries);
  EXPECT_EQ(a.recovery.timeouts, b.recovery.timeouts);
  EXPECT_EQ(a.recovery.failovers, b.recovery.failovers);
  EXPECT_EQ(a.recovery.dirty_bytes_lost, b.recovery.dirty_bytes_lost);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

// --- properties: random seeded fault plans ----------------------------------

TEST(FaultProperties, GeneratedPlansPairDestructionWithRecovery) {
  sim::Rng rng(0xFA17);
  for (int i = 0; i < 50; ++i) {
    const fault::FaultPlan plan = testkit::gen_fault_plan(4, 5)(rng);
    ASSERT_FALSE(plan.empty());
    for (const fault::FaultEvent& e : plan.events) {
      EXPECT_LT(e.ion, 4u) << plan.describe();
      EXPECT_LT(e.disk, 5u) << plan.describe();
      EXPECT_GE(e.at, 0.0);
      // Every destructive event has a later recovery partner, so a random
      // schedule perturbs a run instead of ending it.
      auto paired = [&](fault::FaultKind recovery, bool match_disk) {
        for (const fault::FaultEvent& r : plan.events) {
          if (r.kind == recovery && r.ion == e.ion && r.at > e.at &&
              (!match_disk || r.disk == e.disk)) {
            return true;
          }
        }
        return false;
      };
      switch (e.kind) {
        case fault::FaultKind::kDiskFail:
          EXPECT_TRUE(paired(fault::FaultKind::kDiskRepair, true))
              << plan.describe();
          break;
        case fault::FaultKind::kIonCrash:
          EXPECT_TRUE(paired(fault::FaultKind::kIonRestart, false))
              << plan.describe();
          break;
        case fault::FaultKind::kNetLoss:
        case fault::FaultKind::kNetDelay:
          if (e.value > 0.0) {
            auto clears = [&] {
              for (const fault::FaultEvent& r : plan.events) {
                if (r.kind == e.kind && r.at > e.at && r.value == 0.0) {
                  return true;
                }
              }
              return false;
            };
            EXPECT_TRUE(clears()) << plan.describe();
          }
          break;
        default:
          break;
      }
    }
  }
}

/// Runs one generated PPFS case under a random fault schedule with the full
/// harness attached: invariant checking, deadlock detection, and the
/// recovery-accounting contract (every non-lost request completes or
/// returns a typed, counted error; requests == ok + failed at quiescence).
std::optional<std::string> run_fault_case(const testkit::FaultCase& c) {
  testkit::InvariantChecker::Options opts;
  opts.exact_conservation = false;  // PPFS: cache-aware bounds
  testkit::InvariantChecker checker(opts);
  sim::Engine engine;
  engine.attach(checker);
  hw::Machine machine(engine, c.base.machine);
  sim::DeadlockDetector deadlocks(engine);
  fault::FaultInjector injector(engine, machine, c.plan);
  ppfs::Ppfs fs(machine, c.base.filesystem.ppfs_params);
  pablo::InstrumentedFs instrumented(fs, engine);
  pablo::Trace trace;
  instrumented.add_sink(trace);
  apps::Synthetic app(machine, instrumented, c.base.workload);

  core::DiskBytes staged;
  auto drive = [&]() -> sim::Task<> {
    co_await app.stage(fs);
    staged = {fs.counters().disk_bytes_read, fs.counters().disk_bytes_written};
    co_await app.run();
  };
  engine.spawn(drive());
  engine.run();
  deadlocks.finish();
  if (!deadlocks.ok()) return "deadlock detector: " + deadlocks.report();

  for (const pablo::IoEvent& e : trace.events()) checker.on_event(e);
  checker.observe_disk(fs.counters(), staged);
  const fault::RecoveryStats& rs = fs.recovery_stats();
  checker.observe_recovery(rs);  // requests == ok + failed at quiescence
  checker.finish();
  if (!checker.ok()) return checker.report();

  if (rs.failed == 0 && rs.dirty_bytes_lost != 0) {
    return "dirty bytes lost without a failed write";
  }
  return std::nullopt;
}

TEST(FaultProperties, RandomFaultCasesKeepInvariantsAndQuiesce) {
  testkit::PropertyConfig cfg;
  cfg.cases = 15;
  cfg.seed = 0xFA117;
  const auto result = testkit::check_property<testkit::FaultCase>(
      cfg, testkit::gen_fault_case(), testkit::shrink_fault_case,
      [](const testkit::FaultCase& c) { return run_fault_case(c); });
  EXPECT_TRUE(result.ok) << testkit::explain(
      result, [](const testkit::FaultCase& c) { return c.describe(); });
}

TEST(FaultProperties, FaultCaseShrinkDropsEventsAndKeepsTargetsValid) {
  sim::Rng rng(0xBEEF);
  const testkit::FaultCase original = testkit::gen_fault_case()(rng);
  const auto candidates = testkit::shrink_fault_case(original);
  ASSERT_FALSE(candidates.empty());
  // The most aggressive candidate strips the plan entirely.
  EXPECT_TRUE(candidates.front().plan.empty());
  for (const testkit::FaultCase& c : candidates) {
    EXPECT_LE(c.plan.size(), original.plan.size());
    for (const fault::FaultEvent& e : c.plan.events) {
      EXPECT_LT(e.ion, c.base.machine.io_nodes) << c.describe();
    }
  }
}

}  // namespace
}  // namespace paraio
