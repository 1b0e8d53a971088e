// Checkpoint/restart under faults: the host-side log, the write absorber,
// the two-barrier epoch protocol, and crash-consistent recovery.
//
// The acceptance scenario (CrashRecovery suite) is the ISSUE's end-to-end
// contract: an application checkpoints through the absorber while a
// FaultPlan crashes an ION mid-run; the run completes (recovery absorbs the
// fault), and replaying the durable log image recovers exactly the last
// committed epoch — same id, bit-identical digest — with a non-negative
// data-loss window.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "apps/synthetic.hpp"
#include "ckpt/absorber.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/log.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "pablo/instrument.hpp"
#include "sim/deadlock.hpp"
#include "sim/engine.hpp"
#include "testkit/gen.hpp"
#include "testkit/invariants.hpp"
#include "testkit/property.hpp"
#include "testkit/trace_hash.hpp"

#include "../testkit/test_configs.hpp"

namespace paraio {
namespace {

// --- log unit tests ---------------------------------------------------------

ckpt::LogRecord data_record(std::uint64_t epoch, std::uint32_t node,
                            std::uint64_t offset, std::uint64_t bytes) {
  ckpt::LogRecord r;
  r.kind = ckpt::RecordKind::kData;
  r.epoch = epoch;
  r.node = node;
  r.offset = offset;
  r.bytes = bytes;
  return r;
}

/// Pushes `chunks` data records for `epoch` followed by its commit record,
/// returning the digest the commit pinned (folded the way the absorber
/// folds it: over the data records' checksums, in append order).
std::uint64_t push_epoch(ckpt::LogImage& log, std::uint64_t epoch,
                         std::uint32_t chunks, std::uint64_t bytes) {
  std::uint64_t digest = ckpt::kFnvOffset;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    ckpt::LogRecord r = data_record(epoch, i % 4, i * bytes, bytes);
    r.checksum = r.expected_checksum();
    digest = ckpt::digest_fold(digest, r.checksum);
    log.push(r);
  }
  ckpt::LogRecord commit;
  commit.kind = ckpt::RecordKind::kCommit;
  commit.epoch = epoch;
  commit.digest = digest;
  log.push(commit);
  return digest;
}

TEST(CkptLog, EmptyImageRecoversNothing) {
  const ckpt::LogImage log;
  const ckpt::RecoveredState rec = ckpt::recover(log);
  EXPECT_EQ(rec.epoch, 0u);
  EXPECT_EQ(rec.committed_bytes, 0u);
  EXPECT_EQ(rec.records_replayed, 0u);
  EXPECT_EQ(rec.torn_records, 0u);
}

TEST(CkptLog, CommittedEpochsReplayExactly) {
  ckpt::LogImage log;
  push_epoch(log, 1, 8, 4096);
  const std::uint64_t digest2 = push_epoch(log, 2, 8, 4096);

  const ckpt::RecoveredState rec = ckpt::recover(log);
  EXPECT_EQ(rec.epoch, 2u);
  EXPECT_EQ(rec.digest, digest2);
  EXPECT_EQ(rec.committed_bytes, 2u * 8u * 4096u);
  EXPECT_EQ(rec.records_replayed, 18u);  // 2 x (8 data + 1 commit)
  EXPECT_EQ(rec.torn_records, 0u);
  EXPECT_EQ(rec.torn_bytes, 0u);
}

TEST(CkptLog, SegmentsSealAtPayloadTarget) {
  ckpt::LogImage log(16 * 1024);
  push_epoch(log, 1, 8, 4096);  // 32 KB payload -> at least 2 segments
  ASSERT_GE(log.segments().size(), 2u);
  EXPECT_TRUE(log.segments().front().sealed);
  EXPECT_EQ(log.segments().front().checksum,
            log.segments().front().computed_checksum());
  // Sealing never loses records or bytes.
  EXPECT_EQ(log.record_count(), 9u);
  EXPECT_EQ(log.payload_bytes(), 8u * 4096u);
}

// Segments split the records in append order: each seals once it holds
// the payload target, with a checksum over its records, and only the tail
// stays open.
TEST(CkptLog, SegmentsSplitRecordsAtThePayloadTarget) {
  ckpt::LogImage log(16 * 1024);
  push_epoch(log, 1, 10, 4096);  // four chunks seal a segment
  push_epoch(log, 2, 3, 4096);
  const auto& segs = log.segments();
  ASSERT_EQ(segs.size(), 4u);
  std::size_t records = 0;
  std::uint64_t bytes = 0;
  for (const ckpt::LogSegment& seg : segs) {
    std::uint64_t seg_bytes = 0;
    for (const ckpt::LogRecord& r : seg.records) seg_bytes += r.bytes;
    EXPECT_EQ(seg.payload_bytes, seg_bytes);
    records += seg.records.size();
    bytes += seg_bytes;
    if (seg.sealed) {
      EXPECT_EQ(seg.checksum, seg.computed_checksum());
    }
  }
  EXPECT_EQ(records, log.record_count());
  EXPECT_EQ(bytes, log.payload_bytes());
  // Four chunks, four chunks, then epoch 1's last two chunks, its commit
  // and epoch 2's first two chunks; the open tail holds epoch 2's third
  // chunk and its commit.
  EXPECT_EQ(segs[0].records.size(), 4u);
  EXPECT_EQ(segs[1].records.size(), 4u);
  EXPECT_EQ(segs[2].records.size(), 5u);
  EXPECT_TRUE(segs[2].sealed);
  EXPECT_FALSE(segs[3].sealed);
  EXPECT_EQ(segs[3].records.size(), 2u);
}

TEST(CkptLog, TruncationAcrossSegmentsDropsTheirRecordsAndBytes) {
  ckpt::LogImage log(16 * 1024);
  push_epoch(log, 1, 10, 4096);
  push_epoch(log, 2, 3, 4096);
  // Keep the first segment and half of the second.
  log.truncate_records(6);
  EXPECT_EQ(log.record_count(), 6u);
  EXPECT_EQ(log.payload_bytes(), 6u * 4096u);
  ASSERT_EQ(log.segments().size(), 2u);
  const ckpt::LogSegment& cut = log.segments().back();
  EXPECT_EQ(cut.records.size(), 2u);
  EXPECT_EQ(cut.payload_bytes, 2u * 4096u);
  // The cut segment keeps its sealed checksum, which no longer matches: a
  // torn segment, so replay stops at its start.
  EXPECT_TRUE(cut.sealed);
  EXPECT_NE(cut.checksum, cut.computed_checksum());
  const ckpt::RecoveredState rec = ckpt::recover(log);
  EXPECT_EQ(rec.epoch, 0u);
  EXPECT_EQ(rec.torn_records, 6u);
  EXPECT_EQ(rec.torn_bytes, 6u * 4096u);

  // A cut on a segment boundary leaves whole, verifiable segments.
  log.truncate_records(4);
  ASSERT_EQ(log.segments().size(), 1u);
  EXPECT_EQ(log.segments().front().checksum,
            log.segments().front().computed_checksum());
  EXPECT_EQ(log.record_count(), 4u);
  log.truncate_records(0);
  EXPECT_TRUE(log.segments().empty());
  EXPECT_EQ(log.payload_bytes(), 0u);
}

TEST(CkptLog, CorruptionFlipsOnlyTheLastRecord) {
  ckpt::LogImage log(16 * 1024);
  push_epoch(log, 1, 4, 4096);  // the commit opens a second segment
  const ckpt::LogImage intact = log;
  log.corrupt_last_record();
  ASSERT_EQ(log.segments().size(), 2u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(log.segments()[0].records[i].epoch,
              intact.segments()[0].records[i].epoch);
  }
  const ckpt::LogRecord& last = log.segments()[1].records.back();
  EXPECT_NE(last.checksum, last.expected_checksum());
  EXPECT_EQ(ckpt::recover(log).records_replayed, 0u);
  EXPECT_EQ(ckpt::recover(intact).epoch, 1u);
}

TEST(CkptLog, TornTailFallsBackToLastCommit) {
  ckpt::LogImage log;
  const std::uint64_t digest1 = push_epoch(log, 1, 4, 2048);
  // Epoch 2 dump is interrupted before its commit: a torn tail.
  log.push(data_record(2, 0, 0, 2048));
  log.push(data_record(2, 1, 0, 2048));

  const ckpt::RecoveredState rec = ckpt::recover(log);
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_EQ(rec.digest, digest1);
  EXPECT_EQ(rec.committed_bytes, 4u * 2048u);
  EXPECT_EQ(rec.torn_records, 2u);
  EXPECT_EQ(rec.torn_bytes, 2u * 2048u);
}

TEST(CkptLog, TruncationTearsUncommittedRecords) {
  ckpt::LogImage log;
  push_epoch(log, 1, 4, 2048);
  push_epoch(log, 2, 4, 2048);
  // Crash surgery: keep epoch 1 and half of epoch 2's dump.
  log.truncate_records(7);

  const ckpt::RecoveredState rec = ckpt::recover(log);
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_EQ(rec.records_replayed, 5u);
  EXPECT_EQ(rec.torn_records, 2u);
}

TEST(CkptLog, CorruptRecordDiscardsItAndTheRest) {
  ckpt::LogImage log;
  const std::uint64_t digest1 = push_epoch(log, 1, 4, 2048);
  push_epoch(log, 2, 4, 2048);
  log.corrupt_last_record();  // flips a header bit in epoch 2's commit

  const ckpt::RecoveredState rec = ckpt::recover(log);
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_EQ(rec.digest, digest1);
  EXPECT_GE(rec.torn_records, 1u);
}

TEST(CkptLog, CommitWithWrongDigestIsRejected) {
  ckpt::LogImage log;
  const std::uint64_t digest1 = push_epoch(log, 1, 4, 2048);
  log.push(data_record(2, 0, 0, 2048));
  ckpt::LogRecord bogus;
  bogus.kind = ckpt::RecordKind::kCommit;
  bogus.epoch = 2;
  bogus.digest = 0xDEAD;  // does not pin the data it claims to
  log.push(bogus);

  const ckpt::RecoveredState rec = ckpt::recover(log);
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_EQ(rec.digest, digest1);
}

// --- absorber ---------------------------------------------------------------

TEST(CkptAbsorber, AcksAtAppendAndDrainsInBackground) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  ppfs::Ppfs fs(machine, ppfs::PpfsParams{});
  ckpt::WriteAbsorber absorber(fs);

  sim::SimTime ack_time = 0.0;
  auto writer = [&]() -> sim::Task<> {
    for (std::uint32_t node = 0; node < 4; ++node) {
      for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
        co_await absorber.append(node, 1, chunk * 16384, 16384);
      }
    }
    ack_time = engine.now();
    (void)co_await absorber.commit(1);
  };
  engine.spawn(writer());
  engine.run();

  const ckpt::AbsorberStats s = absorber.stats();
  EXPECT_EQ(s.appends, 16u);
  EXPECT_EQ(s.acked_bytes, 16u * 16384u);
  // At quiescence every acknowledged byte has drained to an ION.
  EXPECT_EQ(s.drained_bytes, s.acked_bytes);
  EXPECT_EQ(s.log_resident_bytes, 0u);
  EXPECT_EQ(s.dirty_bytes_lost, 0u);
  EXPECT_EQ(s.commits, 1u);
  // The host-side log acknowledged at memory speed: the writer finished its
  // appends long before the drain finished shipping them (engine.now() at
  // quiescence is past ack_time).
  EXPECT_GT(engine.now(), ack_time);

  // Recovery of the image lands on the committed epoch.
  const ckpt::RecoveredState rec = ckpt::recover(absorber.log());
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_EQ(rec.committed_bytes, s.acked_bytes);

  testkit::InvariantChecker checker;
  checker.observe_absorber(s);
  checker.finish();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(CkptAbsorber, BoundedLogBackpressuresInsteadOfGrowing) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(2, 1));
  ppfs::Ppfs fs(machine, ppfs::PpfsParams{});
  ckpt::AbsorberParams params;
  params.log_capacity = 64 * 1024;  // 4 chunks deep
  params.drain_batch = 16 * 1024;
  ckpt::WriteAbsorber absorber(fs, params);

  std::uint64_t peak_resident = 0;
  auto writer = [&]() -> sim::Task<> {
    for (std::uint64_t chunk = 0; chunk < 64; ++chunk) {
      co_await absorber.append(0, 1, chunk * 16384, 16384);
      peak_resident = std::max(peak_resident, absorber.resident_bytes());
    }
    (void)co_await absorber.commit(1);
  };
  engine.spawn(writer());
  engine.run();

  const ckpt::AbsorberStats s = absorber.stats();
  EXPECT_GT(s.backpressure_waits, 0u);
  EXPECT_LE(peak_resident, params.log_capacity);
  EXPECT_EQ(s.acked_bytes,
            s.drained_bytes + s.log_resident_bytes + s.dirty_bytes_lost);
  EXPECT_EQ(s.drained_bytes, 64u * 16384u);
}

// Seven nodes append at the same instant into a log four chunks deep: four
// 16 KiB chunks fill it, then a 48 KiB chunk and two more 16 KiB chunks
// block.  The log must never hold more than its capacity, and the blocked
// appends must be admitted in arrival order: the 48 KiB chunk waits for
// three chunks' worth of room, and the small ones behind it, which would
// fit sooner, may not overtake it.
TEST(CkptAbsorber, ConcurrentAppendersHoldTheBoundInArrivalOrder) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(8, 2));
  sim::DeadlockDetector deadlocks(engine);
  ppfs::Ppfs fs(machine, ppfs::PpfsParams{});
  ckpt::AbsorberParams params;
  params.log_capacity = 64 * 1024;
  params.drain_batch = 16 * 1024;
  ckpt::WriteAbsorber absorber(fs, params);

  const std::vector<std::uint64_t> sizes = {16384, 16384, 16384, 16384,
                                            49152, 16384, 16384};
  std::uint64_t peak_resident = 0;
  std::vector<std::uint32_t> acked;  // nodes, in the order appends returned
  auto appender = [&](std::uint32_t node) -> sim::Task<> {
    co_await absorber.append(node, 1, 0, sizes[node]);
    peak_resident = std::max(peak_resident, absorber.resident_bytes());
    acked.push_back(node);
  };
  for (std::uint32_t node = 0; node < sizes.size(); ++node) {
    engine.spawn(appender(node));
  }
  engine.run();
  deadlocks.finish();
  EXPECT_TRUE(deadlocks.ok()) << deadlocks.report();

  EXPECT_LE(peak_resident, params.log_capacity);
  EXPECT_EQ(acked, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6}));
  const ckpt::AbsorberStats s = absorber.stats();
  EXPECT_EQ(s.backpressure_waits, 3u);  // each blocked append counted once
  EXPECT_EQ(s.acked_bytes, 147456u);
  EXPECT_EQ(s.drained_bytes, s.acked_bytes);
  EXPECT_EQ(s.log_resident_bytes, 0u);
}

TEST(CkptAbsorber, TakeLogLeavesTheLogEmpty) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(2, 1));
  ppfs::Ppfs fs(machine, ppfs::PpfsParams{});
  ckpt::WriteAbsorber absorber(fs);
  auto writer = [&]() -> sim::Task<> {
    for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
      co_await absorber.append(0, 1, chunk * 16384, 16384);
    }
    (void)co_await absorber.commit(1);
  };
  engine.spawn(writer());
  engine.run();

  const ckpt::LogImage log = absorber.take_log();
  EXPECT_EQ(log.record_count(), 5u);
  EXPECT_EQ(log.payload_bytes(), 4u * 16384u);
  EXPECT_EQ(ckpt::recover(log).epoch, 1u);
  EXPECT_EQ(absorber.log().record_count(), 0u);
  EXPECT_EQ(absorber.log().payload_bytes(), 0u);
  EXPECT_TRUE(absorber.log().segments().empty());
}

// --- experiment plumbing ----------------------------------------------------

core::ExperimentConfig checkpointed_escat(ckpt::CkptBackend backend) {
  core::ExperimentConfig cfg;
  cfg.machine = hw::MachineConfig::paragon_xps(8, 4);
  cfg.filesystem = core::FsChoice::ppfs();
  cfg.app = testkit::golden_escat();  // 8 nodes, 6 compute/write cycles
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.every = 2;  // checkpoint after cycles 2, 4, 6
  cfg.checkpoint.state_bytes = 64 * 1024;
  cfg.checkpoint.chunk_bytes = 16 * 1024;
  cfg.checkpoint.backend = backend;
  return cfg;
}

TEST(CkptExperiment, EscatCheckpointsThroughAbsorber) {
  const core::ExperimentResult result =
      core::run_experiment(checkpointed_escat(ckpt::CkptBackend::kAbsorber));

  EXPECT_EQ(result.checkpoint.epochs_started, 3u);
  EXPECT_EQ(result.checkpoint.epochs_committed, 3u);
  EXPECT_EQ(result.checkpoint.committed_epoch, 3u);
  EXPECT_EQ(result.checkpoint.bytes_dumped, 3u * 8u * 64u * 1024u);
  EXPECT_GT(result.checkpoint.checkpoint_time, 0.0);
  EXPECT_GE(result.checkpoint.data_loss_window, 0.0);

  ASSERT_NE(result.ckpt_log, nullptr);
  const ckpt::RecoveredState rec = ckpt::recover(*result.ckpt_log);
  EXPECT_EQ(rec.epoch, result.checkpoint.committed_epoch);
  EXPECT_EQ(rec.digest, result.checkpoint.committed_digest);
  EXPECT_EQ(rec.torn_records, 0u);

  testkit::InvariantChecker checker;
  checker.observe_absorber(result.absorber);
  checker.observe_recovery(result.recovery);
  checker.finish();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// The image the result carries is the absorber's own, moved out.  On the
// golden absorber configuration its size, bytes and recovered epoch and
// digest are pinned to the values the per-segment storage produced.
TEST(CkptExperiment, GoldenAbsorberLogIsPinned) {
  const core::ExperimentResult result =
      core::run_experiment(testkit::golden_escat_ppfs_ckpt());
  ASSERT_NE(result.ckpt_log, nullptr);
  EXPECT_EQ(result.ckpt_log->record_count(), 99u);
  EXPECT_EQ(result.ckpt_log->payload_bytes(), 1572864u);
  const ckpt::RecoveredState rec = ckpt::recover(*result.ckpt_log);
  EXPECT_EQ(rec.epoch, 3u);
  EXPECT_EQ(rec.digest, 0x1150b9cb518d5aaeu);
  EXPECT_EQ(rec.digest, result.checkpoint.committed_digest);
}

TEST(CkptExperiment, WriteBehindBaselineCommitsWithoutLog) {
  const core::ExperimentResult result = core::run_experiment(
      checkpointed_escat(ckpt::CkptBackend::kWriteBehind));
  EXPECT_EQ(result.checkpoint.epochs_committed, 3u);
  EXPECT_EQ(result.ckpt_log, nullptr);  // no host-side log to recover from
  EXPECT_GT(result.checkpoint.checkpoint_time, 0.0);
}

TEST(CkptExperiment, AbsorberBackendRequiresPpfsMount) {
  core::ExperimentConfig cfg = checkpointed_escat(ckpt::CkptBackend::kAbsorber);
  cfg.filesystem = core::FsChoice::pfs();
  EXPECT_THROW((void)core::run_experiment(cfg), std::invalid_argument);
}

TEST(CkptExperiment, DisabledCheckpointLeavesResultUntouched) {
  core::ExperimentConfig cfg = checkpointed_escat(ckpt::CkptBackend::kAbsorber);
  cfg.checkpoint.enabled = false;
  const core::ExperimentResult result = core::run_experiment(cfg);
  EXPECT_EQ(result.checkpoint.epochs_started, 0u);
  EXPECT_EQ(result.absorber.acked_bytes, 0u);
  EXPECT_EQ(result.ckpt_log, nullptr);
}

// --- crash recovery (the acceptance scenario) --------------------------------

core::ExperimentConfig crash_scenario() {
  core::ExperimentConfig cfg = checkpointed_escat(ckpt::CkptBackend::kAbsorber);
  // Crash ION 1 while the compute/write cycles (and their checkpoint
  // drains) are in full swing; bring it back late so the run completes on
  // the restored topology.
  fault::FaultEvent crash;
  crash.at = 8.0;
  crash.kind = fault::FaultKind::kIonCrash;
  crash.ion = 1;
  fault::FaultEvent restart;
  restart.at = 20.0;
  restart.kind = fault::FaultKind::kIonRestart;
  restart.ion = 1;
  cfg.fault_plan.add(crash);
  cfg.fault_plan.add(restart);
  return cfg;
}

TEST(CrashRecovery, MidCheckpointIonCrashRecoversToCommittedEpoch) {
  const core::ExperimentResult result = core::run_experiment(crash_scenario());

  EXPECT_EQ(result.faults_injected, 2u);
  // The absorber + PPFS recovery kept checkpointing through the crash.
  EXPECT_EQ(result.checkpoint.epochs_committed, 3u);
  ASSERT_NE(result.ckpt_log, nullptr);

  // Replaying the durable image IS the restart: it must land exactly on
  // the last committed epoch, bit-identical by digest.
  const ckpt::RecoveredState rec = ckpt::recover(*result.ckpt_log);
  EXPECT_EQ(rec.epoch, result.checkpoint.committed_epoch);
  EXPECT_EQ(rec.digest, result.checkpoint.committed_digest);

  // Exposure accounting: the window is measured at the crash instant and
  // can never be negative.
  EXPECT_GE(result.checkpoint.data_loss_window, 0.0);
  EXPECT_LE(result.checkpoint.data_loss_window, 8.0);

  // The recovery layer's books balance even under the crash.
  testkit::InvariantChecker checker;
  checker.observe_absorber(result.absorber);
  checker.observe_recovery(result.recovery);
  checker.finish();
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(CrashRecovery, SamePlanAndSeedIsBitIdentical) {
  const core::ExperimentResult a = core::run_experiment(crash_scenario());
  const core::ExperimentResult b = core::run_experiment(crash_scenario());
  ASSERT_NE(a.ckpt_log, nullptr);
  ASSERT_NE(b.ckpt_log, nullptr);
  EXPECT_EQ(testkit::hash_trace(a.trace), testkit::hash_trace(b.trace));
  EXPECT_EQ(a.checkpoint.committed_digest, b.checkpoint.committed_digest);
  const ckpt::RecoveredState ra = ckpt::recover(*a.ckpt_log);
  const ckpt::RecoveredState rb = ckpt::recover(*b.ckpt_log);
  EXPECT_EQ(ra.epoch, rb.epoch);
  EXPECT_EQ(ra.digest, rb.digest);
  EXPECT_EQ(ra.committed_bytes, rb.committed_bytes);
}

TEST(CrashRecovery, TornTailAfterCrashStillRecoversCommittedPrefix) {
  const core::ExperimentResult result = core::run_experiment(crash_scenario());
  ASSERT_NE(result.ckpt_log, nullptr);

  // Tear the tail the way a host crash mid-epoch would: keep the records
  // up to just past the second commit.
  ckpt::LogImage torn = *result.ckpt_log;
  const ckpt::RecoveredState full = ckpt::recover(torn);
  torn.truncate_records(
      static_cast<std::size_t>(full.records_replayed) - 1);
  const ckpt::RecoveredState rec = ckpt::recover(torn);
  EXPECT_LT(rec.epoch, full.epoch);
  EXPECT_GT(rec.torn_records, 0u);
}

// --- randomized properties ---------------------------------------------------

struct CkptRunSnapshot {
  std::uint64_t committed_epoch = 0;
  std::uint64_t committed_digest = 0;
  std::uint64_t recovered_epoch = 0;
  std::uint64_t recovered_digest = 0;
  std::uint64_t trace_hash = 0;
};

/// One full run of a generated checkpoint case with the whole harness
/// attached: invariant checker (conservation + recovery + absorber
/// ledgers), deadlock detector, fault injector, absorber, coordinator.
std::optional<std::string> run_ckpt_case(const testkit::CkptCase& c,
                                         CkptRunSnapshot* snap) {
  testkit::InvariantChecker::Options opts;
  opts.exact_conservation = false;  // PPFS: cache-aware bounds
  testkit::InvariantChecker checker(opts);
  sim::Engine engine;
  engine.attach(checker);
  hw::Machine machine(engine, c.base.machine);
  sim::DeadlockDetector deadlocks(engine);
  fault::FaultInjector injector(engine, machine, c.plan);
  ppfs::Ppfs fs(machine, c.base.filesystem.ppfs_params);
  ckpt::WriteAbsorber absorber(fs);
  ckpt::CheckpointCoordinator coordinator(machine, c.base.workload.nodes,
                                          c.spec, &absorber, nullptr);
  pablo::InstrumentedFs instrumented(fs, engine);
  pablo::Trace trace;
  instrumented.add_sink(trace);
  apps::Synthetic app(machine, instrumented, c.base.workload);
  app.set_checkpoint(&coordinator);

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
  checker.observe_recovery(fs.recovery_stats());
  checker.observe_absorber(absorber.stats());
  checker.finish();
  if (!checker.ok()) return checker.report();

  const ckpt::CheckpointStats& cs = coordinator.stats();
  const ckpt::RecoveredState rec = ckpt::recover(absorber.log());
  // Crash-consistency: replaying the log lands exactly on the last
  // committed epoch (in particular, never on an earlier or torn one).
  if (rec.epoch != cs.committed_epoch) {
    return "recovered epoch " + std::to_string(rec.epoch) +
           " != committed epoch " + std::to_string(cs.committed_epoch);
  }
  if (cs.epochs_committed > 0 && rec.digest != cs.committed_digest) {
    return "recovered digest does not match the committed epoch's";
  }
  // Exposure is non-negative at every probe instant.
  for (double t : {0.0, 0.5, 1.0, 2.0, engine.now()}) {
    if (coordinator.data_loss_window(t) < 0.0) {
      return "negative data_loss_window at t=" + std::to_string(t);
    }
  }
  if (snap != nullptr) {
    snap->committed_epoch = cs.committed_epoch;
    snap->committed_digest = cs.committed_digest;
    snap->recovered_epoch = rec.epoch;
    snap->recovered_digest = rec.digest;
    snap->trace_hash = testkit::hash_trace(trace);
  }
  return std::nullopt;
}

TEST(CkptProperties, RandomIntervalsAndFaultsRecoverConsistently) {
  testkit::PropertyConfig cfg;
  cfg.cases = 10;
  cfg.seed = 0xC4A5;
  const auto result = testkit::check_property<testkit::CkptCase>(
      cfg, testkit::gen_ckpt_case(), testkit::shrink_ckpt_case,
      [](const testkit::CkptCase& c) -> std::optional<std::string> {
        // Two runs of the same plan + seed: each must keep every invariant
        // and quiesce under the deadlock detector, and the pair must be
        // bit-identical (trace hash, committed digest, recovery).
        CkptRunSnapshot first;
        CkptRunSnapshot second;
        if (auto err = run_ckpt_case(c, &first)) return err;
        if (auto err = run_ckpt_case(c, &second)) return err;
        if (first.trace_hash != second.trace_hash) {
          return "same plan+seed produced different traces";
        }
        if (first.committed_digest != second.committed_digest ||
            first.recovered_epoch != second.recovered_epoch ||
            first.recovered_digest != second.recovered_digest) {
          return "same plan+seed produced different recovery state";
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << testkit::explain(
      result, [](const testkit::CkptCase& c) { return c.describe(); });
}

TEST(CkptProperties, ShrinkStripsPlanAndShrinksDumps) {
  sim::Rng rng(0xC4A51);
  const testkit::CkptCase original = testkit::gen_ckpt_case()(rng);
  const auto candidates = testkit::shrink_ckpt_case(original);
  ASSERT_FALSE(candidates.empty());
  if (!original.plan.empty()) {
    EXPECT_TRUE(candidates.front().plan.empty());
  }
  bool saw_smaller_state = false;
  bool saw_sparser_epochs = false;
  for (const testkit::CkptCase& c : candidates) {
    saw_smaller_state |= c.spec.state_bytes < original.spec.state_bytes;
    saw_sparser_epochs |= c.spec.every > original.spec.every;
    // Every candidate keeps fault targets inside its machine.
    for (const fault::FaultEvent& e : c.plan.events) {
      EXPECT_LT(e.ion, c.base.machine.io_nodes);
    }
  }
  EXPECT_TRUE(saw_smaller_state);
  EXPECT_TRUE(saw_sparser_epochs);
}

}  // namespace
}  // namespace paraio
