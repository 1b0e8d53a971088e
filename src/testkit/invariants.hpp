// Simulation invariant checker.
//
// One object watches a whole experiment end to end: the simulation kernel
// through sim::EngineObserver, the instrumentation layer through
// pablo::TraceSink, and the disk layer through the mounted file system's
// own counters, handed in once after the run (observe_disk).  It verifies:
//
//   1. time monotonicity   — events execute in non-decreasing simulated
//                            time (sim::Engine itself rejects scheduling in
//                            the past);
//   2. queue drain         — when run() returns, no pending events and no
//                            live (blocked-forever) coroutines remain;
//   3. byte conservation   — application-layer traffic (the trace) matches
//                            disk-layer traffic (the mount's counters less
//                            the staging totals): exactly on PFS,
//                            cache-aware bounds on PPFS;
//   4. event validity      — every trace event has a non-negative duration
//                            and timestamp, and never transfers more than
//                            was requested;
//   5. write-behind ledger — bytes entering PPFS client write buffers all
//                            come back out (cumulative buffered == flushed
//                            once every file is closed).
//
// Stripe decompositions are pinned by the StripeMap property test, and disk
// reads stay inside the written extent by construction: both file systems'
// transfers clip reads at the file size.
//
// Attach as core::ExperimentHooks::engine, run the experiment, replay
// result.trace into on_event(), call observe_disk() with the mount's
// counters and result.staged_disk, then finish() and inspect ok()/report().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/absorber.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "pablo/trace.hpp"
#include "pfs/pfs.hpp"
#include "ppfs/ppfs.hpp"
#include "sim/engine.hpp"

namespace paraio::testkit {

class InvariantChecker : public sim::EngineObserver,
                         public pablo::TraceSink {
 public:
  struct Options {
    /// PFS moves exactly the bytes the application asked for, so app-layer
    /// and disk-layer totals must match (M_GLOBAL excepted: one physical
    /// access serves every party, so disk <= app there).  PPFS caches and
    /// write-behind break exact equality; with this false the checker uses
    /// the cache-aware bounds instead.
    bool exact_conservation = true;
    /// Keep at most this many violation messages (the count keeps growing).
    std::size_t max_messages = 32;
  };

  InvariantChecker() = default;
  explicit InvariantChecker(Options options) : options_(options) {}

  // --- sim::EngineObserver ---
  void on_event(sim::SimTime when) override;
  void on_run_complete(sim::SimTime now, std::size_t pending_events,
                       std::size_t live_tasks) override;

  // --- pablo::TraceSink ---
  void on_event(const pablo::IoEvent& event) override;

  /// Feeds the disk layer into finish(): the mount's counters read after the
  /// run, less `staged`, the totals when input staging finished (the trace
  /// covers only the measured run).  The PPFS overload also takes the
  /// write-behind ledger (bytes_buffered against flush_bytes.sum()).
  void observe_disk(const pfs::PfsCounters& counters, core::DiskBytes staged);
  void observe_disk(const ppfs::PpfsCounters& counters,
                    core::DiskBytes staged);

  /// Feeds the mount's graceful-degradation accounting into finish():
  /// every recovered request must be resolved exactly once
  /// (requests == ok + failed — the RecoveryStats contract).
  void observe_recovery(const fault::RecoveryStats& stats);

  /// Feeds the checkpoint absorber's ledger into finish(): at quiescence
  /// every acknowledged byte is on an ION, still resident in the log, or
  /// explicitly lost (acked == drained + resident + lost).
  void observe_absorber(const ckpt::AbsorberStats& stats);

  /// Runs the end-of-experiment checks (conservation, write-behind ledger,
  /// any observed recovery/absorber accounting).  Call once, after the
  /// observe_* calls.
  void finish();

  [[nodiscard]] bool ok() const { return violation_count_ == 0; }
  [[nodiscard]] std::size_t violation_count() const {
    return violation_count_;
  }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return messages_;
  }
  /// All violation messages joined for assertion output ("ok" when clean).
  [[nodiscard]] std::string report() const;

  // Accumulators, exposed for the testkit's own unit tests.
  [[nodiscard]] std::uint64_t app_read() const { return app_read_; }
  [[nodiscard]] std::uint64_t app_written() const { return app_written_; }
  [[nodiscard]] std::uint64_t disk_read() const { return disk_read_; }
  [[nodiscard]] std::uint64_t disk_written() const { return disk_written_; }

 private:
  void violate(std::string message);

  Options options_;
  std::vector<std::string> messages_;
  std::size_t violation_count_ = 0;

  // Engine state.
  sim::SimTime last_event_time_ = 0.0;

  // Byte ledgers.  App-layer totals come from the trace (measured run only);
  // disk-layer totals from observe_disk(), staging subtracted to match.
  std::uint64_t app_read_ = 0;
  std::uint64_t app_written_ = 0;
  std::uint64_t disk_read_ = 0;
  std::uint64_t disk_written_ = 0;
  std::uint64_t buffered_ = 0;
  std::uint64_t flushed_ = 0;
  bool saw_global_ = false;

  // Snapshots handed in via observe_*; checked in finish() when present.
  bool have_recovery_ = false;
  fault::RecoveryStats recovery_;
  bool have_absorber_ = false;
  ckpt::AbsorberStats absorber_;
};

}  // namespace paraio::testkit
