// Deterministic, schedule-driven fault injection.
//
// The paper's Paragon ran 16 I/O nodes each backed by a five-disk RAID-3
// array — a topology whose whole point is surviving a single disk failure —
// so this layer lets every experiment run under degraded hardware: a
// FaultPlan is a list of timed events (disk failure/repair, I/O-node
// crash/restart, interconnect loss and delay spikes) that a FaultInjector
// applies as simulated time passes.
//
// Design rules (all load-bearing for determinism):
//  * Schedule-driven, not sampled — the injector checks the plan and
//    schedules one kernel event per entry at exactly its `at`, so the same
//    plan + seed reproduces bit-identical traces, and an empty plan
//    schedules nothing (byte-identical to a run without faults).
//  * All randomness (loss draws, retry jitter) flows through sim::Rng
//    streams seeded from the plan/policy, and no stream is drawn from
//    unless a fault window is actually active.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace paraio::fault {

enum class FaultKind {
  kDiskFail,    ///< one disk of an ION's RAID-3 array fails
  kDiskRepair,  ///< replace the disk and start a background rebuild
  kIonCrash,    ///< the I/O node stops serving (volatile server state lost)
  kIonRestart,  ///< the I/O node comes back with a fresh epoch
  kNetLoss,     ///< set interconnect message-drop probability to `value`
  kNetDelay,    ///< add `value` seconds to every transfer (0 clears)
};
inline constexpr std::size_t kFaultKinds =
    static_cast<std::size_t>(FaultKind::kNetDelay) + 1;

[[nodiscard]] const char* to_string(FaultKind kind);

/// One timed fault.  `ion` selects the target I/O node for the disk and ION
/// kinds; `disk` the drive within that array for the disk kinds; `value`
/// carries the drop probability (kNetLoss) or extra seconds (kNetDelay).
struct FaultEvent {
  sim::SimTime at = 0.0;
  FaultKind kind = FaultKind::kDiskFail;
  std::uint32_t ion = 0;
  std::uint32_t disk = 0;
  double value = 0.0;
};

/// A timed fault schedule plus the seed for the interconnect's loss draws.
/// Each event is applied at exactly its `at`; entries sharing an instant
/// apply in the order they were added (the kernel's FIFO tie-break).
struct FaultPlan {
  std::vector<FaultEvent> events;
  std::uint64_t seed = 0xFA17u;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
  void add(const FaultEvent& event) { events.push_back(event); }

  /// One line per event, for test failure messages.
  [[nodiscard]] std::string describe() const;
};

/// "t=<at> <kind> ion=<ion> disk=<disk> value=<value>": one plan entry as
/// FaultPlan::describe and the injector's plan checks print it.
[[nodiscard]] std::string describe(const FaultEvent& event);

/// Client-side recovery knobs for PPFS (see ppfs::PpfsParams::recovery).
/// The timeout bounds how long a client charges for a lost request before
/// declaring it failed; retries back off exponentially with seeded jitter;
/// failover re-routes a request that exhausted its retries to the next
/// surviving I/O node in deterministic scan order.
struct RecoveryPolicy {
  sim::SimDuration request_timeout = sim::milliseconds(500.0);
  std::uint32_t max_retries = 3;
  sim::SimDuration backoff_base = sim::milliseconds(50.0);
  sim::SimDuration backoff_max = sim::seconds(2.0);
  /// Jitter fraction: each backoff is scaled by a seeded uniform factor in
  /// [1 - jitter, 1 + jitter].  0 disables the draw entirely.
  double jitter = 0.25;
  std::uint64_t jitter_seed = 0x5EEDu;
  bool failover = true;
};

/// What the recovery machinery did over one run.  `requests` always equals
/// `ok + failed` once the simulation has quiesced — the accounting invariant
/// the fault property test asserts.
struct [[nodiscard]] RecoveryStats {
  std::uint64_t requests = 0;    ///< recovered submissions (one per piece)
  std::uint64_t ok = 0;          ///< completed, possibly after retry/failover
  std::uint64_t failed = 0;      ///< exhausted every recovery path
  std::uint64_t retries = 0;     ///< re-submissions after a typed error
  std::uint64_t timeouts = 0;    ///< errors that were lost-message timeouts
  std::uint64_t refused = 0;     ///< errors that were down-ION refusals
  std::uint64_t failovers = 0;   ///< requests completed on a substitute ION
  std::uint64_t failover_bytes = 0;
  std::uint64_t degraded = 0;    ///< requests served by a degraded array
  /// Write-behind dirty data that could not be made durable anywhere
  /// (flush-on-crash loss, in bytes).
  std::uint64_t dirty_bytes_lost = 0;
};

/// Applies a FaultPlan to a machine as simulated time passes.  The
/// constructor checks every entry and throws std::invalid_argument naming
/// the first bad one: `at` not finite or before engine.now(), an `ion` or
/// `disk` the machine lacks, a loss probability outside [0, 1], a negative
/// or non-finite delay.  It then schedules one engine event per entry, in
/// plan order, that applies it at exactly its `at`.  Those events point
/// back at the injector, so it must outlive every engine run that can
/// reach them; it has to anyway, because a registry reads its counters
/// until freeze().  Every applied fault is counted per kind; when `metrics`
/// is non-null those counts publish as `fault.injected` and `fault.<kind>`
/// from the kind's first fire (so a run lists only the kinds it saw), and a
/// non-null `tracer` gets a Chrome-trace instant marker per fault.
class FaultInjector {
 public:
  FaultInjector(sim::Engine& engine, hw::Machine& machine,
                const FaultPlan& plan, obs::Registry* metrics = nullptr,
                obs::Tracer* tracer = nullptr);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Number of plan events applied so far.
  [[nodiscard]] std::size_t applied() const noexcept { return applied_; }

 private:
  void apply(const FaultEvent& event);

  hw::Machine& machine_;
  std::uint64_t applied_ = 0;
  std::array<std::uint64_t, kFaultKinds> fired_{};  // applied, per kind
  obs::Registry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace paraio::fault
