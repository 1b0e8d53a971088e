// RAID-3 disk-array model.
//
// RAID-3 byte-stripes every request across all data disks with a dedicated
// parity drive and synchronized spindles, so a request of B bytes keeps
// every disk busy for the time one disk needs for B/(n-1) bytes plus one
// positioning move.  Effective streaming bandwidth is therefore
// (n-1) x media_rate with a single disk's positioning latency — exactly the
// tradeoff the paper leans on when it notes PFS achieves bandwidth only
// through large requests.  The Paragon at CCSF had one such array (five
// 1.2 GB disks) per I/O node.
//
// The array also models the failure behaviour RAID-3 exists to provide:
// with exactly one disk missing it keeps serving, but reads pay a parity
// reconstruction penalty; a repaired disk is rebuilt by a background task
// that contends with foreground requests for the spindle set; with two or
// more disks missing the data is gone and accesses fail with a typed
// outcome.  State changes only through fail_disk()/repair_disk() (driven by
// fault::FaultInjector), so a fault-free run is byte-identical to the
// pre-fault model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "hw/disk.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::hw {

struct Raid3Params {
  DiskParams disk;
  std::size_t disks = 5;  // 4 data + 1 parity
  /// Degraded-mode multiplier on the transfer term of a read served with
  /// one disk missing: the missing stripe is reconstructed by XOR-ing the
  /// survivors, which costs extra controller work per byte.
  double degraded_read_penalty = 1.5;
  /// Bytes a background rebuild reconstructs per array access it issues.
  std::uint64_t rebuild_chunk = 1 << 20;

  [[nodiscard]] std::size_t data_disks() const { return disks - 1; }
  [[nodiscard]] double streaming_rate() const {
    return static_cast<double>(data_disks()) * disk.media_rate;
  }
  [[nodiscard]] std::uint64_t capacity() const {
    return static_cast<std::uint64_t>(data_disks()) * disk.capacity;
  }
};

/// Result of one array access under the fault model.
struct [[nodiscard]] DiskOutcome {
  bool failed = false;    ///< >= 2 disks unavailable: data cannot be served
  bool degraded = false;  ///< served via parity reconstruction
  [[nodiscard]] bool ok() const noexcept { return !failed; }
};

enum class DiskHealth {
  kHealthy,
  kFailed,      ///< dead; contributes nothing until repaired
  kRebuilding,  ///< replaced; background rebuild is reconstructing it
};

/// Failure/recovery activity of one array (all zero on a fault-free run).
struct RaidFaultStats {
  std::uint64_t disk_failures = 0;
  std::uint64_t repairs = 0;
  std::uint64_t degraded_accesses = 0;  ///< served with one disk missing
  std::uint64_t failed_accesses = 0;    ///< refused with >= 2 missing
  std::uint64_t rebuild_chunks = 0;
  std::uint64_t rebuild_bytes = 0;

  RaidFaultStats& operator+=(const RaidFaultStats& o) noexcept {
    disk_failures += o.disk_failures;
    repairs += o.repairs;
    degraded_accesses += o.degraded_accesses;
    failed_accesses += o.failed_accesses;
    rebuild_chunks += o.rebuild_chunks;
    rebuild_bytes += o.rebuild_bytes;
    return *this;
  }
};

/// One RAID-3 array: a single logical server (the synchronized spindle set)
/// with a FIFO queue.
class Raid3Array {
 public:
  Raid3Array(sim::Engine& engine, const Raid3Params& params)
      : engine_(engine),
        params_(params),
        gate_(engine, 1),
        disk_state_(params.disks, DiskHealth::kHealthy) {}

  /// Fault-free service time for one array access: one positioning move
  /// (sequential requests pay only settle time) plus transfer at the
  /// aggregate rate.
  [[nodiscard]] sim::SimDuration service_time(std::uint64_t offset,
                                              std::uint64_t bytes) const;

  /// Extra transfer time a degraded-mode read of `bytes` pays for parity
  /// reconstruction.
  [[nodiscard]] sim::SimDuration degraded_read_extra(
      std::uint64_t bytes) const {
    return (params_.degraded_read_penalty - 1.0) * static_cast<double>(bytes) /
           params_.streaming_rate();
  }

  /// Performs one access against the array.  The outcome reports whether
  /// the access was refused (array failed) or served degraded; callers must
  /// inspect it (see the swallowed-io-error lint check).
  sim::Task<DiskOutcome> access(std::uint64_t offset, std::uint64_t bytes,
                                bool is_write = false);

  /// Marks one disk dead.  Throws std::out_of_range on a bad index.
  void fail_disk(std::size_t disk);
  /// Replaces a dead disk and starts the background rebuild of every chunk
  /// written so far, which contends with foreground requests for the
  /// spindle set.  No-op for a healthy disk; throws std::out_of_range on a
  /// bad index.
  void repair_disk(std::size_t disk);

  [[nodiscard]] DiskHealth disk_health(std::size_t disk) const;
  /// Disks currently not contributing (failed or rebuilding).
  [[nodiscard]] std::size_t missing_disks() const noexcept;
  /// True when the array serves in degraded mode (exactly one missing).
  [[nodiscard]] bool degraded() const noexcept { return missing_disks() == 1; }
  /// True when data is unavailable (two or more missing).
  [[nodiscard]] bool failed() const noexcept { return missing_disks() >= 2; }

  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const RaidFaultStats& fault_stats() const noexcept {
    return fault_stats_;
  }
  [[nodiscard]] const Raid3Params& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t queue_depth() const { return gate_.waiters(); }

  /// Publishes this array's activity under `<prefix>.{requests,bytes,seeks,
  /// busy_s,queue_s,qdepth}` plus the fault counters `<prefix>.{degraded,
  /// failed,rebuild_bytes}`.  Busy time includes rebuild traffic.
  void attach_metrics(obs::Registry& registry, const std::string& prefix) {
    stats_.attach_metrics(registry, prefix);
    registry.bind(prefix + ".degraded", fault_stats_.degraded_accesses);
    registry.bind(prefix + ".failed", fault_stats_.failed_accesses);
    registry.bind(prefix + ".rebuild_bytes", fault_stats_.rebuild_bytes);
  }

 private:
  sim::Task<> rebuild(std::size_t disk, std::vector<std::uint64_t> chunks);
  void check_disk(std::size_t disk, const char* op) const;
  void note_written(std::uint64_t offset, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t chunk_bytes() const noexcept {
    return std::max<std::uint64_t>(params_.rebuild_chunk, 1);
  }

  sim::Engine& engine_;
  Raid3Params params_;
  sim::Semaphore gate_;
  std::vector<DiskHealth> disk_state_;
  std::uint64_t head_pos_ = 0;
  /// Indices of the rebuild_chunk-sized chunks writes have touched: what a
  /// rebuild must reconstruct (disk addresses are sparse, so the highest
  /// written byte would overstate it by terabytes).  Ordered, so a rebuild
  /// walks them in address order.
  std::set<std::uint64_t> written_chunks_;
  /// The chunk the last single-chunk write touched: most writes continue
  /// where the previous one left off, and skip the set lookup.
  std::uint64_t last_written_chunk_ = UINT64_MAX;
  DeviceStats stats_;
  RaidFaultStats fault_stats_;
};

}  // namespace paraio::hw
