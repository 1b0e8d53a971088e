// Single-disk service-time model.
//
// We model a circa-1993 commodity drive (the Paragon's RAID-3 arrays were
// built from five 1.2 GB disks) with a positioning + transfer service time:
//
//   service = settle                       if the head is already there
//           = avg_seek + half_rotation     otherwise
//           + bytes / media_rate
//
// Sector-level geometry is deliberately out of scope: the paper's findings
// hinge on the fixed per-request positioning penalty that makes small
// requests expensive and aggregation profitable, which this captures.  The
// `bench_ablation_disk_model` binary quantifies the sensitivity.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace paraio::hw {

struct DiskParams {
  /// Average seek time for a random positioning move.
  sim::SimDuration avg_seek = sim::milliseconds(12.0);
  /// Head settle / track-to-track time charged on sequential continuation.
  sim::SimDuration settle = sim::milliseconds(1.0);
  /// Spindle speed, used for the average (half-) rotational latency.
  double rpm = 4500.0;
  /// Sustained media transfer rate in bytes/second.
  double media_rate = 2.5e6;
  /// Usable capacity in bytes (1.2 GB drive).
  std::uint64_t capacity = 1'200'000'000ULL;
  /// Distance-dependent seeks: positioning cost grows with the arm travel
  /// distance (settle + full-stroke term scaled by sqrt(d/capacity), the
  /// classic seek curve).  Off by default — the constant-average model is
  /// all the characterization results need — but required for disk-arm
  /// scheduling (hw::ScheduledArray) to have anything to optimize.
  bool distance_seek = false;

  [[nodiscard]] sim::SimDuration half_rotation() const {
    return 60.0 / rpm / 2.0;
  }

  /// Positioning time for a move of `distance` bytes under the
  /// distance-dependent model.  Calibrated so the mean over uniform random
  /// moves matches avg_seek (E[sqrt(U)] = 2/3).
  [[nodiscard]] sim::SimDuration seek_time(std::uint64_t distance) const {
    if (distance == 0) return settle;
    const double frac =
        static_cast<double>(distance) / static_cast<double>(capacity);
    const double full_stroke = 1.5 * (avg_seek - settle);
    return settle + full_stroke * std::sqrt(std::min(frac, 1.0));
  }
};

/// Cumulative activity counters every hardware resource exposes.
struct DeviceStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t seeks = 0;            // head repositions (disks and arrays)
  sim::SimDuration busy_time = 0.0;
  sim::SimDuration queue_time = 0.0;  // time requests spent waiting
  obs::Histogram qdepth;              // queue length seen at each arrival

  /// Publishes these fields as `<prefix>.{requests,bytes,seeks,busy_s,
  /// queue_s,qdepth}`.
  void attach_metrics(obs::Registry& registry, const std::string& prefix) const;
};

/// A single disk: one server, FIFO queue, stateful head position.
class Disk {
 public:
  Disk(sim::Engine& engine, const DiskParams& params)
      : engine_(engine), params_(params), gate_(engine, 1) {}

  /// Pure service-time calculation for a request at `offset`; does not
  /// consume simulated time or mutate head state.
  [[nodiscard]] sim::SimDuration service_time(std::uint64_t offset,
                                              std::uint64_t bytes) const;

  /// Performs one access: waits for the disk, seeks, transfers.
  sim::Task<> access(std::uint64_t offset, std::uint64_t bytes);

  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DiskParams& params() const noexcept { return params_; }

  /// Publishes this disk's activity under `<prefix>.{requests,bytes,seeks,
  /// busy_s,queue_s,qdepth}`.
  void attach_metrics(obs::Registry& registry, const std::string& prefix) {
    stats_.attach_metrics(registry, prefix);
  }

 private:
  sim::Engine& engine_;
  DiskParams params_;
  sim::Semaphore gate_;
  std::uint64_t head_pos_ = 0;
  DeviceStats stats_;
};

}  // namespace paraio::hw
