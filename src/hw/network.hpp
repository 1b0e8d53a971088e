// Interconnect model for the Paragon-class mesh.
//
// A message from src to dst costs a fixed software+wire latency plus
// serialization at the sender's network interface: each node's outgoing
// link is a FIFO resource, so concurrent sends from one node queue while
// sends from different nodes proceed in parallel.  Mesh hop counts and
// wormhole contention are below the abstraction level the paper's data
// needs (its I/O times are dominated by file-system and disk effects).
//
// Broadcast uses a binomial software tree, the standard NX-library scheme:
// ceil(log2(parties)) sequential stages, each a full message transmission.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/disk.hpp"  // DeviceStats
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::hw {

/// Index of a node (compute or I/O) within the machine.
using NodeId = std::uint32_t;

struct NetParams {
  /// One-way message latency (software + wire).
  sim::SimDuration latency = sim::microseconds(100.0);
  /// Point-to-point bandwidth in bytes/second.  The Paragon's mesh links
  /// were far faster, but OSF/1 1.2's message layer sustained on the order
  /// of 10 MB/s — the figure behind RENDER's measured ~9.5 MB/s gateway
  /// read throughput (§6.2).
  double bandwidth = 10e6;
};

class Interconnect {
 public:
  Interconnect(sim::Engine& engine, std::size_t nodes, const NetParams& params);

  /// Sends `bytes` from `src` to `dst`; completes when the message has been
  /// fully injected and the latency has elapsed (receiver-side copy is
  /// folded into the latency term).
  sim::Task<> send(NodeId src, NodeId dst, std::uint64_t bytes);

  /// Broadcast from `root` to `parties` nodes via a binomial tree.
  /// Completes when the last leaf has the data.
  sim::Task<> broadcast(NodeId root, std::uint64_t bytes, std::size_t parties);

  /// Pure cost model for one point-to-point transfer (including any active
  /// fault-injected delay spike).
  [[nodiscard]] sim::SimDuration transfer_time(std::uint64_t bytes) const {
    return params_.latency + static_cast<double>(bytes) / params_.bandwidth +
           extra_delay_;
  }

  // --- fault injection (driven by fault::FaultInjector) --------------------

  /// Message-drop probability for loss-aware paths.  Only the PPFS RPC
  /// channel consults should_drop(); PFS has no retry path, so its messages
  /// are never dropped.
  void set_drop_probability(double p) noexcept { drop_probability_ = p; }
  [[nodiscard]] double drop_probability() const noexcept {
    return drop_probability_;
  }
  /// Adds a delay spike to every transfer (0 clears it).
  void set_extra_delay(sim::SimDuration d) noexcept { extra_delay_ = d; }
  [[nodiscard]] sim::SimDuration extra_delay() const noexcept {
    return extra_delay_;
  }
  /// Reseeds the loss stream (fault::FaultPlan::seed).
  void set_fault_seed(std::uint64_t seed) { fault_rng_ = sim::Rng(seed); }
  /// One Bernoulli loss draw.  Draws from the stream only while a loss
  /// window is active, so fault-free runs consume no randomness.
  [[nodiscard]] bool should_drop() {
    if (drop_probability_ <= 0.0) return false;
    const bool drop = fault_rng_.bernoulli(drop_probability_);
    if (drop) ++dropped_;
    return drop;
  }
  [[nodiscard]] std::uint64_t dropped_messages() const noexcept {
    return dropped_;
  }

  /// Number of sequential stages a binomial broadcast needs.
  [[nodiscard]] static std::size_t broadcast_stages(std::size_t parties) {
    std::size_t stages = 0;
    std::size_t covered = 1;
    while (covered < parties) {
      covered *= 2;
      ++stages;
    }
    return stages;
  }

  [[nodiscard]] const NetParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nics_.size(); }
  /// Activity of node `n`'s outgoing link (broadcasts count at the root).
  [[nodiscard]] const DeviceStats& link_stats(NodeId n) const {
    return links_.at(n);
  }
  /// Sum over every link of requests, bytes, busy and queue time.
  [[nodiscard]] DeviceStats stats() const;

  /// Publishes per-link activity: node `n`'s outgoing link becomes
  /// `<prefix><n>.{requests,bytes,seeks,busy_s,queue_s,qdepth}` (seeks stay
  /// zero; qdepth samples the tx-gate queue).
  void attach_metrics(obs::Registry& registry, const std::string& prefix) const;

 private:
  sim::Engine& engine_;
  NetParams params_;
  // One outgoing-link (tx) and one incoming-link (rx) gate per node: a
  // node receiving from many peers serializes on its rx gate, which is what
  // bottlenecks RENDER's gateway at ~link rate.  unique_ptr because
  // Semaphore is neither movable nor copyable.  Deadlock-free: every
  // transfer acquires tx then rx, and no task ever holds an rx while
  // waiting on a tx.
  std::vector<std::unique_ptr<sim::Semaphore>> nics_;
  std::vector<std::unique_ptr<sim::Semaphore>> rx_;
  std::vector<DeviceStats> links_;  // indexed like nics_
  // Fault-injection state; inert (and draw-free) until a plan activates it.
  double drop_probability_ = 0.0;
  sim::SimDuration extra_delay_ = 0.0;
  sim::Rng fault_rng_{0xFA17u};
  std::uint64_t dropped_ = 0;
};

/// HiPPi frame buffer: a fixed-bandwidth streaming sink with a FIFO queue.
/// RENDER's production output path (§6.2).
class FrameBuffer {
 public:
  FrameBuffer(sim::Engine& engine, double bandwidth)
      : engine_(engine), bandwidth_(bandwidth), gate_(engine, 1) {}

  sim::Task<> write(std::uint64_t bytes);

  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double bandwidth() const noexcept { return bandwidth_; }

  /// Publishes sink activity under `<prefix>.{requests,bytes,seeks,busy_s,
  /// queue_s,qdepth}`.
  void attach_metrics(obs::Registry& registry, const std::string& prefix) {
    stats_.attach_metrics(registry, prefix);
  }

 private:
  sim::Engine& engine_;
  double bandwidth_;
  sim::Semaphore gate_;
  DeviceStats stats_;
};

}  // namespace paraio::hw
