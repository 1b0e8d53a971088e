// Aggregating I/O-node server.
//
// PPFS's "global request aggregation" (§5.2): requests that queue up at an
// I/O node while its array is busy are drained as a batch, sorted by disk
// address, and physically adjacent extents are merged into single array
// accesses.  For ESCAT's many-small-writes-into-disjoint-regions pattern
// this turns poor per-request disk utilization into a few large transfers —
// "they can be combined, significantly increasing disk efficiency" (§8).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "io/file.hpp"
#include "io/outcome.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "ppfs/cache.hpp"
#include "sim/channel.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::ppfs {

struct IonServerStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t disk_accesses = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cache_hits = 0;    ///< read requests served from ION cache
  std::uint64_t cache_misses = 0;  ///< read requests that touched the array
  std::uint64_t refused = 0;       ///< submissions bounced off a down ION
  std::uint64_t abandoned = 0;     ///< queued requests dropped by a crash
  std::uint64_t array_failures = 0;  ///< requests that hit a failed array
  std::uint64_t degraded = 0;      ///< requests served by a degraded array
  obs::Histogram batch_requests;   ///< requests drained per batch
  /// requests / disk_accesses > 1 means aggregation is working.
  [[nodiscard]] double aggregation_factor() const {
    return disk_accesses
               ? static_cast<double>(requests) / static_cast<double>(disk_accesses)
               : 0.0;
  }
};

class IonServer {
 public:
  /// `merge_gap`: extents whose disk addresses are within this many bytes
  /// are merged into one access (0 = only exactly adjacent).
  /// `cache_blocks` enables a server-side block cache of 64 KB disk blocks
  /// (0 = disabled): the second level of the paper's §8 "two level
  /// buffering at compute nodes and input/output nodes".  Unlike the
  /// per-client caches, it serves every node, so cross-node rereads hit.
  /// `drop_timeout` is how long a client charges for a lost request or
  /// reply before returning IoErrc::kTimeout (the recovery policy's
  /// request timeout).
  IonServer(hw::Machine& machine, std::size_t ion_index, bool aggregate,
            std::uint64_t merge_gap, std::size_t cache_blocks = 0,
            sim::SimDuration drop_timeout = sim::milliseconds(500.0));

  /// Ships the request/data to the I/O node, queues it, and completes when
  /// the server has serviced it and the reply/data has returned — or when a
  /// fault path resolved it: a down ION refuses after one control round
  /// trip (kIonDown), a dropped request/reply times out (kTimeout), a
  /// failed array reports kArrayFailed.  `disk_address` is the ION-local
  /// byte address (file base + local offset).
  sim::Task<io::IoOutcome> submit(io::NodeId src, std::uint64_t disk_address,
                                  std::uint64_t length, bool is_write);

  [[nodiscard]] const IonServerStats& stats() const noexcept { return stats_; }

  /// Publishes aggregation batch sizes (`<prefix>.batch_requests`) and
  /// server-cache hit/miss counters, and opens one span per served batch on
  /// this ION's process when `tracer` is non-null.
  void attach_observability(obs::Registry& registry, const std::string& prefix,
                            obs::Tracer* tracer);

 private:
  struct Request {
    std::uint64_t address = 0;
    std::uint64_t length = 0;
    bool is_write = false;
    io::NodeId src = 0;
    std::shared_ptr<sim::Event> done;
    /// Filled in by the server before `done` is set.
    std::shared_ptr<io::IoOutcome> result;
  };

  sim::Task<> serve();

  /// True when every 64 KB disk block of [address, address+length) is in
  /// the server cache.  Reads that hit skip the array entirely; any disk
  /// access populates the cache.
  [[nodiscard]] bool cache_covers(std::uint64_t address,
                                  std::uint64_t length);
  void cache_fill(std::uint64_t address, std::uint64_t length);

  hw::Machine& machine_;
  std::size_t ion_index_;
  bool aggregate_;
  std::uint64_t merge_gap_;
  sim::SimDuration drop_timeout_;
  sim::Channel<Request> queue_;
  BlockCache cache_;  // keyed by disk-address block; file id unused (0)
  std::uint32_t seen_epoch_ = 0;  // wipe cache_ when the ION restarts
  IonServerStats stats_;
  obs::Tracer* tracer_ = nullptr;
  obs::Tracer::Name batch_span_ = nullptr;  // interned in tracer_ at attach
  obs::Tracer::Name category_ = nullptr;
};

}  // namespace paraio::ppfs
