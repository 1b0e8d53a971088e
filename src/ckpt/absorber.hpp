// Log-structured host-side write absorber.
//
// Checkpoint dumps are the paper's pathological write pattern: every node
// bursts its full state at once, and the I/O nodes melt.  The absorber
// applies the ParaLog/iFast answer: a node's checkpoint chunk is
// acknowledged as soon as it is appended to the host-side log (memory-speed,
// sequential), and a background daemon drains the log to the I/O nodes in
// large batches through the PPFS client's full recovery path
// (retry/backoff/failover) — so an ION crash during the drain degrades
// throughput instead of stalling the application's checkpoint barrier.
//
// The log is bounded by byte credit, admitted in FIFO order: an append
// reserves its bytes when it is admitted, before its append delay, so
// appends in flight count against the capacity as much as resident ones.
// An append that does not fit, or arrives while others wait, queues; each
// drain write returns its bytes and admits waiters from the front for as
// long as they fit — backpressure, not unbounded memory, and no barging.
// Accounting invariant, checked at quiescence by testkit::InvariantChecker
// on the stats() it is handed after the run (observe_absorber):
//
//     acked_bytes == drained_bytes + log_resident_bytes + dirty_bytes_lost
//
// (every acknowledged byte is on an ION, still in the log, or went down
// with a crashed drain write that exhausted recovery).
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>

#include "ckpt/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "ppfs/ppfs.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::ckpt {

struct AbsorberParams {
  /// Bound on bytes resident or still appending; append() blocks on the
  /// drain when admitting it would exceed this.
  std::uint64_t log_capacity = 4u << 20;
  /// Seal log segments at this payload size.
  std::uint64_t segment_bytes = 1u << 20;
  /// Host-memory append bandwidth (the whole point: orders of magnitude
  /// above the arrays).
  double append_rate = 400e6;
  /// Fixed per-append bookkeeping cost.
  sim::SimDuration append_latency = sim::microseconds(20.0);
  /// Maximum bytes shipped per background drain write.
  std::uint64_t drain_batch = 1u << 20;
};

struct AbsorberStats {
  std::uint64_t appends = 0;
  std::uint64_t acked_bytes = 0;     ///< acknowledged at log-append
  std::uint64_t drained_bytes = 0;   ///< durably on an ION
  std::uint64_t log_resident_bytes = 0;  ///< appended, not yet drained
  std::uint64_t dirty_bytes_lost = 0;    ///< drain writes recovery gave up on
  std::uint64_t drain_writes = 0;
  std::uint64_t drain_failovers = 0;  ///< drain writes served by a substitute
  std::uint64_t backpressure_waits = 0;  ///< appends that blocked, once each
  std::uint64_t segments_sealed = 0;
  std::uint64_t commits = 0;
};

class WriteAbsorber {
 public:
  explicit WriteAbsorber(ppfs::Ppfs& fs, AbsorberParams params = {});
  WriteAbsorber(const WriteAbsorber&) = delete;
  WriteAbsorber& operator=(const WriteAbsorber&) = delete;

  /// Appends one checkpoint chunk for `node` and returns once it is durable
  /// in the log — NOT once it reaches an ION.  Blocks only on the bounded
  /// log's backpressure.
  [[nodiscard]] sim::Task<> append(std::uint32_t node, std::uint64_t epoch,
                                   std::uint64_t offset, std::uint64_t bytes);

  /// Appends the commit record for `epoch` (call after every node's dump of
  /// that epoch has been appended) and returns the epoch digest it pinned.
  [[nodiscard]] sim::Task<std::uint64_t> commit(std::uint64_t epoch);

  [[nodiscard]] const AbsorberStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const LogImage& log() const noexcept { return log_; }
  /// Moves the log out, leaving log() empty.  Call once the engine has
  /// stopped: an append or commit after it starts a fresh image.
  [[nodiscard]] LogImage take_log() noexcept {
    return std::exchange(log_, LogImage(params_.segment_bytes));
  }
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return stats_.log_resident_bytes;
  }

  /// Publishes `ckpt.log.*` counters / the resident-bytes gauge and opens a
  /// span per drain write on the global ckpt track.  Either may be null.
  void attach_observability(obs::Registry* registry, obs::Tracer* tracer);

 private:
  struct DrainItem {
    std::uint32_t node = 0;
    std::uint64_t bytes = 0;
  };
  struct Waiter {
    std::uint64_t bytes = 0;
    std::coroutine_handle<> handle;
  };

  /// True when `bytes` may be reserved now.  A chunk larger than the whole
  /// capacity is admitted once nothing is reserved: it can never fit
  /// better than that.
  [[nodiscard]] bool fits(std::uint64_t bytes) const noexcept {
    return reserved_ == 0 || reserved_ + bytes <= params_.log_capacity;
  }
  sim::Task<> drain_daemon();

  ppfs::Ppfs& fs_;
  AbsorberParams params_;
  LogImage log_;
  std::deque<DrainItem> queue_;
  std::uint64_t epoch_digest_ = kFnvOffset;  // running, reset at commit
  std::uint64_t drain_seq_ = 0;   // round-robins drain writes over the IONs
  std::uint64_t drain_addr_ = 0;  // log-structured: strictly increasing
  sim::Event pending_;   // set when the queue has work for the drain
  std::uint64_t reserved_ = 0;  // resident plus still-appending bytes
  std::deque<Waiter> waiters_;  // blocked appends, in arrival order
  AbsorberStats stats_;
  obs::Tracer* tracer_ = nullptr;
  /// Names interned in tracer_ at attach.
  obs::Tracer::Name drain_span_ = nullptr;
  obs::Tracer::Name drain_lost_ = nullptr;
  obs::Tracer::Name ckpt_ = nullptr;   // span category
  obs::Tracer::Name fault_ = nullptr;  // instant category
};

}  // namespace paraio::ckpt
