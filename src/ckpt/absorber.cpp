#include "ckpt/absorber.hpp"

#include <algorithm>

#include "sim/deadlock.hpp"

namespace paraio::ckpt {

namespace {

/// ION-local disk addresses for drained log batches: a spill region far
/// above any PpfsFileObject::disk_base() (file id << 30), so log traffic
/// never aliases file extents in the ION caches or arrays.
constexpr std::uint64_t kDrainBase = 1ull << 45;

}  // namespace

WriteAbsorber::WriteAbsorber(ppfs::Ppfs& fs, AbsorberParams params)
    : fs_(fs),
      params_(params),
      log_(params.segment_bytes),
      pending_(fs.machine().engine()) {
  fs_.machine().engine().spawn_daemon(drain_daemon());
}

void WriteAbsorber::attach_observability(obs::Registry* registry,
                                         obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer != nullptr) {
    drain_span_ = tracer->intern("ckpt.drain");
    drain_lost_ = tracer->intern("ckpt.drain-lost");
    ckpt_ = tracer->intern("ckpt");
    fault_ = tracer->intern("fault");
  }
  if (registry == nullptr) return;
  registry->bind("ckpt.log.acked_bytes", stats_.acked_bytes);
  registry->bind("ckpt.log.drained_bytes", stats_.drained_bytes);
  registry->bind("ckpt.log.lost_bytes", stats_.dirty_bytes_lost);
  // Appends that blocked on the bounded log, each counted once.
  registry->bind("ckpt.log.backpressure_waits", stats_.backpressure_waits);
  registry->bind("ckpt.log.commits", stats_.commits);
  registry->bind_gauge("ckpt.log.resident_bytes", [this] {
    return static_cast<double>(stats_.log_resident_bytes);
  });
}

sim::Task<> WriteAbsorber::append(std::uint32_t node, std::uint64_t epoch,
                                  std::uint64_t offset, std::uint64_t bytes) {
  sim::Engine& engine = fs_.machine().engine();
  if (waiters_.empty() && fits(bytes)) {
    reserved_ += bytes;
  } else {
    // Wait for the drain to hand over this append's credit; it reserves
    // the bytes before resuming us.
    ++stats_.backpressure_waits;
    auto* deadlocks = engine.deadlock_detector();
    if (deadlocks) {
      deadlocks->cond_wait(deadlocks->task_for_key(node, "node"), &waiters_,
                           "ckpt:absorber:drained");
    }
    struct Admission {
      std::deque<Waiter>& waiters;
      std::uint64_t bytes;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        waiters.push_back({bytes, h});
      }
      void await_resume() const noexcept {}
    };
    co_await Admission{waiters_, bytes};
    if (deadlocks) {
      deadlocks->cond_woken(deadlocks->task_for_key(node, "node"), &waiters_);
    }
  }
  // Memory-speed sequential append; this is the whole acknowledgement.
  co_await engine.delay(bytes / params_.append_rate + params_.append_latency);
  LogRecord r;
  r.kind = RecordKind::kData;
  r.epoch = epoch;
  r.node = node;
  r.offset = offset;
  r.bytes = bytes;
  log_.push(r);
  epoch_digest_ =
      digest_fold(epoch_digest_,
                  log_.segments().back().records.back().checksum);
  stats_.segments_sealed =
      static_cast<std::uint64_t>(log_.segments().size()) -
      (log_.segments().back().sealed ? 0u : 1u);
  stats_.log_resident_bytes += bytes;
  ++stats_.appends;
  stats_.acked_bytes += bytes;
  queue_.push_back({node, bytes});
  pending_.set();
}

sim::Task<std::uint64_t> WriteAbsorber::commit(std::uint64_t epoch) {
  co_await fs_.machine().engine().delay(params_.append_latency);
  LogRecord r;
  r.kind = RecordKind::kCommit;
  r.epoch = epoch;
  r.digest = epoch_digest_;
  log_.push(r);
  ++stats_.commits;
  const std::uint64_t digest = epoch_digest_;
  epoch_digest_ = kFnvOffset;
  co_return digest;
}

sim::Task<> WriteAbsorber::drain_daemon() {
  sim::Engine& engine = fs_.machine().engine();
  auto* deadlocks = engine.deadlock_detector();
  sim::DeadlockDetector::TaskId me = 0;
  if (deadlocks) {
    me = deadlocks->task_for_key(std::uint64_t{2} << 32, "ckpt-drain");
    deadlocks->set_daemon(me);
    deadlocks->cond_provider(me, &waiters_, "ckpt:absorber:drained");
  }
  const std::size_t ions = fs_.machine().io_nodes();
  for (;;) {
    while (queue_.empty()) {
      if (deadlocks) {
        deadlocks->cond_wait(me, &pending_, "ckpt:absorber:pending");
      }
      pending_.reset();
      co_await pending_.wait();
      if (deadlocks) deadlocks->cond_woken(me, &pending_);
    }
    // Coalesce queued chunks into one large sequential write — the log's
    // payoff: many small bursty appends leave as few big transfers.
    std::uint64_t len = 0;
    const std::uint32_t src = queue_.front().node;
    while (!queue_.empty() && len < params_.drain_batch) {
      len += queue_.front().bytes;
      queue_.pop_front();
    }
    const auto ion = static_cast<std::uint32_t>(drain_seq_ % ions);
    ++drain_seq_;
    obs::Tracer::SpanId span = 0;
    if (tracer_ != nullptr) {
      span = tracer_->begin({obs::kGlobalProcess, 2}, drain_span_, ckpt_);
    }
    const io::IoOutcome out = co_await fs_.submit_with_recovery(
        src, ion, kDrainBase + drain_addr_, len, /*is_write=*/true);
    drain_addr_ += len;
    if (tracer_ != nullptr) tracer_->end(span);
    stats_.log_resident_bytes -= len;
    reserved_ -= len;
    ++stats_.drain_writes;
    if (out.ok()) {
      stats_.drained_bytes += len;
      if (out.failed_over) ++stats_.drain_failovers;
    } else {
      // Recovery exhausted every path: these acknowledged bytes are gone.
      // (submit_with_recovery also books them as dirty_bytes_lost in the
      // mount's RecoveryStats.)
      stats_.dirty_bytes_lost += len;
      if (tracer_ != nullptr) {
        tracer_->instant({obs::kGlobalProcess, 2}, drain_lost_, fault_);
      }
    }
    // Hand the freed credit to blocked appends, oldest first, for as long
    // as they fit; a later, smaller append never jumps the queue.
    while (!waiters_.empty() && fits(waiters_.front().bytes)) {
      reserved_ += waiters_.front().bytes;
      engine.wake(waiters_.front().handle);
      waiters_.pop_front();
    }
  }
}

}  // namespace paraio::ckpt
