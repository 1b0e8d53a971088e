#include "ppfs/ion_server.hpp"

#include <algorithm>

#include "sim/deadlock.hpp"

namespace paraio::ppfs {

namespace {
constexpr std::uint32_t kControlBytes = 64;
}  // namespace

namespace {
constexpr std::uint64_t kCacheBlock = 64 * 1024;
}

IonServer::IonServer(hw::Machine& machine, std::size_t ion_index,
                     bool aggregate, std::uint64_t merge_gap,
                     std::size_t cache_blocks, sim::SimDuration drop_timeout)
    : machine_(machine),
      ion_index_(ion_index),
      aggregate_(aggregate),
      merge_gap_(merge_gap),
      drop_timeout_(drop_timeout),
      queue_(machine.engine(), sim::Channel<Request>::kUnbounded),
      cache_(cache_blocks) {
  machine_.engine().spawn_daemon(serve());
}

void IonServer::attach_observability(obs::Registry& registry,
                                     const std::string& prefix,
                                     obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer != nullptr) {
    batch_span_ = tracer->intern("ppfs.batch");
    category_ = tracer->intern("ppfs");
  }
  registry.bind(prefix + ".batch_requests", stats_.batch_requests);
  registry.bind(prefix + ".cache_hits", stats_.cache_hits);
  registry.bind(prefix + ".cache_misses", stats_.cache_misses);
  // Fault-path load: without these, retried and failed-over requests are
  // invisible in the per-ION metrics even though they occupy the server.
  registry.bind(prefix + ".refused", stats_.refused);
  registry.bind(prefix + ".abandoned", stats_.abandoned);
  registry.bind(prefix + ".degraded", stats_.degraded);
  registry.bind(prefix + ".array_failures", stats_.array_failures);
}

bool IonServer::cache_covers(std::uint64_t address, std::uint64_t length) {
  if (cache_.capacity() == 0 || length == 0) return false;
  for (std::uint64_t b = address / kCacheBlock;
       b <= (address + length - 1) / kCacheBlock; ++b) {
    if (!cache_.lookup(BlockKey{0, b})) return false;
  }
  return true;
}

void IonServer::cache_fill(std::uint64_t address, std::uint64_t length) {
  if (cache_.capacity() == 0 || length == 0) return;
  for (std::uint64_t b = address / kCacheBlock;
       b <= (address + length - 1) / kCacheBlock; ++b) {
    cache_.insert(BlockKey{0, b});
  }
}

sim::Task<io::IoOutcome> IonServer::submit(io::NodeId src,
                                           std::uint64_t disk_address,
                                           std::uint64_t length,
                                           bool is_write) {
  const io::NodeId ion_node = machine_.ion_node_id(ion_index_);
  hw::Interconnect& net = machine_.net();
  // A down ION refuses: one control round trip ("connection refused") —
  // fast, deterministic, and retryable once the node restarts.
  if (!machine_.ion_up(ion_index_)) {
    ++stats_.refused;
    co_await net.send(src, ion_node, kControlBytes);
    co_await net.send(ion_node, src, kControlBytes);
    co_return io::IoOutcome{.error = io::IoErrc::kIonDown};
  }
  // A dropped request still occupies the sender's link, but never arrives;
  // the client learns nothing until its timeout expires.
  if (net.should_drop()) {
    co_await net.send(src, ion_node, is_write ? length : kControlBytes);
    co_await machine_.engine().delay(drop_timeout_);
    co_return io::IoOutcome{.error = io::IoErrc::kTimeout};
  }
  // Ship the data (write) or the request descriptor (read).
  co_await net.send(src, ion_node, is_write ? length : kControlBytes);
  Request req;
  req.address = disk_address;
  req.length = length;
  req.is_write = is_write;
  req.src = src;
  req.done = std::make_shared<sim::Event>(machine_.engine());
  req.result = std::make_shared<io::IoOutcome>();
  auto done = req.done;
  auto result = req.result;
  auto* deadlocks = machine_.engine().deadlock_detector();
  if (deadlocks) {
    // The server daemon is the only task that drains this queue and sets
    // the completion event; declare those roles so a wedged submit() is
    // traced to it instead of reported as stranded.
    const auto client = deadlocks->task_for_key(src, "node");
    const auto server = deadlocks->task_for_key(
        (std::uint64_t{1} << 32) | ion_index_, "ion-server");
    const std::string queue_label =
        "ppfs:ion" + std::to_string(ion_index_) + ":queue";
    deadlocks->channel_receiver(server, &queue_, queue_label);
    deadlocks->send_wait(client, &queue_, queue_label);
    co_await queue_.send(std::move(req));
    deadlocks->send_done(client, &queue_);
    deadlocks->cond_provider(server, done.get(),
                             "ppfs:ion" + std::to_string(ion_index_) +
                                 ":request-done");
    deadlocks->cond_wait(client, done.get(),
                         "ppfs:ion" + std::to_string(ion_index_) +
                             ":request-done");
    co_await done->wait();
    deadlocks->cond_woken(client, done.get());
  } else {
    co_await queue_.send(std::move(req));
    co_await done->wait();
  }
  // A lost reply: the server did the work (a retried write lands twice),
  // but the client sees only its timeout.
  if (result->ok() && net.should_drop()) {
    co_await machine_.engine().delay(drop_timeout_);
    co_return io::IoOutcome{.error = io::IoErrc::kTimeout};
  }
  // Reply: the data (read) or an ack (write) on success; a typed error
  // notification (control-sized) otherwise.
  co_await net.send(ion_node, src,
                    result->ok() && !is_write ? length : kControlBytes);
  co_return *result;
}

sim::Task<> IonServer::serve() {
  for (;;) {
    std::vector<Request> batch;
    auto* deadlocks = machine_.engine().deadlock_detector();
    if (deadlocks) {
      const auto server = deadlocks->task_for_key(
          (std::uint64_t{1} << 32) | ion_index_, "ion-server");
      deadlocks->set_daemon(server);
      const std::string queue_label =
          "ppfs:ion" + std::to_string(ion_index_) + ":queue";
      deadlocks->channel_receiver(server, &queue_, queue_label);
      deadlocks->recv_wait(server, &queue_, queue_label);
      batch.push_back(co_await queue_.recv());
      deadlocks->recv_done(server, &queue_);
    } else {
      batch.push_back(co_await queue_.recv());
    }
    if (aggregate_) {
      while (auto more = queue_.try_recv()) {
        batch.push_back(std::move(*more));
      }
    }
    // A restart since the last batch means the volatile block cache died
    // with the old incarnation.
    const std::uint32_t epoch = machine_.ion_epoch(ion_index_);
    if (epoch != seen_epoch_) {
      cache_.erase_file(0);
      seen_epoch_ = epoch;
    }
    stats_.requests += batch.size();
    ++stats_.batches;
    stats_.batch_requests.record(batch.size());
    obs::Tracer::SpanId span = 0;
    if (tracer_ != nullptr) {
      span = tracer_->begin({machine_.ion_node_id(ion_index_), 2},
                            batch_span_, category_);
    }

    // Service in disk-address order, merging physically close extents into
    // single array accesses.  Reads and writes merge independently.
    std::vector<std::size_t> order(batch.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (batch[a].is_write != batch[b].is_write) {
        return batch[a].is_write < batch[b].is_write;
      }
      return batch[a].address < batch[b].address;
    });

    std::size_t i = 0;
    while (i < order.size()) {
      // Crashed mid-batch: every request not yet serviced is abandoned and
      // reported as a typed error instead of left stranded.
      if (!machine_.ion_up(ion_index_)) {
        for (std::size_t k = i; k < order.size(); ++k) {
          Request& lost = batch[order[k]];
          lost.result->error = io::IoErrc::kIonDown;
          lost.done->set();
          ++stats_.abandoned;
        }
        break;
      }
      const Request& first = batch[order[i]];
      // Server-side cache: a read whose blocks are all resident skips the
      // array (the second buffering level of the paper's §8).
      if (!first.is_write && cache_covers(first.address, first.length)) {
        ++stats_.cache_hits;
        batch[order[i]].done->set();
        ++i;
        continue;
      }
      if (!first.is_write) ++stats_.cache_misses;
      std::uint64_t lo = first.address;
      std::uint64_t hi = first.address + first.length;
      std::size_t j = i + 1;
      while (j < order.size()) {
        const Request& next = batch[order[j]];
        if (next.is_write != first.is_write || next.address > hi + merge_gap_) {
          break;
        }
        hi = std::max(hi, next.address + next.length);
        ++j;
      }
      hw::Raid3Array& array = machine_.ion_array(ion_index_);
      const hw::DiskOutcome disk =
          co_await array.access(lo, hi - lo, first.is_write);
      ++stats_.disk_accesses;
      if (disk.failed) {
        for (std::size_t k = i; k < j; ++k) {
          batch[order[k]].result->error = io::IoErrc::kArrayFailed;
          batch[order[k]].done->set();
          ++stats_.array_failures;
        }
        i = j;
        continue;
      }
      cache_fill(lo, hi - lo);
      stats_.bytes += hi - lo;
      for (std::size_t k = i; k < j; ++k) {
        batch[order[k]].result->degraded = disk.degraded;
        batch[order[k]].done->set();
        if (disk.degraded) ++stats_.degraded;
      }
      i = j;
    }
    if (tracer_ != nullptr) tracer_->end(span);
  }
}

}  // namespace paraio::ppfs
