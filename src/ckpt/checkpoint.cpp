#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <string>

namespace paraio::ckpt {

namespace {

constexpr const char* kStateFile = "/ckpt/state";
constexpr const char* kCommitFile = "/ckpt/commit";

io::OpenOptions unix_create() {
  io::OpenOptions o;
  o.mode = io::AccessMode::kUnix;
  o.create = true;
  return o;
}

}  // namespace

CheckpointCoordinator::CheckpointCoordinator(hw::Machine& machine,
                                             std::uint32_t nodes,
                                             CheckpointSpec spec,
                                             WriteAbsorber* absorber,
                                             io::FileSystem* plain_fs)
    : machine_(machine),
      nodes_(nodes),
      spec_(spec),
      absorber_(absorber),
      plain_fs_(plain_fs),
      barrier_(machine.engine(), nodes),
      boundary_count_(nodes, 0) {
  if (spec_.every == 0) spec_.every = 1;
  if (spec_.chunk_bytes == 0) spec_.chunk_bytes = spec_.state_bytes;
}

void CheckpointCoordinator::attach_observability(obs::Registry* registry,
                                                 obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry != nullptr) {
    registry->bind("ckpt.epochs.committed", stats_.epochs_committed);
  }
}

sim::Task<> CheckpointCoordinator::at_boundary(std::uint32_t node) {
  if (!spec_.enabled) co_return;
  // Every node computes the epoch decision from its own private counter —
  // no shared state is read before the barrier, so the decision cannot
  // depend on which node resumes first.
  const std::uint64_t n = ++boundary_count_[node];
  if (n % spec_.every != 0) co_return;
  co_await run_epoch(node, n / spec_.every);
}

sim::Task<> CheckpointCoordinator::dump_plain(std::uint32_t node,
                                              std::uint64_t epoch) {
  // Write-behind baseline: the state image goes through the mounted file
  // system like any application data.  One shared file, per-node regions;
  // the epoch alternates between two slots so a torn dump never overwrites
  // the only good copy (the classic double-buffered checkpoint file).
  auto f = co_await plain_fs_->open(
      node, std::string(kStateFile) + "." + std::to_string(epoch % 2),
      unix_create());
  std::uint64_t off = 0;
  while (off < spec_.state_bytes) {
    const std::uint64_t len =
        std::min<std::uint64_t>(spec_.chunk_bytes, spec_.state_bytes - off);
    co_await f->seek(static_cast<std::uint64_t>(node) * spec_.state_bytes +
                     off);
    co_await f->write(len);
    off += len;
  }
  co_await f->flush();
  co_await f->close();
}

sim::Task<> CheckpointCoordinator::run_epoch(std::uint32_t node,
                                             std::uint64_t epoch) {
  co_await barrier_.arrive_and_wait();
  if (node == 0) {
    ++stats_.epochs_started;
    epoch_start_ = machine_.engine().now();
  }

  // The dump burst: the paper's checkpoint signature — every node writes
  // its whole state at once in clustered chunks.
  if (absorber_ != nullptr) {
    std::uint64_t off = 0;
    while (off < spec_.state_bytes) {
      const std::uint64_t len =
          std::min<std::uint64_t>(spec_.chunk_bytes, spec_.state_bytes - off);
      co_await absorber_->append(node, epoch, off, len);
      off += len;
    }
  } else {
    co_await dump_plain(node, epoch);
  }
  stats_.bytes_dumped += spec_.state_bytes;

  // Everything is durable in the backend; the commit record makes the
  // epoch recoverable.
  co_await barrier_.arrive_and_wait();
  if (node != 0) co_return;
  if (absorber_ != nullptr) {
    stats_.committed_digest = co_await absorber_->commit(epoch);
  } else {
    auto marker = co_await plain_fs_->open(0, kCommitFile, unix_create());
    co_await marker->seek(0);
    co_await marker->write(64);  // the epoch marker record
    co_await marker->flush();
    co_await marker->close();
  }
  ++stats_.epochs_committed;
  stats_.committed_epoch = epoch;
  const sim::SimTime now = machine_.engine().now();
  stats_.last_commit_time = now;
  commit_times_.push_back(now);
  stats_.checkpoint_time += now - epoch_start_;
  if (tracer_ != nullptr) {
    tracer_->complete({obs::kGlobalProcess, 1},
                      "ckpt.epoch" + std::to_string(epoch), epoch_start_, now,
                      "ckpt");
  }
}

double CheckpointCoordinator::data_loss_window(sim::SimTime reference) const {
  // The last commit at or before `reference` is the recovery point; a
  // commit that lands after the crash instant cannot shrink the exposure.
  sim::SimTime last = -1.0;
  for (sim::SimTime t : commit_times_) {
    if (t > reference) break;
    last = t;
  }
  if (last < 0.0) return std::max(reference, 0.0);  // nothing to recover to
  return std::max(reference - last, 0.0);
}

}  // namespace paraio::ckpt
