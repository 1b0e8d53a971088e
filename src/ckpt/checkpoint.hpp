// Checkpoint epochs: the consistency protocol over the write absorber.
//
// A checkpoint is a two-barrier collective (the classic blocking
// coordinated protocol):
//
//   barrier  — all participating nodes agree the epoch starts here;
//   dump     — every node writes its full state image as a burst of
//              clustered chunk writes (the paper's §4.1/§8 checkpoint
//              pattern), either into the WriteAbsorber (acknowledged at
//              log-append) or through a plain PPFS/PFS file (write-behind
//              baseline);
//   barrier  — all dumps are durable in the backend;
//   commit   — node 0 appends the epoch's commit record.  Only now is the
//              epoch recoverable; a crash before this point tears the tail
//              and recovery falls back to the previous epoch.
//
// `data_loss_window(t)` is the exposure accounting: how much simulated time
// of work would be lost if the machine died at time t — t minus the last
// commit before t (all of [0, t) when nothing ever committed).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/workload.hpp"
#include "ckpt/absorber.hpp"
#include "hw/machine.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace paraio::ckpt {

enum class CkptBackend {
  kAbsorber,     ///< host-side log: ack at append, background drain
  kWriteBehind,  ///< plain file writes through the mounted file system
};

struct CheckpointSpec {
  bool enabled = false;
  /// Take a checkpoint every `every`-th application boundary (>= 1).
  std::uint32_t every = 1;
  /// Full per-node state image dumped each epoch.
  std::uint64_t state_bytes = 256 * 1024;
  /// Chunk size of the dump burst (clustered writes, not one huge one).
  std::uint64_t chunk_bytes = 64 * 1024;
  CkptBackend backend = CkptBackend::kAbsorber;
};

struct CheckpointStats {
  std::uint64_t epochs_started = 0;
  std::uint64_t epochs_committed = 0;
  std::uint64_t committed_epoch = 0;  ///< id of the last committed (0 = none)
  std::uint64_t committed_digest = 0;  ///< absorber backend: epoch digest
  sim::SimTime last_commit_time = -1.0;  ///< -1 until the first commit
  /// Simulated seconds spent inside checkpoint epochs (barrier entry to
  /// commit), summed — the overhead numerator against total run time.
  double checkpoint_time = 0.0;
  std::uint64_t bytes_dumped = 0;
  /// Filled by core::run_experiment: exposure at the first destructive
  /// fault (or at run end when the plan has none).  Non-negative.
  double data_loss_window = 0.0;
};

/// The pluggable checkpoint phase: installed into an application skeleton
/// via apps::CheckpointHook, counts boundaries per node, and runs the
/// two-barrier epoch protocol every `spec.every`-th one.
class CheckpointCoordinator final : public apps::CheckpointHook {
 public:
  /// Exactly one backend: `absorber` when spec.backend == kAbsorber, else
  /// `plain_fs` (the mounted file system for the write-behind baseline).
  CheckpointCoordinator(hw::Machine& machine, std::uint32_t nodes,
                        CheckpointSpec spec, WriteAbsorber* absorber,
                        io::FileSystem* plain_fs);

  [[nodiscard]] sim::Task<> at_boundary(std::uint32_t node) override;

  [[nodiscard]] const CheckpointStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const CheckpointSpec& spec() const noexcept { return spec_; }

  /// Work-time exposure if everything volatile died at `reference`:
  /// reference - (last commit before it), clamped non-negative; the whole
  /// of [0, reference) when no epoch ever committed.
  [[nodiscard]] double data_loss_window(sim::SimTime reference) const;

  /// Publishes `ckpt.epochs.*` counters and one `ckpt.epoch` span per
  /// committed epoch on the global ckpt track.
  void attach_observability(obs::Registry* registry, obs::Tracer* tracer);

 private:
  sim::Task<> run_epoch(std::uint32_t node, std::uint64_t epoch);
  sim::Task<> dump_plain(std::uint32_t node, std::uint64_t epoch);

  hw::Machine& machine_;
  std::uint32_t nodes_;
  CheckpointSpec spec_;
  WriteAbsorber* absorber_;
  io::FileSystem* plain_fs_;
  sim::Barrier barrier_;
  std::vector<std::uint64_t> boundary_count_;
  sim::SimTime epoch_start_ = 0.0;
  std::vector<sim::SimTime> commit_times_;  // ascending, one per commit
  CheckpointStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace paraio::ckpt
