// Experiment facade: one call builds the machine, mounts a file system,
// instruments it, stages the input files, runs the selected application, and
// returns the captured trace plus phase boundaries — everything the table
// and figure generators need.
#pragma once

#include <memory>
#include <variant>

#include "apps/escat.hpp"
#include "apps/htf.hpp"
#include "apps/render.hpp"
#include "apps/synthetic.hpp"
#include "ckpt/absorber.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/log.hpp"
#include "fault/fault.hpp"
#include "hw/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pablo/summary.hpp"
#include "pablo/trace.hpp"
#include "pfs/pfs.hpp"
#include "ppfs/ppfs.hpp"

namespace paraio::core {

/// Which file system to mount, with its policy/calibration parameters.
struct FsChoice {
  enum class Kind { kPfs, kPpfs };
  Kind kind = Kind::kPfs;
  pfs::PfsParams pfs_params;
  ppfs::PpfsParams ppfs_params;

  static FsChoice pfs(pfs::PfsParams params = {}) {
    FsChoice c;
    c.kind = Kind::kPfs;
    c.pfs_params = params;
    return c;
  }
  static FsChoice ppfs(ppfs::PpfsParams params = {}) {
    FsChoice c;
    c.kind = Kind::kPpfs;
    c.ppfs_params = params;
    return c;
  }
};

using AppConfig = std::variant<apps::EscatConfig, apps::RenderConfig,
                               apps::HtfConfig, apps::SyntheticConfig>;

/// Debug and observability hooks, all defaulting to "nothing attached".
/// The engine observer (see sim::EngineObserver) is attached for the whole
/// simulation.  The disk layer needs no hook: checkers read the mount's
/// counters from the result, and ExperimentResult::staged_disk separates
/// staging traffic from the measured run.
///
/// `metrics`/`tracer` opt into the obs layer: the machine's devices, the
/// mounted file system, and (post-run) the application phases publish into
/// them.  Attachment never consumes simulated time, so results and trace
/// digests are bit-identical with and without.  With metrics attached and
/// `sample_period` > 0, every gauge and counter is additionally snapshotted
/// each `sample_period` simulated seconds (see obs::Sampler).  The registry
/// is frozen before run_experiment returns, so it stays readable after the
/// stack it was bound to is gone.
struct ExperimentHooks {
  sim::EngineObserver* engine = nullptr;
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  sim::SimDuration sample_period = 0.0;
};

struct ExperimentConfig {
  hw::MachineConfig machine = hw::MachineConfig::paragon_xps(128, 16);
  FsChoice filesystem;
  AppConfig app;
  ExperimentHooks hooks;
  /// Same-instant event tie-break permutation seed (0 = the FIFO order the
  /// golden traces are recorded under).  Any seed yields a valid causal
  /// schedule; a correct simulation keeps its logical I/O signature
  /// invariant under every seed (timings may differ when simultaneous
  /// requests contend).  The testkit's schedule-perturbation checker
  /// (testkit/perturb.hpp) asserts exactly that.
  std::uint64_t tie_break_seed = 0;
  /// Timed hardware faults injected while the experiment runs (disk
  /// failures/repairs, ION crashes/restarts, interconnect loss/delay), each
  /// at exactly its planned time.  An empty plan schedules nothing, so
  /// results and trace digests are those of a fault-free machine (every
  /// golden digest but the `*.faults.*` ones pins this).
  fault::FaultPlan fault_plan;
  /// Periodic checkpoint dumps plugged into the application's boundary
  /// hooks (disabled by default; see docs/CHECKPOINT.md).  The absorber
  /// backend requires a PPFS mount (its drain rides the PPFS recovery
  /// path); the write-behind baseline works on either mount.
  ckpt::CheckpointSpec checkpoint;
  /// Host-side log knobs, used when checkpoint.backend == kAbsorber.
  ckpt::AbsorberParams absorber;
};

/// Bytes a mount moved from and to its I/O nodes: PfsCounters::bytes_*
/// on PFS, PpfsCounters::disk_bytes_* on PPFS.
struct DiskBytes {
  std::uint64_t read = 0;
  std::uint64_t written = 0;
};

struct ExperimentResult {
  pablo::Trace trace;
  apps::PhaseLog phases;
  /// Simulated time at which input staging finished and the measured run
  /// began (trace timestamps are >= this).
  sim::SimTime run_start = 0.0;
  sim::SimTime run_end = 0.0;
  /// The mount's disk-layer totals at run_start: the staging traffic, which
  /// the trace does not cover.
  DiskBytes staged_disk;
  /// Cumulative file-system counters (physical view).
  pfs::PfsCounters pfs_counters;      // valid for Kind::kPfs mounts
  ppfs::PpfsCounters ppfs_counters;   // valid for Kind::kPpfs mounts
  /// Graceful-degradation report: what the PPFS client-side recovery layer
  /// did (retries, failovers, dirty data lost).  Zero for PFS mounts.
  fault::RecoveryStats recovery;
  /// How many faults the injector fired, and the degraded-hardware totals
  /// summed over every RAID-3 array.
  std::size_t faults_injected = 0;
  hw::RaidFaultStats raid_faults;
  /// Total kernel events the engine executed for the whole experiment
  /// (staging + measured run).  Deterministic for a fixed config, so benches
  /// report throughput as kernel_events / wall time.
  std::uint64_t kernel_events = 0;
  /// Checkpoint accounting (zero when config.checkpoint.enabled is false):
  /// epochs started/committed, overhead time, and the data_loss_window at
  /// the first destructive fault (or run end).
  ckpt::CheckpointStats checkpoint;
  /// Absorber accounting (absorber backend only); the invariant
  /// acked == drained + resident + lost holds at quiescence.
  ckpt::AbsorberStats absorber;
  /// The durable host-side log image the run left behind (absorber backend
  /// only; null otherwise).  A "restarted" run recovers from exactly this:
  /// ckpt::recover(*ckpt_log) yields the last committed epoch and its
  /// digest, which must match `checkpoint.committed_{epoch,digest}`.
  std::shared_ptr<const ckpt::LogImage> ckpt_log;
};

/// Runs one experiment to completion (blocking; the simulation runs inside).
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// PFS service-time calibrations reproducing each application's measured
/// operation costs (the CCSF Paragon ran "several versions of OSF/1 1.2",
/// and the per-op costs in Tables 1/3/5 differ markedly between runs).
/// See EXPERIMENTS.md for the derivations.
[[nodiscard]] pfs::PfsParams escat_pfs_params();
[[nodiscard]] pfs::PfsParams render_pfs_params();
[[nodiscard]] pfs::PfsParams htf_pfs_params();

/// The experiment configurations behind the paper's tables and figures.
[[nodiscard]] ExperimentConfig escat_experiment();   // Tables 1-2, Figs 2-5
[[nodiscard]] ExperimentConfig render_experiment();  // Tables 3-4, Figs 6-8
[[nodiscard]] ExperimentConfig htf_experiment();     // Tables 5-6, Figs 9-17

}  // namespace paraio::core
