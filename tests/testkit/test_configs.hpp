// Scaled-down application configurations shared by the determinism and
// golden-trace suites.  The shapes mirror the integration tests: small
// enough to run in milliseconds, big enough to exercise every code path
// (multiple iterations, async I/O, record mode, collective opens).
//
// Golden hashes are stored against these exact configurations — changing a
// field here invalidates tests/golden/golden_traces.txt (see docs/TESTING.md
// for the re-baselining workflow).
#pragma once

#include "core/experiment.hpp"

namespace paraio::testkit {

inline apps::EscatConfig golden_escat() {
  apps::EscatConfig c;
  c.nodes = 8;
  c.iterations = 6;
  c.seek_free_iterations = 2;
  c.first_cycle_compute = 5.0;
  c.last_cycle_compute = 2.0;
  c.energy_phase_compute = 3.0;
  return c;
}

inline apps::RenderConfig golden_render() {
  apps::RenderConfig c;
  c.renderers = 8;
  c.frames = 5;
  c.large_reads_3mb = 8;
  c.large_reads_15mb = 16;
  c.header_reads = 4;
  c.frame_compute = 0.5;
  return c;
}

inline apps::HtfConfig golden_htf() {
  apps::HtfConfig c;
  c.nodes = 8;
  c.integral_writes_total = 40;
  c.scf_iterations = 2;
  c.scf_extra_large_reads = 3;
  c.integral_compute_per_record = 1.0;
  c.scf_compute_per_iteration = 5.0;
  c.setup_compute = 2.0;
  return c;
}

/// Same-instant stress workload for the golden suite: every phase opens
/// with a barrier and runs with zero think time, so all twelve nodes issue
/// their requests at identical simulated instants.  This packs the event
/// queue's densest tie-break buckets — the case where a time-bucketed
/// structure cannot subdivide and ordering rests entirely on the (when,
/// key) contract — and pins the resulting trace byte-for-byte.
inline apps::SyntheticConfig golden_stress() {
  apps::SyntheticConfig c;
  c.nodes = 12;
  c.file_prefix = "/stress/data";
  c.seed = 0xD1CE;
  apps::SyntheticPhase burst;
  burst.name = "burst-write";
  burst.direction = apps::SyntheticDirection::kWrite;
  burst.pattern = apps::SyntheticPattern::kOwnRegion;
  burst.layout = apps::SyntheticFileLayout::kShared;
  burst.requests = 24;
  burst.size = 16 * 1024;
  burst.barrier_entry = true;
  apps::SyntheticPhase readback;
  readback.name = "burst-read";
  readback.direction = apps::SyntheticDirection::kRead;
  readback.pattern = apps::SyntheticPattern::kStrided;
  readback.layout = apps::SyntheticFileLayout::kShared;
  readback.requests = 24;
  readback.size = 16 * 1024;
  readback.stride = 12 * 16 * 1024;
  readback.barrier_entry = true;
  apps::SyntheticPhase probe;
  probe.name = "probe";
  probe.direction = apps::SyntheticDirection::kRead;
  probe.pattern = apps::SyntheticPattern::kRandom;
  probe.layout = apps::SyntheticFileLayout::kPerNode;
  probe.requests = 16;
  probe.size = 4 * 1024;
  probe.barrier_entry = true;
  c.phases = {burst, readback, probe};
  return c;
}

/// Machine + PFS mount matching the application's calibration, at the small
/// scale above (RENDER needs the extra gateway node).
inline core::ExperimentConfig golden_experiment(core::AppConfig app) {
  core::ExperimentConfig cfg;
  const bool render = std::holds_alternative<apps::RenderConfig>(app);
  cfg.machine = hw::MachineConfig::paragon_xps(render ? 9 : 8, 4);
  if (render) {
    cfg.filesystem = core::FsChoice::pfs(core::render_pfs_params());
  } else if (std::holds_alternative<apps::HtfConfig>(app)) {
    cfg.filesystem = core::FsChoice::pfs(core::htf_pfs_params());
  } else {
    cfg.filesystem = core::FsChoice::pfs(core::escat_pfs_params());
  }
  cfg.app = std::move(app);
  return cfg;
}

/// ESCAT on a PPFS mount with write-behind aggregation.
inline core::ExperimentConfig golden_escat_ppfs() {
  core::ExperimentConfig cfg = golden_experiment(golden_escat());
  cfg.filesystem =
      core::FsChoice::ppfs(ppfs::PpfsParams::write_behind_aggregation());
  return cfg;
}

/// The fault-path configuration: a degraded array (no repair, so no
/// rebuild) and an ION crash/restart during the final write-behind flush,
/// which drives refusals and retries.
inline core::ExperimentConfig golden_escat_ppfs_faults() {
  core::ExperimentConfig cfg = golden_escat_ppfs();
  cfg.fault_plan.add({5.0, fault::FaultKind::kDiskFail, 0, 1, 0.0});
  cfg.fault_plan.add({33.0, fault::FaultKind::kIonCrash, 1, 0, 0.0});
  cfg.fault_plan.add({33.5, fault::FaultKind::kIonRestart, 1, 0, 0.0});
  return cfg;
}

/// ESCAT on PPFS checkpointing through the write absorber every second
/// cycle.  All eight nodes dump 64 KiB in 16 KiB chunks at the same
/// instant into a log four chunks deep, so the bounded log is contended
/// and its backpressure decides when the dump completes.
inline core::ExperimentConfig golden_escat_ppfs_ckpt() {
  core::ExperimentConfig cfg = golden_escat_ppfs();
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.every = 2;
  cfg.checkpoint.state_bytes = 64 * 1024;
  cfg.checkpoint.chunk_bytes = 16 * 1024;
  cfg.checkpoint.backend = ckpt::CkptBackend::kAbsorber;
  cfg.absorber.log_capacity = 64 * 1024;
  return cfg;
}

}  // namespace paraio::testkit
