// RENDER skeleton vs. the paper's Tables 3-4 and Figures 6-8.
#include "apps/render.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/tables.hpp"
#include "analysis/timeline.hpp"
#include "core/experiment.hpp"
#include "hw/machine.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"

namespace paraio::apps {
namespace {

using analysis::OperationTable;
using analysis::SizeTable;
using pablo::Op;

// RENDER runs its renderers plus one gateway node right after them.
TEST(RenderConfig, RejectsNodeCountsTheMachineCannotHold) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(9, 2));
  pfs::Pfs fs(machine);
  for (const std::uint32_t renderers : {0u, 9u, 200u}) {
    RenderConfig config;
    config.renderers = renderers;
    EXPECT_THROW(Render(machine, fs, config), std::invalid_argument)
        << renderers;
  }
  RenderConfig config;
  config.renderers = 8;
  EXPECT_NO_THROW(Render(machine, fs, config));
}

const core::ExperimentResult& result() {
  static const core::ExperimentResult r =
      core::run_experiment(core::render_experiment());
  return r;
}

TEST(RenderTable3, OperationCountsMatchPaper) {
  OperationTable table(result().trace);
  EXPECT_EQ(table.row(Op::kRead).count, 121u);
  EXPECT_EQ(table.row(Op::kAsyncRead).count, 436u);
  EXPECT_EQ(table.row(Op::kIoWait).count, 436u);
  EXPECT_EQ(table.row(Op::kWrite).count, 300u);
  EXPECT_EQ(table.row(Op::kSeek).count, 4u);
  EXPECT_EQ(table.row(Op::kOpen).count, 106u);
  EXPECT_EQ(table.row(Op::kClose).count, 101u);
}

TEST(RenderTable3, VolumesMatchPaper) {
  OperationTable table(result().trace);
  // Paper: async reads 880,849,125 B; small reads 8,457 B; writes
  // 98,305,400 B.
  EXPECT_NEAR(static_cast<double>(table.row(Op::kAsyncRead).bytes),
              880849125.0, 1e6);
  EXPECT_NEAR(static_cast<double>(table.row(Op::kRead).bytes), 8457.0, 64.0);
  EXPECT_NEAR(static_cast<double>(table.row(Op::kWrite).bytes), 98305400.0,
              4096.0);
}

TEST(RenderTable3, IoWaitDominatesAsyncIssueTime) {
  OperationTable table(result().trace);
  // Paper: issue 4.6 s vs iowait 88.4 s — waiting dwarfs issuing.
  EXPECT_GT(table.row(Op::kIoWait).node_time,
            5.0 * table.row(Op::kAsyncRead).node_time);
  // And iowait is the single largest I/O time sink (53.7 % in the paper).
  EXPECT_GT(table.row(Op::kIoWait).pct_io_time, 35.0);
}

TEST(RenderTable3, EffectiveReadThroughputNearPaper) {
  OperationTable table(result().trace);
  const double read_seconds = table.row(Op::kIoWait).node_time +
                              table.row(Op::kAsyncRead).node_time;
  const double throughput =
      static_cast<double>(table.row(Op::kAsyncRead).bytes) / read_seconds;
  // Paper: ~9.5 MB/s through the gateway.
  EXPECT_GT(throughput, 5e6);
  EXPECT_LT(throughput, 20e6);
}

TEST(RenderTable4, SizeClassesMatchPaper) {
  SizeTable table(result().trace);
  EXPECT_EQ(table.reads().counts[0], 121u);
  EXPECT_EQ(table.reads().counts[1], 0u);
  EXPECT_EQ(table.reads().counts[2], 0u);
  EXPECT_EQ(table.reads().counts[3], 436u);
  EXPECT_EQ(table.writes().counts[0], 200u);
  EXPECT_EQ(table.writes().counts[3], 100u);
}

TEST(RenderFig6, LargeReadsOnlyDuringInitialization) {
  const auto& r = result();
  const double init_end = r.phases.end_of("initialization");
  ASSERT_GT(init_end, 0.0);
  for (const auto& p : analysis::timeline(r.trace, analysis::OpFamily::kReads)) {
    if (p.size >= 256 * 1024) {
      EXPECT_LT(p.time, init_end);
    } else {
      // View reads happen in both phases (the control file is consulted
      // during init too).
    }
  }
}

TEST(RenderFig6, ReadSizesStepFrom3MbTo15Mb) {
  const auto& r = result();
  std::vector<std::uint64_t> large;
  for (const auto& p : analysis::timeline(r.trace, analysis::OpFamily::kReads)) {
    if (p.size >= 256 * 1024) large.push_back(p.size);
  }
  ASSERT_EQ(large.size(), 436u);
  int n3 = 0, n15 = 0;
  for (auto s : large) {
    if (s == 3u * 1024 * 1024) ++n3;
    if (s == 1536u * 1024) ++n15;
  }
  EXPECT_EQ(n3, 124);
  EXPECT_EQ(n15, 312);
}

TEST(RenderFig7, WritesOnlyInRenderingPhase) {
  const auto& r = result();
  const double init_end = r.phases.end_of("initialization");
  auto writes = analysis::timeline(r.trace, analysis::OpFamily::kWrites);
  ASSERT_EQ(writes.size(), 300u);
  for (const auto& p : writes) EXPECT_GE(p.time, init_end);
}

TEST(RenderFig8, OutputFilesFormStaircase) {
  // Each frame file is written once, in order — its single large write's
  // time must increase with the file id.
  const auto& r = result();
  std::map<io::FileId, double> first_write;
  auto names = r.trace.files();
  for (const auto& e : r.trace.events()) {
    if (e.op != pablo::Op::kWrite) continue;
    if (names[e.file].find("/render/frame.") != 0) continue;
    if (!first_write.contains(e.file)) first_write[e.file] = e.timestamp;
  }
  EXPECT_EQ(first_write.size(), 100u);
  double prev = -1.0;
  for (const auto& [id, t] : first_write) {  // map: ascending file id
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(RenderRun, PhaseStructureMatchesPaper) {
  // Paper: ~210 s initialization, ~470 s total for 100 frames.
  const auto& r = result();
  const double init = r.phases.end_of("initialization") - r.run_start;
  const double total = r.run_end - r.run_start;
  EXPECT_GT(init, 60.0);
  EXPECT_LT(init, 400.0);
  EXPECT_GT(total, init + 100.0);  // rendering dominates
  EXPECT_LT(total, 1200.0);
  // Several seconds per frame (paper: ~2.6 s).
  const double per_frame = (total - init) / 100.0;
  EXPECT_GT(per_frame, 1.0);
  EXPECT_LT(per_frame, 10.0);
}

TEST(RenderFramebuffer, ProductionModeSkipsFrameFiles) {
  core::ExperimentConfig cfg = core::render_experiment();
  auto& app = std::get<apps::RenderConfig>(cfg.app);
  app.renderers = 16;
  app.frames = 10;
  app.large_reads_3mb = 8;
  app.large_reads_15mb = 16;
  app.to_framebuffer = true;
  cfg.machine = hw::MachineConfig::paragon_xps(17, 4);
  const auto r = core::run_experiment(cfg);
  OperationTable table(r.trace);
  // Only the 2x10 small header writes hit the file system; frames stream to
  // the HiPPi buffer.
  EXPECT_EQ(table.row(Op::kWrite).count, 0u + 0u);
  int frame_files = 0;
  for (const auto& [id, name] : r.trace.files()) {
    if (name.find("/render/frame.") == 0) ++frame_files;
  }
  EXPECT_EQ(frame_files, 0);
}

}  // namespace
}  // namespace paraio::apps
