// ESCAT skeleton vs. the paper's Tables 1-2 and Figures 2-5.
#include "apps/escat.hpp"

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

// More nodes than the machine has would index past its compute nodes, and
// zero nodes would run no application at all: both are refused up front.
TEST(EscatConfig, RejectsNodeCountsTheMachineCannotHold) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(8, 2));
  pfs::Pfs fs(machine);
  for (const std::uint32_t nodes : {0u, 9u, 200u}) {
    EscatConfig config;
    config.nodes = nodes;
    EXPECT_THROW(Escat(machine, fs, config), std::invalid_argument) << nodes;
  }
  EscatConfig config;
  config.nodes = 8;
  EXPECT_NO_THROW(Escat(machine, fs, config));

  // The same check stops run_experiment before any event runs.
  core::ExperimentConfig cfg = core::escat_experiment();
  std::get<EscatConfig>(cfg.app).nodes = 200;
  EXPECT_THROW((void)core::run_experiment(cfg), std::invalid_argument);
}

const core::ExperimentResult& result() {
  static const core::ExperimentResult r =
      core::run_experiment(core::escat_experiment());
  return r;
}

TEST(EscatTable1, OperationCountsMatchPaper) {
  OperationTable table(result().trace);
  EXPECT_EQ(table.row(Op::kRead).count, 560u);
  EXPECT_EQ(table.row(Op::kWrite).count, 13330u);
  EXPECT_EQ(table.row(Op::kSeek).count, 12034u);
  EXPECT_EQ(table.row(Op::kOpen).count, 262u);
  EXPECT_EQ(table.row(Op::kClose).count, 262u);
  // The paper prints 26,418 as the all-I/O count; its own rows sum to
  // 26,448, which is what we reproduce.
  EXPECT_EQ(table.all().count, 26448u);
}

TEST(EscatTable1, WriteVolumeMatchesPaperWithinBytes) {
  OperationTable table(result().trace);
  // Paper: 26,757,088 bytes written.
  EXPECT_NEAR(static_cast<double>(table.row(Op::kWrite).bytes), 26757088.0,
              64.0);
}

TEST(EscatTable1, ReadVolumeSameOrderAsPaper) {
  OperationTable table(result().trace);
  // Paper: 34,226,048 bytes; the skeleton reads back exactly what it wrote
  // (27.9 MB) — see EXPERIMENTS.md for the reconciliation.
  const double bytes = static_cast<double>(table.row(Op::kRead).bytes);
  EXPECT_GT(bytes, 25e6);
  EXPECT_LT(bytes, 40e6);
}

TEST(EscatTable1, SeeksAndWritesDominateIoTime) {
  OperationTable table(result().trace);
  const double pct = table.row(Op::kSeek).pct_io_time +
                     table.row(Op::kWrite).pct_io_time;
  // Paper: 53.8 % + 41.9 % = 95.8 %.
  EXPECT_GT(pct, 85.0);
  EXPECT_GT(table.row(Op::kSeek).pct_io_time, 30.0);
  EXPECT_GT(table.row(Op::kWrite).pct_io_time, 30.0);
}

TEST(EscatTable1, ReadsTakeNegligibleTime) {
  OperationTable table(result().trace);
  // Paper: 0.21 % of I/O time.
  EXPECT_LT(table.row(Op::kRead).pct_io_time, 3.0);
}

TEST(EscatTable2, ReadSizeClassesMatchPaper) {
  SizeTable table(result().trace);
  EXPECT_EQ(table.reads().counts[0], 297u);
  EXPECT_EQ(table.reads().counts[1], 3u);
  EXPECT_EQ(table.reads().counts[2], 260u);
  EXPECT_EQ(table.reads().counts[3], 0u);
}

TEST(EscatTable2, AllWritesUnder4K) {
  SizeTable table(result().trace);
  EXPECT_EQ(table.writes().counts[0], 13330u);
  EXPECT_EQ(table.writes().counts[1], 0u);
  EXPECT_EQ(table.writes().counts[2], 0u);
  EXPECT_EQ(table.writes().counts[3], 0u);
}

TEST(EscatTable2, ReadSizesAreBimodal) {
  SizeTable table(result().trace);
  EXPECT_TRUE(table.read_histogram().is_bimodal());
}

TEST(EscatFig2, ReadsOnlyInFirstAndThirdPhases) {
  const auto& r = result();
  const double quad_start = r.phases.start_of("quadrature");
  // No reads during the quadrature write phase (between initialization end
  // and the reload phase; reload reads begin after the energy computation).
  const double quad_end = r.phases.end_of("quadrature");
  auto mid_reads = analysis::timeline(r.trace, analysis::OpFamily::kReads,
                                      quad_start, quad_end);
  EXPECT_TRUE(mid_reads.empty());
  auto all_reads = analysis::timeline(r.trace, analysis::OpFamily::kReads);
  EXPECT_EQ(all_reads.size(), 560u);
}

TEST(EscatFig4, WritesFormClustersWithShrinkingGaps) {
  const auto& r = result();
  const double quad_end = r.phases.end_of("quadrature");
  // Cluster the quadrature-phase writes; gap threshold well below the
  // inter-cycle compute time.
  pablo::Trace quad_trace;
  for (const auto& e : r.trace.events()) {
    if (e.timestamp < quad_end && e.op == pablo::Op::kWrite) {
      quad_trace.on_event(e);
    }
  }
  auto clusters = analysis::bursts(quad_trace, analysis::OpFamily::kWrites,
                                   30.0);
  // One cluster per compute/write cycle.
  EXPECT_EQ(clusters.size(), result().phases.end_of("quadrature") > 0
                                 ? 52u
                                 : 0u);
  auto gaps = analysis::burst_gaps(clusters);
  ASSERT_GT(gaps.size(), 10u);
  // Paper: spacing shrinks from ~160 s to ~half that.
  EXPECT_LT(analysis::gap_trend(gaps), 0.0);
  const double first = gaps.front();
  const double last = gaps.back();
  EXPECT_GT(first, 1.5 * last);
}

TEST(EscatFig5, FileAccessRolesMatchStructure) {
  const auto& r = result();
  // Input files: only reads.  Staging files: writes then reads.  Output
  // files: only writes.
  std::map<io::FileId, std::pair<bool, bool>> seen;  // (read, write)
  for (const auto& p : analysis::file_access_map(r.trace)) {
    auto& [rd, wr] = seen[p.file];
    (p.is_read ? rd : wr) = true;
  }
  int read_only = 0, write_only = 0, both = 0;
  for (const auto& [id, rw] : seen) {
    if (rw.first && rw.second) {
      ++both;
    } else if (rw.first) {
      ++read_only;
    } else {
      ++write_only;
    }
  }
  EXPECT_EQ(read_only, 3);   // inputs
  EXPECT_EQ(both, 2);        // staging files
  EXPECT_EQ(write_only, 3);  // outputs
}

TEST(EscatRun, DurationIsRoughlyTwoHours) {
  // Paper: about 6,000 seconds on this data set.
  const auto& r = result();
  const double duration = r.run_end - r.run_start;
  EXPECT_GT(duration, 3000.0);
  EXPECT_LT(duration, 12000.0);
}

TEST(EscatInvariant, EveryNodeRereadsExactlyWhatItWrote) {
  // Per (node, staging file): bytes written == bytes read back (ignoring
  // node 0's verification rereads).
  const auto& r = result();
  std::map<std::pair<io::NodeId, io::FileId>, std::int64_t> balance;
  std::map<io::FileId, std::string> names = r.trace.files();
  for (const auto& e : r.trace.events()) {
    const std::string& name = names[e.file];
    if (name.find("/escat/quad.") != 0) continue;
    if (e.op == pablo::Op::kWrite) {
      balance[{e.node, e.file}] += static_cast<std::int64_t>(e.transferred);
    }
    if (e.op == pablo::Op::kRead && e.node != 0) {
      balance[{e.node, e.file}] -= static_cast<std::int64_t>(e.transferred);
    }
  }
  for (const auto& [key, delta] : balance) {
    if (key.first == 0) continue;  // node 0 verified extra records
    EXPECT_EQ(delta, 0) << "node " << key.first << " file " << key.second;
  }
}

TEST(EscatDeterminism, SmallConfigTracesIdentical) {
  core::ExperimentConfig cfg = core::escat_experiment();
  auto& app = std::get<apps::EscatConfig>(cfg.app);
  app.nodes = 8;
  app.iterations = 6;
  app.seek_free_iterations = 2;
  cfg.machine = hw::MachineConfig::paragon_xps(8, 4);
  const auto a = core::run_experiment(cfg);
  const auto b = core::run_experiment(cfg);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_DOUBLE_EQ(a.run_end, b.run_end);
}

}  // namespace
}  // namespace paraio::apps
