// HTF skeleton vs. the paper's Tables 5-6 and Figures 9-17.
#include "apps/htf.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/pattern.hpp"
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

TEST(HtfConfig, RejectsNodeCountsTheMachineCannotHold) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(8, 2));
  pfs::Pfs fs(machine);
  for (const std::uint32_t nodes : {0u, 9u, 200u}) {
    HtfConfig config;
    config.nodes = nodes;
    EXPECT_THROW(Htf(machine, fs, config), std::invalid_argument) << nodes;
  }
  HtfConfig config;
  config.nodes = 8;
  EXPECT_NO_THROW(Htf(machine, fs, config));
}

struct Phased {
  core::ExperimentResult r;
  double setup_end = 0, pargos_end = 0, scf_end = 0;
};

const Phased& result() {
  static const Phased p = [] {
    Phased out;
    out.r = core::run_experiment(core::htf_experiment());
    out.setup_end = out.r.phases.end_of("psetup");
    out.pargos_end = out.r.phases.end_of("pargos");
    out.scf_end = out.r.phases.end_of("pscf");
    return out;
  }();
  return p;
}

// --- Table 5: initialization ---

TEST(HtfTable5Init, OperationCounts) {
  OperationTable t(result().r.trace, 0.0, result().setup_end);
  EXPECT_EQ(t.row(Op::kRead).count, 371u);
  EXPECT_EQ(t.row(Op::kWrite).count, 452u);
  EXPECT_EQ(t.row(Op::kSeek).count, 2u);
  EXPECT_EQ(t.row(Op::kOpen).count, 4u);
  EXPECT_EQ(t.row(Op::kClose).count, 3u);
  EXPECT_EQ(t.all().count, 832u);
}

TEST(HtfTable5Init, Volumes) {
  OperationTable t(result().r.trace, 0.0, result().setup_end);
  // Paper: reads 3,522,497 B; writes 3,744,872 B.
  EXPECT_NEAR(static_cast<double>(t.row(Op::kRead).bytes), 3522497.0, 1024.0);
  EXPECT_NEAR(static_cast<double>(t.row(Op::kWrite).bytes), 3744872.0,
              1024.0);
}

// --- Table 5: integral calculation ---

TEST(HtfTable5Integral, OperationCounts) {
  OperationTable t(result().r.trace, result().setup_end, result().pargos_end);
  EXPECT_EQ(t.row(Op::kRead).count, 145u);
  EXPECT_EQ(t.row(Op::kWrite).count, 8535u);
  EXPECT_EQ(t.row(Op::kSeek).count, 130u);
  EXPECT_EQ(t.row(Op::kOpen).count, 130u);
  EXPECT_EQ(t.row(Op::kClose).count, 129u);
  EXPECT_EQ(t.row(Op::kLsize).count, 128u);
  EXPECT_EQ(t.row(Op::kFlush).count, 8657u);
}

TEST(HtfTable5Integral, WriteVolumeNearPaper) {
  OperationTable t(result().r.trace, result().setup_end, result().pargos_end);
  // Paper: 698,958,109 B — each node writes roughly 5 MB (§7.1).
  EXPECT_NEAR(static_cast<double>(t.row(Op::kWrite).bytes), 698958109.0,
              1e5);
}

TEST(HtfTable5Integral, WriteIntensive) {
  OperationTable t(result().r.trace, result().setup_end, result().pargos_end);
  EXPECT_GT(t.row(Op::kWrite).bytes, 100u * t.row(Op::kRead).bytes);
}

TEST(HtfTable5Integral, OpensAreExpensive) {
  // Paper: opens are 63 % of integral-phase I/O time (file creation cost).
  OperationTable t(result().r.trace, result().setup_end, result().pargos_end);
  EXPECT_GT(t.row(Op::kOpen).pct_io_time, 25.0);
}

// --- Table 5: self-consistent field ---

TEST(HtfTable5Scf, OperationCounts) {
  OperationTable t(result().r.trace, result().pargos_end, result().scf_end);
  EXPECT_EQ(t.row(Op::kRead).count, 51499u);
  EXPECT_EQ(t.row(Op::kWrite).count, 207u);
  EXPECT_EQ(t.row(Op::kSeek).count, 813u);
  EXPECT_EQ(t.row(Op::kOpen).count, 157u);
  EXPECT_EQ(t.row(Op::kClose).count, 156u);
}

TEST(HtfTable5Scf, ReadVolumeNearPaper) {
  OperationTable t(result().r.trace, result().pargos_end, result().scf_end);
  // Paper: 4,201,634,304 B read — the 80 KB integral records, six passes.
  EXPECT_NEAR(static_cast<double>(t.row(Op::kRead).bytes), 4201634304.0,
              5e6);
}

TEST(HtfTable5Scf, ReadsDominateIoTime) {
  OperationTable t(result().r.trace, result().pargos_end, result().scf_end);
  // Paper: 98.36 % of the phase's I/O time is reads.
  EXPECT_GT(t.row(Op::kRead).pct_io_time, 80.0);
  EXPECT_LT(t.row(Op::kWrite).pct_io_time, 2.0);
}

// --- Table 6 ---

TEST(HtfTable6, InitSizeClasses) {
  SizeTable t(result().r.trace, 0.0, result().setup_end);
  EXPECT_EQ(t.reads().counts[0], 151u);
  EXPECT_EQ(t.reads().counts[1], 220u);
  EXPECT_EQ(t.writes().counts[0], 218u);
  EXPECT_EQ(t.writes().counts[1], 234u);
}

TEST(HtfTable6, IntegralSizeClasses) {
  SizeTable t(result().r.trace, result().setup_end, result().pargos_end);
  EXPECT_EQ(t.reads().counts[0], 143u);
  EXPECT_EQ(t.reads().counts[1], 2u);
  EXPECT_EQ(t.writes().counts[0], 2u);
  EXPECT_EQ(t.writes().counts[1], 1u);
  EXPECT_EQ(t.writes().counts[2], 8532u);
  EXPECT_EQ(t.writes().counts[3], 0u);
}

TEST(HtfTable6, ScfSizeClasses) {
  SizeTable t(result().r.trace, result().pargos_end, result().scf_end);
  EXPECT_EQ(t.reads().counts[0], 165u);
  EXPECT_EQ(t.reads().counts[1], 109u);
  EXPECT_EQ(t.reads().counts[2], 51225u);
  EXPECT_EQ(t.writes().counts[0], 43u);
  EXPECT_EQ(t.writes().counts[1], 158u);
  EXPECT_EQ(t.writes().counts[2], 6u);
}

TEST(HtfTable6, RequestsNeverExceed256K) {
  SizeTable t(result().r.trace);
  // "the maximum request size is rather small, only four times the Intel
  // PFS striping factor of 64K bytes" (§7.1).
  EXPECT_EQ(t.reads().counts[3], 0u);
  EXPECT_EQ(t.writes().counts[3], 0u);
}

// --- Figures 11-17 ---

TEST(HtfFig12, IntegralPhaseWriteTimelineIsDense) {
  const auto& p = result();
  auto writes = analysis::timeline(p.r.trace, analysis::OpFamily::kWrites,
                                   p.setup_end, p.pargos_end);
  EXPECT_EQ(writes.size(), 8535u);
  // Most writes are the ~80 KB records.
  std::uint64_t large = 0;
  for (const auto& w : writes) large += w.size >= 64 * 1024 ? 1 : 0;
  EXPECT_EQ(large, 8532u);
}

TEST(HtfFig13, ScfReadsSpreadAcrossWholePhase) {
  const auto& p = result();
  auto reads = analysis::timeline(p.r.trace, analysis::OpFamily::kReads,
                                  p.pargos_end, p.scf_end);
  ASSERT_EQ(reads.size(), 51499u);
  const double span = p.scf_end - p.pargos_end;
  // Reads occur in every fifth of the phase (iterative structure).
  std::array<int, 5> fifths{};
  for (const auto& r : reads) {
    const double frac = (r.time - p.pargos_end) / span;
    ++fifths[std::min<std::size_t>(4, static_cast<std::size_t>(frac * 5))];
  }
  for (int f : fifths) EXPECT_GT(f, 0);
}

TEST(HtfFig16, OneIntegralFilePerNode) {
  const auto& p = result();
  std::map<io::FileId, std::set<io::NodeId>> writers;
  auto names = p.r.trace.files();
  for (const auto& e : p.r.trace.events()) {
    if (e.op != Op::kWrite) continue;
    if (names[e.file].find("/htf/integrals.") != 0) continue;
    writers[e.file].insert(e.node);
  }
  EXPECT_EQ(writers.size(), 128u);
  for (const auto& [file, nodes] : writers) {
    EXPECT_EQ(nodes.size(), 1u) << "integral file shared between nodes";
  }
}

TEST(HtfPattern, IntegralStreamsAreSequential) {
  // §7.2: "the input/output pattern in this code is quite regular, with
  // little but sequential accesses".
  const auto& p = result();
  auto streams = analysis::classify_trace(p.r.trace);
  auto mix = analysis::pattern_mix(streams);
  EXPECT_GT(mix.sequential, mix.random + mix.strided);
}

TEST(HtfScaling, IntegralVolumeGrowsAsN4) {
  // The O(N^4) two-electron integral count drives the data volume (§7.1):
  // doubling the basis size should scale integral bytes by ~16x.  We model
  // basis size through integral_writes_total.
  HtfConfig small;
  small.integral_writes_total = 100;
  HtfConfig big;
  big.integral_writes_total = 1600;
  const double ratio =
      static_cast<double>(big.integral_writes_total * big.integral_record) /
      static_cast<double>(small.integral_writes_total * small.integral_record);
  EXPECT_DOUBLE_EQ(ratio, 16.0);
}

TEST(HtfRun, PhaseDurationsOrderedLikePaper) {
  // Paper: 127 s / 1,173 s / 1,008 s.  The long phases must dwarf psetup.
  const auto& p = result();
  const double setup = p.setup_end - p.r.run_start;
  const double integral = p.pargos_end - p.setup_end;
  const double scf = p.scf_end - p.pargos_end;
  EXPECT_GT(integral, 3.0 * setup);
  EXPECT_GT(scf, 3.0 * setup);
  EXPECT_GT(integral, 200.0);
  EXPECT_LT(integral, 5000.0);
  EXPECT_GT(scf, 200.0);
  EXPECT_LT(scf, 5000.0);
}

}  // namespace
}  // namespace paraio::apps
