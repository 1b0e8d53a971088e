// Schedule-perturbation checker tests: the golden applications must keep
// their logical I/O signature under permuted same-instant tie-breaks (the
// paper's characterization contract), the baseline digest must agree with
// the golden store, and the strict bit-exact mode must demonstrably catch
// the timing divergence that contended workloads exhibit.
#include "testkit/perturb.hpp"

#include <gtest/gtest.h>

#include <string>

#include "test_configs.hpp"  // golden_* configs
#include "testkit/golden.hpp"
#include "testkit/trace_hash.hpp"

#ifndef PARAIO_GOLDEN_FILE
#error "PARAIO_GOLDEN_FILE must point at the golden store"
#endif

namespace paraio::testkit {
namespace {

GoldenStore& store() {
  static GoldenStore s(PARAIO_GOLDEN_FILE);
  return s;
}

// The acceptance bar: the full golden ESCAT configuration is logically
// invariant under 16 shuffle seeds.
TEST(Perturb, EscatLogicallyInvariantUnder16Shuffles) {
  PerturbConfig pc;
  pc.shuffles = 16;
  const auto result =
      check_schedule_invariance(golden_experiment(golden_escat()), pc);
  EXPECT_TRUE(result.ok()) << result.report();
  EXPECT_EQ(result.runs, 16);
  EXPECT_GT(result.baseline_events, 0u);
}

TEST(Perturb, RenderLogicallyInvariantUnder16Shuffles) {
  PerturbConfig pc;
  pc.shuffles = 16;
  const auto result =
      check_schedule_invariance(golden_experiment(golden_render()), pc);
  EXPECT_TRUE(result.ok()) << result.report();
}

TEST(Perturb, HtfLogicallyInvariantUnder16Shuffles) {
  PerturbConfig pc;
  pc.shuffles = 16;
  const auto result =
      check_schedule_invariance(golden_experiment(golden_htf()), pc);
  EXPECT_TRUE(result.ok()) << result.report();
}

// The checkpoint path: eight nodes dump into the absorber's bounded log at
// the same instant, so the tie-break decides which append is admitted
// first.  The checker also compares the absorber ledger, commits and
// committed digest, which the trace signature does not cover.
TEST(Perturb, EscatCheckpointedLogicallyInvariantUnder16Shuffles) {
  PerturbConfig pc;
  pc.shuffles = 16;
  const auto result = check_schedule_invariance(golden_escat_ppfs_ckpt(), pc);
  EXPECT_TRUE(result.ok()) << result.report();
  EXPECT_EQ(result.runs, 16);
}

// The fault path: a degraded array and an ION crash during the final
// flush.  The fault counters (injected, retries, refusals, degraded
// accesses) must not depend on the schedule either.
TEST(Perturb, EscatUnderFaultsLogicallyInvariantUnder16Shuffles) {
  PerturbConfig pc;
  pc.shuffles = 16;
  const auto result =
      check_schedule_invariance(golden_escat_ppfs_faults(), pc);
  EXPECT_TRUE(result.ok()) << result.report();
  EXPECT_EQ(result.runs, 16);
}

// The checker's baseline (seed 0) is the same run the golden-trace suite
// records: its logical-signature digest must match the stored golden value.
TEST(Perturb, BaselineSignatureMatchesGoldenStore) {
  PerturbConfig pc;
  pc.shuffles = 1;  // the baseline is what this test is about
  const auto result =
      check_schedule_invariance(golden_experiment(golden_escat()), pc);
  const auto stored = store().lookup("escat.pfs.n8.signature");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(result.baseline_signature, *stored);
}

// Strict mode is *expected* to catch divergence on ESCAT: its simultaneous
// metadata RPCs contend for the PFS request queues, so the tie-break decides
// which node's request wins and durations legitimately shift.  This is the
// checker's positive test — a divergence exists and is reported with a
// reproducing seed.
TEST(Perturb, BitExactModeCatchesContentionTimingOnEscat) {
  PerturbConfig pc;
  pc.shuffles = 4;
  pc.level = Invariance::kBitExact;
  const auto result =
      check_schedule_invariance(golden_experiment(golden_escat()), pc);
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.divergences.empty());
  for (const auto& d : result.divergences) {
    EXPECT_EQ(d.what, "bit-exact-hash");
    EXPECT_NE(d.seed, 0u);
    EXPECT_NE(d.detail.find("tie_break_seed"), std::string::npos) << d.detail;
  }
  // The logical contract still held: these are timing-only divergences.
  const auto logical = check_schedule_invariance(
      golden_experiment(golden_escat()),
      PerturbConfig{.shuffles = 4, .level = Invariance::kLogical});
  EXPECT_TRUE(logical.ok()) << logical.report();
  EXPECT_FALSE(logical.timing_only_seeds.empty());
}

TEST(Perturb, ReportIsHumanReadable) {
  PerturbConfig pc;
  pc.shuffles = 2;
  const auto result =
      check_schedule_invariance(golden_experiment(golden_escat()), pc);
  const std::string report = result.report();
  EXPECT_NE(report.find("ok ("), std::string::npos) << report;
  EXPECT_NE(report.find("baseline"), std::string::npos) << report;
}

}  // namespace
}  // namespace paraio::testkit
