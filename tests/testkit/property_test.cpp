// The property-based correctness suite.
//
// Three layers: unit tests of the testkit itself (shrinking, the runner,
// the invariant checker's detectors), randomized simulation properties (every
// generated machine/mount/workload case must satisfy all simulator
// invariants), and metamorphic relations (determinism across reruns, PFS vs
// PPFS logical agreement, monotonicity of I/O volume in node count).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "test_configs.hpp"
#include "testkit/gen.hpp"
#include "testkit/invariants.hpp"
#include "testkit/property.hpp"
#include "testkit/trace_hash.hpp"

namespace paraio::testkit {
namespace {

// --- framework unit tests ---------------------------------------------------

TEST(ShrinkU64, LadderIsBoundedAndStrictlySmaller) {
  const std::vector<std::uint64_t> ladder = shrink_u64(1000, 1);
  ASSERT_FALSE(ladder.empty());
  EXPECT_EQ(ladder.front(), 1u);  // most aggressive first
  EXPECT_EQ(ladder.back(), 999u);
  EXPECT_LE(ladder.size(), 8u);
  for (const std::uint64_t v : ladder) {
    EXPECT_GE(v, 1u);
    EXPECT_LT(v, 1000u);
  }
  EXPECT_TRUE(shrink_u64(5, 5).empty());
  EXPECT_TRUE(shrink_u64(3, 5).empty());
}

TEST(Generators, SameSeedSameValue) {
  sim::Rng a(42), b(42);
  const SimCase ca = gen_sim_case(core::FsChoice::Kind::kPpfs)(a);
  const SimCase cb = gen_sim_case(core::FsChoice::Kind::kPpfs)(b);
  EXPECT_EQ(ca.describe(), cb.describe());
  EXPECT_EQ(ca.workload.seed, cb.workload.seed);
  EXPECT_EQ(ca.machine.compute_nodes, cb.machine.compute_nodes);
}

TEST(Generators, MachineAlwaysFitsWorkload) {
  sim::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const SimCase c = gen_sim_case(core::FsChoice::Kind::kPfs)(rng);
    EXPECT_GE(c.machine.compute_nodes, c.workload.nodes);
    EXPECT_GE(c.workload.phases.size(), 1u);
    EXPECT_LE(c.workload.phases.size(), 3u);
  }
}

TEST(CheckProperty, PassesWhenPropertyHolds) {
  PropertyConfig cfg;
  cfg.cases = 100;
  const auto result = check_property<std::uint64_t>(
      cfg, gen_u64(0, 1000), [](const std::uint64_t&) {
        return std::vector<std::uint64_t>{};
      },
      [](const std::uint64_t& v) -> std::optional<std::string> {
        if (v <= 1000) return std::nullopt;
        return "out of range";
      });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.cases_run, 100u);
}

TEST(CheckProperty, ShrinksToTheBoundary) {
  PropertyConfig cfg;
  cfg.cases = 50;
  cfg.max_shrink_steps = 5000;
  const auto result = check_property<std::uint64_t>(
      cfg, gen_u64(0, 100000),
      [](const std::uint64_t& v) { return shrink_u64(v, 0); },
      [](const std::uint64_t& v) -> std::optional<std::string> {
        if (v < 50) return std::nullopt;
        return "too big: " + std::to_string(v);
      });
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(*result.counterexample, 50u);  // minimal failing value
  EXPECT_EQ(result.message, "too big: 50");
}

TEST(CheckProperty, ExceptionsCountAsFailures) {
  PropertyConfig cfg;
  cfg.cases = 20;
  const auto result = check_property<std::uint64_t>(
      cfg, gen_u64(0, 100), [](const std::uint64_t&) {
        return std::vector<std::uint64_t>{};
      },
      [](const std::uint64_t& v) -> std::optional<std::string> {
        if (v > 10) throw std::runtime_error("boom");
        return std::nullopt;
      });
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.message.find("uncaught exception: boom"),
            std::string::npos);
}

TEST(SimCaseShrink, OnlyProducesSmallerWellFormedCases) {
  sim::Rng rng(11);
  const SimCase original = gen_sim_case(core::FsChoice::Kind::kPpfs)(rng);
  for (const SimCase& c : shrink_sim_case(original)) {
    EXPECT_GE(c.machine.compute_nodes, c.workload.nodes);
    EXPECT_GE(c.workload.nodes, 1u);
    EXPECT_GE(c.workload.phases.size(), 1u);
    for (const apps::SyntheticPhase& ph : c.workload.phases) {
      EXPECT_GE(ph.requests, 1u);
      EXPECT_GE(ph.size, 64u);
    }
  }
}

// --- invariant-checker detector tests ---------------------------------------

TEST(InvariantChecker, CleanFeedIsOk) {
  InvariantChecker checker;
  checker.on_event(sim::SimTime{1.0});
  checker.on_run_complete(1.0, 0, 0);
  checker.finish();
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.report(), "ok");
}

TEST(InvariantChecker, FlagsTimeRunningBackwards) {
  InvariantChecker checker;
  checker.on_event(sim::SimTime{5.0});
  checker.on_event(sim::SimTime{4.0});
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("ran backwards"), std::string::npos);
}

TEST(InvariantChecker, FlagsUndrainedRun) {
  InvariantChecker checker;
  checker.on_run_complete(1.0, 2, 1);
  EXPECT_EQ(checker.violation_count(), 2u);
  EXPECT_NE(checker.report().find("pending event"), std::string::npos);
  EXPECT_NE(checker.report().find("blocked"), std::string::npos);
}

TEST(InvariantChecker, FlagsNegativeDurationAndOverTransfer) {
  InvariantChecker checker;
  pablo::IoEvent e;
  e.op = pablo::Op::kRead;
  e.duration = -0.5;
  e.requested = 10;
  e.transferred = 20;
  checker.on_event(e);
  EXPECT_EQ(checker.violation_count(), 2u);
  EXPECT_NE(checker.report().find("negative duration"), std::string::npos);
  EXPECT_NE(checker.report().find("more than the 10 requested"),
            std::string::npos);
}

TEST(InvariantChecker, FlagsConservationMismatch) {
  InvariantChecker checker;  // exact mode
  pablo::IoEvent e;
  e.op = pablo::Op::kWrite;
  e.requested = 100;
  e.transferred = 100;
  checker.on_event(e);  // app layer wrote 100, disk layer saw nothing
  checker.observe_disk(pfs::PfsCounters{}, {});
  checker.finish();
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("written bytes not conserved"),
            std::string::npos);
}

TEST(InvariantChecker, FlagsUnbalancedWriteBehindLedger) {
  InvariantChecker::Options opts;
  opts.exact_conservation = false;
  InvariantChecker checker(opts);
  ppfs::PpfsCounters counters;
  counters.bytes_buffered = 100;
  counters.flush_bytes.record(60);
  checker.observe_disk(counters, {});
  checker.finish();
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.report().find("ledger out of balance"),
            std::string::npos);
}

TEST(InvariantChecker, MeasuredRunStartResetsLedgers) {
  InvariantChecker checker;
  // "Staging" wrote 4096 bytes with no matching app event; the measured run
  // then read them back, balanced.
  pfs::PfsCounters counters;
  counters.bytes_written = 4096;
  counters.bytes_read = 4096;
  checker.observe_disk(counters, core::DiskBytes{.read = 0, .written = 4096});
  pablo::IoEvent e;
  e.op = pablo::Op::kRead;
  e.requested = 4096;
  e.transferred = 4096;
  checker.on_event(e);
  checker.finish();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_EQ(checker.disk_written(), 0u);  // staging write was subtracted
}

// --- randomized simulation properties ---------------------------------------

/// Runs one generated case under full invariant checking; returns the
/// checker report on violation, nullopt when every invariant held.
std::optional<std::string> run_with_invariants(const SimCase& c,
                                               core::ExperimentResult* out =
                                                   nullptr) {
  InvariantChecker::Options opts;
  opts.exact_conservation = !c.on_ppfs();
  InvariantChecker checker(opts);
  core::ExperimentConfig cfg;
  cfg.machine = c.machine;
  cfg.filesystem = c.filesystem;
  cfg.app = c.workload;
  cfg.hooks.engine = &checker;
  core::ExperimentResult result = core::run_experiment(cfg);
  // The app-layer view: replay the captured trace into the checker.
  for (const pablo::IoEvent& e : result.trace.events()) checker.on_event(e);
  if (c.on_ppfs()) {
    checker.observe_disk(result.ppfs_counters, result.staged_disk);
  } else {
    checker.observe_disk(result.pfs_counters, result.staged_disk);
  }
  checker.finish();
  if (out) *out = std::move(result);
  if (!checker.ok()) return checker.report();
  return std::nullopt;
}

std::string describe_case(const SimCase& c) { return c.describe(); }

TEST(SimulationProperties, PfsCasesSatisfyAllInvariants) {
  PropertyConfig cfg;
  cfg.cases = 30;
  cfg.seed = 0xE5CA7;
  const auto result = check_property<SimCase>(
      cfg, gen_sim_case(core::FsChoice::Kind::kPfs), shrink_sim_case,
      [](const SimCase& c) { return run_with_invariants(c); });
  EXPECT_TRUE(result.ok) << explain(result, describe_case);
}

TEST(SimulationProperties, PpfsCasesSatisfyAllInvariants) {
  PropertyConfig cfg;
  cfg.cases = 30;
  cfg.seed = 0x99F5;
  const auto result = check_property<SimCase>(
      cfg, gen_sim_case(core::FsChoice::Kind::kPpfs), shrink_sim_case,
      [](const SimCase& c) { return run_with_invariants(c); });
  EXPECT_TRUE(result.ok) << explain(result, describe_case);
}

TEST(SimulationProperties, RerunsAreByteIdentical) {
  PropertyConfig cfg;
  cfg.cases = 10;
  cfg.seed = 0xD373;
  const auto result = check_property<SimCase>(
      cfg, gen_sim_case(core::FsChoice::Kind::kPpfs), shrink_sim_case,
      [](const SimCase& c) -> std::optional<std::string> {
        core::ExperimentResult a, b;
        if (auto err = run_with_invariants(c, &a)) return err;
        if (auto err = run_with_invariants(c, &b)) return err;
        if (hash_trace(a.trace) != hash_trace(b.trace)) {
          return "same seed, different traces: " +
                 hash_hex(hash_trace(a.trace)) + " vs " +
                 hash_hex(hash_trace(b.trace));
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << explain(result, describe_case);
}

TEST(SimulationProperties, PfsAndPpfsAgreeOnLogicalSignature) {
  // Same workload, same machine, different file system: timings and disk
  // traffic differ, but each node must issue the same operation sequence
  // with the same sizes and results.
  PropertyConfig cfg;
  cfg.cases = 10;
  cfg.seed = 0xD1FF;
  const auto result = check_property<SimCase>(
      cfg, gen_sim_case(core::FsChoice::Kind::kPpfs), shrink_sim_case,
      [](const SimCase& c) -> std::optional<std::string> {
        SimCase on_pfs = c;
        on_pfs.filesystem = core::FsChoice::pfs();
        core::ExperimentResult a, b;
        if (auto err = run_with_invariants(c, &a)) return err;
        if (auto err = run_with_invariants(on_pfs, &b)) return err;
        if (a.trace.size() != b.trace.size()) {
          return "event counts differ: ppfs " +
                 std::to_string(a.trace.size()) + ", pfs " +
                 std::to_string(b.trace.size());
        }
        if (logical_signature(a.trace) != logical_signature(b.trace)) {
          return "logical signatures differ across file systems";
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << explain(result, describe_case);
}

TEST(SimulationProperties, PaperApplicationsSatisfyAllInvariants) {
  // The hand-built application skeletons exercise access modes the
  // synthetic generator does not (M_RECORD, M_GLOBAL, async + iowait).
  struct Named {
    const char* name;
    core::ExperimentConfig config;
  };
  std::vector<Named> apps;
  apps.push_back(Named{"escat", golden_experiment(golden_escat())});
  apps.push_back(Named{"render", golden_experiment(golden_render())});
  apps.push_back(Named{"htf", golden_experiment(golden_htf())});
  for (Named& n : apps) {
    InvariantChecker checker;  // PFS mounts: exact conservation
    n.config.hooks.engine = &checker;
    const core::ExperimentResult result = core::run_experiment(n.config);
    for (const pablo::IoEvent& e : result.trace.events()) checker.on_event(e);
    checker.observe_disk(result.pfs_counters, result.staged_disk);
    checker.finish();
    EXPECT_TRUE(checker.ok()) << n.name << ": " << checker.report();
  }
}

TEST(SimulationProperties, DoublingNodesNeverDecreasesIoVolume) {
  // Metamorphic relation: per-node request streams are seeded independently
  // of the node count, so adding nodes only adds traffic.
  PropertyConfig cfg;
  cfg.cases = 10;
  cfg.seed = 0x2F0;
  const Gen<SimCase> small_cases =
      Gen<SimCase>([](sim::Rng& rng) {
        SimCase c;
        c.workload = gen_synthetic(/*max_nodes=*/4)(rng);
        c.machine = hw::MachineConfig::paragon_xps(
            2 * c.workload.nodes, rng.uniform_int(1, 4));
        c.filesystem = core::FsChoice::pfs(gen_pfs_params()(rng));
        return c;
      });
  const auto volume = [](const core::ExperimentResult& r) {
    std::uint64_t total = 0;
    for (const pablo::IoEvent& e : r.trace.events()) {
      if (e.is_data_op()) total += e.transferred;
    }
    return total;
  };
  const auto result = check_property<SimCase>(
      cfg, small_cases, shrink_sim_case,
      [&](const SimCase& c) -> std::optional<std::string> {
        SimCase doubled = c;
        doubled.workload.nodes = c.workload.nodes * 2;
        doubled.machine.compute_nodes = std::max<std::size_t>(
            doubled.machine.compute_nodes, doubled.workload.nodes);
        core::ExperimentResult base, more;
        if (auto err = run_with_invariants(c, &base)) return err;
        if (auto err = run_with_invariants(doubled, &more)) return err;
        if (volume(more) < volume(base)) {
          return "I/O volume shrank from " + std::to_string(volume(base)) +
                 " to " + std::to_string(volume(more)) +
                 " when doubling nodes";
        }
        return std::nullopt;
      });
  EXPECT_TRUE(result.ok) << explain(result, describe_case);
}

}  // namespace
}  // namespace paraio::testkit
