// Golden-trace regression suite.
//
// Runs each paper application at a small fixed configuration and checks the
// trace digests against tests/golden/golden_traces.txt.  Three digests per
// application: the bit-exact trace hash, the timing-free logical signature,
// and a hash of the SDDF-ASCII rendering (so the serialization format is
// pinned too).  Any intentional model change re-baselines with:
//
//   ./test_golden --update-golden
//
// which rewrites the store from the observed values (see docs/TESTING.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "obs/chrome.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pablo/sddf.hpp"
#include "testkit/golden.hpp"
#include "test_configs.hpp"  // golden_* configs
#include "testkit/trace_hash.hpp"

#ifndef PARAIO_GOLDEN_FILE
#error "PARAIO_GOLDEN_FILE must point at the golden store"
#endif

namespace paraio::testkit {

// Outside the unnamed namespace so main() below can reach it.
GoldenStore& store() {
  static GoldenStore s(PARAIO_GOLDEN_FILE);
  return s;
}

namespace {

std::uint64_t hash_text(const std::string& text) {
  Fnv64 h;
  h.bytes(text.data(), text.size());
  return h.value();
}

std::uint64_t hash_sddf(const pablo::Trace& trace) {
  std::ostringstream out;
  pablo::write_trace(out, trace);
  return hash_text(out.str());
}

/// Pins the metrics dump of an observed run (registry + tracer + a 5 s
/// sampler): every counter, gauge, histogram and sample the layers publish,
/// and the Chrome trace rendered from the same tracer and registry.
void check_metrics_digest(const std::string& key_prefix,
                          core::ExperimentConfig config) {
  obs::Registry registry;
  obs::Tracer tracer;
  config.hooks.metrics = &registry;
  config.hooks.tracer = &tracer;
  config.hooks.sample_period = 5.0;
  const core::ExperimentResult result = core::run_experiment(config);
  ASSERT_GT(result.trace.size(), 0u);
  for (const auto& [suffix, text] :
       {std::pair{".metrics", registry.dump_text()},
        std::pair{".chrome", obs::chrome_trace_text(tracer, &registry)}}) {
    const auto error =
        store().check(key_prefix + suffix, hash_hex(hash_text(text)));
    EXPECT_FALSE(error.has_value()) << *error;
  }
}

void check_digests(const std::string& key_prefix,
                   const core::ExperimentConfig& config) {
  const core::ExperimentResult result = core::run_experiment(config);
  ASSERT_GT(result.trace.size(), 0u);
  struct Digest {
    const char* name;
    std::uint64_t value;
  };
  for (const Digest& d : {Digest{"trace", hash_trace(result.trace)},
                          Digest{"signature", logical_signature(result.trace)},
                          Digest{"sddf", hash_sddf(result.trace)}}) {
    const auto error =
        store().check(key_prefix + "." + d.name, hash_hex(d.value));
    EXPECT_FALSE(error.has_value()) << *error;
  }
}

TEST(GoldenTrace, EscatPfs8) {
  check_digests("escat.pfs.n8", golden_experiment(golden_escat()));
}

TEST(GoldenTrace, RenderPfs9) {
  check_digests("render.pfs.n9", golden_experiment(golden_render()));
}

TEST(GoldenTrace, HtfPfs8) {
  check_digests("htf.pfs.n8", golden_experiment(golden_htf()));
}

TEST(GoldenTrace, EscatScalesTo16) {
  apps::EscatConfig app = golden_escat();
  app.nodes = 16;
  core::ExperimentConfig cfg = golden_experiment(app);
  cfg.machine = hw::MachineConfig::paragon_xps(16, 4);
  check_digests("escat.pfs.n16", cfg);
}

// Same-instant stress: twelve nodes behind per-phase barriers with zero
// think time, so the queue's densest tie-break buckets decide the trace.
// Pinning its digests guards the FIFO same-instant contract end-to-end —
// an event-queue ordering bug shows up here before anywhere else.
TEST(GoldenTrace, SyntheticStressN12) {
  check_digests("synthetic.stress.n12", golden_experiment(golden_stress()));
}

// Metrics dumps of the golden configurations, fully observed.  These pin
// every published series name, value and sample, so a change to how the
// layers count (or to how the registry reads them) shows up here.
TEST(GoldenMetrics, PaperApplicationsOnPfs) {
  check_metrics_digest("escat.pfs.n8", golden_experiment(golden_escat()));
  check_metrics_digest("render.pfs.n9", golden_experiment(golden_render()));
  check_metrics_digest("htf.pfs.n8", golden_experiment(golden_htf()));
}

TEST(GoldenMetrics, EscatOnPpfs) {
  check_metrics_digest("escat.ppfs.n8", golden_escat_ppfs());
}

TEST(GoldenTrace, EscatPpfsUnderFaults) {
  check_digests("escat.ppfs.n8.faults", golden_escat_ppfs_faults());
}

TEST(GoldenMetrics, EscatOnPpfsUnderFaults) {
  check_metrics_digest("escat.ppfs.n8.faults", golden_escat_ppfs_faults());
}

// The checkpoint path: eight nodes dump into the absorber's bounded log at
// the same instant, so admission order and backpressure shape the run.
TEST(GoldenTrace, EscatPpfsCheckpointed) {
  check_digests("escat.ppfs.n8.ckpt", golden_escat_ppfs_ckpt());
}

TEST(GoldenMetrics, EscatOnPpfsCheckpointed) {
  check_metrics_digest("escat.ppfs.n8.ckpt", golden_escat_ppfs_ckpt());
}

// Differential: the golden configurations rerun must reproduce the exact
// digests within one process too (no hidden global state between runs).
TEST(GoldenTrace, RerunIsBitIdentical) {
  const core::ExperimentConfig cfg = golden_experiment(golden_escat());
  const auto a = core::run_experiment(cfg);
  const auto b = core::run_experiment(cfg);
  EXPECT_EQ(hash_trace(a.trace), hash_trace(b.trace));
  EXPECT_EQ(hash_sddf(a.trace), hash_sddf(b.trace));
  EXPECT_TRUE(a.trace == b.trace);
}

}  // namespace
}  // namespace paraio::testkit

int main(int argc, char** argv) {
  paraio::testkit::GoldenStore::consume_update_flag(&argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  const int rc = RUN_ALL_TESTS();
  if (paraio::testkit::GoldenStore::update_mode()) {
    auto& s = paraio::testkit::store();
    if (!s.save()) {
      std::fprintf(stderr, "failed to write golden store %s\n",
                   s.path().c_str());
      return 1;
    }
    std::printf("golden store updated: %s (%zu entries)\n", s.path().c_str(),
                s.entries().size());
  }
  return rc;
}
