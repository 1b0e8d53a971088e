// Integration tests for the observability layer against real experiments:
// attaching metrics/tracing must not perturb trace digests, identical seeds
// must produce byte-identical exports, and an instrumented run must surface
// the signals paraio-stat reports on.
#include <string>

#include <gtest/gtest.h>

#include "ckpt/absorber.hpp"
#include "core/experiment.hpp"
#include "hw/machine.hpp"
#include "obs/chrome.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "../testkit/test_configs.hpp"
#include "testkit/trace_hash.hpp"

namespace paraio {
namespace {

struct ObservedRun {
  std::uint64_t trace_hash = 0;
  std::string metrics_dump;
  std::string chrome_trace;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t array_qdepth_count = 0;
  std::uint64_t link_bytes = 0;
  std::size_t span_count = 0;
};

ObservedRun run_observed(core::ExperimentConfig cfg) {
  obs::Registry registry;
  obs::Tracer tracer;
  cfg.hooks.metrics = &registry;
  cfg.hooks.tracer = &tracer;
  cfg.hooks.sample_period = 5.0;
  const core::ExperimentResult r = core::run_experiment(cfg);

  ObservedRun out;
  out.trace_hash = testkit::hash_trace(r.trace);
  out.metrics_dump = registry.dump_text();
  out.chrome_trace = obs::chrome_trace_text(tracer, &registry);
  if (cfg.filesystem.kind == core::FsChoice::Kind::kPpfs) {
    out.cache_hits = registry.counter("ppfs.cache.hits").value();
    out.cache_misses = registry.counter("ppfs.cache.misses").value();
  }
  out.array_qdepth_count =
      registry.histogram("hw.array0.qdepth").value().count();
  out.link_bytes = registry.counter("hw.link0.bytes").value();
  out.span_count = tracer.spans().size();
  return out;
}

TEST(ExperimentObs, AttachDoesNotPerturbTrace) {
  // The same seeded experiment, bare vs fully instrumented (registry,
  // tracer, and periodic sampler): trace digests must be bit-identical,
  // since every obs hook is zero-simulated-time bookkeeping.
  const auto cfg = [] {
    return testkit::golden_experiment(testkit::golden_escat());
  };
  const core::ExperimentResult bare = core::run_experiment(cfg());
  const ObservedRun observed = run_observed(cfg());
  EXPECT_EQ(testkit::hash_trace(bare.trace), observed.trace_hash);
}

TEST(ExperimentObs, ExportsAreByteIdenticalAcrossReruns) {
  const auto cfg = [] {
    return testkit::golden_experiment(testkit::golden_escat());
  };
  const ObservedRun a = run_observed(cfg());
  const ObservedRun b = run_observed(cfg());
  EXPECT_EQ(a.metrics_dump, b.metrics_dump);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
}

TEST(ExperimentObs, PfsRunSurfacesHardwareAndPfsSignals) {
  const ObservedRun r =
      run_observed(testkit::golden_experiment(testkit::golden_escat()));
  EXPECT_GT(r.array_qdepth_count, 0u);  // disk arrays saw queued requests
  EXPECT_GT(r.link_bytes, 0u);          // traffic crossed node 0's link
  EXPECT_GT(r.span_count, 0u);          // pfs.read/write spans were recorded
  EXPECT_NE(r.metrics_dump.find("pfs.ion0.requests"), std::string::npos);
}

TEST(ExperimentObs, PpfsRunSurfacesCacheSignals) {
  core::ExperimentConfig cfg =
      testkit::golden_experiment(testkit::golden_escat());
  cfg.filesystem =
      core::FsChoice::ppfs(ppfs::PpfsParams::write_behind_aggregation());
  const ObservedRun r = run_observed(std::move(cfg));
  EXPECT_GT(r.cache_hits + r.cache_misses, 0u);
  EXPECT_NE(r.metrics_dump.find("ppfs.flush.bytes"), std::string::npos);
  EXPECT_NE(r.metrics_dump.find("ppfs.ion0.batch_requests"),
            std::string::npos);
}

TEST(ExperimentObs, ChromeTraceIsValidJson) {
  const ObservedRun r =
      run_observed(testkit::golden_experiment(testkit::golden_escat()));
  std::string error;
  EXPECT_TRUE(obs::validate_json(r.chrome_trace, &error)) << error;
  // The exporter names processes and emits app-phase spans.
  EXPECT_NE(r.chrome_trace.find("\"app phases\""), std::string::npos);
  EXPECT_NE(r.chrome_trace.find("\"quadrature\""), std::string::npos);
}

// A hand-built stack with every layer attached: each published series is
// the struct field it is bound to, not a copy of it.
TEST(ObsBinding, HandBuiltStackReadsTheStructFields) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  pfs::Pfs pfs_fs(machine);
  ppfs::Ppfs ppfs_fs(machine);
  ckpt::WriteAbsorber absorber(ppfs_fs);
  obs::Registry registry;
  machine.attach_metrics(registry);
  pfs_fs.attach_observability(&registry, nullptr);
  ppfs_fs.attach_observability(&registry, nullptr);
  absorber.attach_observability(&registry, nullptr);

  auto work = [&]() -> sim::Task<> {
    io::OpenOptions create;
    create.create = true;
    auto f = co_await pfs_fs.open(0, "/data", create);
    (void)co_await f->write(200 * 1024);
    co_await f->close();
    co_await absorber.append(1, 1, 0, 96 * 1024);
  };
  engine.spawn(work());
  engine.run();

  const std::uint64_t array_requests = machine.ion_array(0).stats().requests;
  const std::uint64_t link_bytes = machine.net().link_stats(0).bytes;
  const std::uint64_t ion_bytes = pfs_fs.counters().ions[0].bytes;
  const std::uint64_t acked = absorber.stats().acked_bytes;
  EXPECT_GT(array_requests, 0u);
  EXPECT_GT(link_bytes, 0u);
  EXPECT_GT(ion_bytes, 0u);
  EXPECT_EQ(acked, 96u * 1024);
  EXPECT_EQ(registry.counter("hw.array0.requests").value(), array_requests);
  EXPECT_EQ(registry.counter("hw.link0.bytes").value(), link_bytes);
  EXPECT_EQ(registry.counter("pfs.ion0.bytes").value(), ion_bytes);
  EXPECT_EQ(registry.counter("ckpt.log.acked_bytes").value(), acked);
}

}  // namespace
}  // namespace paraio
