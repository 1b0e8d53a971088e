// Microbenchmarks of the data-structure substrate: striping arithmetic, the
// PPFS bookkeeping structures, the checkpoint log and the obs span and
// sample stores.  These
// have no simulation clock, so they live apart from bench_micro_sim, whose
// events/sec numbers feed the tracked performance trajectory; "events" here
// counts items processed.
//
//   $ bench_micro_structs [--json PATH] [--csv DIR]
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pfs/stripe.hpp"
#include "ppfs/cache.hpp"
#include "ppfs/extent.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace {

using namespace paraio;

/// One scenario repetition: returns (items processed, 0 simulated seconds).
using ScenarioFn = std::pair<double, double> (*)();

struct Scenario {
  const char* name;
  ScenarioFn run;
};

std::pair<double, double> stripe_decompose() {
  constexpr int kDecompositions = 10000;
  pfs::StripeParams params;
  params.unit = 64 * 1024;
  params.io_nodes = 16;
  const pfs::StripeMap map(params);
  sim::Rng rng(1);
  for (int i = 0; i < kDecompositions; ++i) {
    const auto offset = rng.uniform_int(0, 1u << 30);
    const auto segs = map.decompose(offset, 3 * 1024 * 1024);
    bench::keep(segs.data());
  }
  return {kDecompositions, 0.0};
}

std::pair<double, double> extent_set_sequential_inserts() {
  constexpr int kInserts = 1000;
  ppfs::ExtentSet set;
  for (int i = 0; i < kInserts; ++i) {
    set.insert(static_cast<std::uint64_t>(i) * 2048, 2048);
  }
  bench::keep(set.total_bytes());
  return {kInserts, 0.0};
}

/// A write-behind buffer's life: 2 KiB sequential appends that coalesce
/// into one extent, then a strided pattern (2 KiB every 4 KiB) that keeps
/// 64 disjoint extents, each batch flushed and its storage handed back.
std::pair<double, double> extent_set_append() {
  constexpr int kInserts = 100000;
  constexpr int kBatch = 64;
  ppfs::ExtentSet set;
  std::vector<ppfs::Extent> spare;
  std::uint64_t bytes = 0;
  for (int i = 0; i < kInserts / 2; ++i) {
    set.insert(static_cast<std::uint64_t>(i) * 2048, 2048);
    if ((i + 1) % kBatch == 0) {
      bytes += set.total_bytes();
      spare = set.take(std::move(spare));
    }
  }
  for (int i = 0; i < kInserts / 2; ++i) {
    set.insert(static_cast<std::uint64_t>(i) * 4096, 2048);
    if ((i + 1) % kBatch == 0) {
      bytes += set.total_bytes();
      spare = set.take(std::move(spare));
    }
  }
  bench::keep(bytes);
  return {kInserts, 0.0};
}

/// The absorber's log: data records of 64 KiB chunks from 16 nodes with a
/// commit after every 64, sealing a segment per MiB.
std::pair<double, double> ckpt_log_push() {
  constexpr int kRecords = 200000;
  ckpt::LogImage log;
  std::uint64_t digest = ckpt::kFnvOffset;
  for (int i = 0; i < kRecords; ++i) {
    ckpt::LogRecord r;
    r.epoch = static_cast<std::uint64_t>(i / 65);
    if (i % 65 == 64) {
      r.kind = ckpt::RecordKind::kCommit;
      r.digest = digest;
      digest = ckpt::kFnvOffset;
    } else {
      r.node = static_cast<std::uint32_t>(i % 16);
      r.offset = static_cast<std::uint64_t>(i % 65) * 65536;
      r.bytes = 65536;
    }
    log.push(r);
    digest = ckpt::digest_fold(
        digest, log.segments().back().records.back().checksum);
  }
  bench::keep(log.payload_bytes());
  return {kRecords, 0.0};
}

std::pair<double, double> block_cache_lookups() {
  constexpr int kLookups = 100000;
  ppfs::BlockCache cache(1024);
  for (std::uint64_t b = 0; b < 1024; ++b) cache.insert({1, b});
  sim::Rng rng(7);
  for (int i = 0; i < kLookups; ++i) {
    bench::keep(cache.lookup({1, rng.uniform_int(0, 2047)}));
  }
  return {kLookups, 0.0};
}

std::pair<double, double> rng_next_u64() {
  constexpr int kDraws = 1000000;
  sim::Rng rng(42);
  for (int i = 0; i < kDraws; ++i) bench::keep(rng.next_u64());
  return {kDraws, 0.0};
}

/// PFS-shaped spans: one transfer span per request with three piece spans
/// under it, names interned once as the file systems do at attach.
std::pair<double, double> tracer_spans() {
  constexpr int kRequests = 200000 / 4;
  sim::Engine engine;
  obs::Tracer tracer;
  tracer.bind(engine);
  const obs::Tracer::Name read = tracer.intern("pfs.read");
  const obs::Tracer::Name piece = tracer.intern("pfs.piece.read");
  const obs::Tracer::Name category = tracer.intern("pfs");
  for (int i = 0; i < kRequests; ++i) {
    const auto node = static_cast<std::uint32_t>(i % 128);
    const obs::Tracer::SpanId span = tracer.begin({node, 0}, read, category);
    const obs::Tracer::SpanId a =
        tracer.begin_child({128, 1}, piece, span, category);
    const obs::Tracer::SpanId b =
        tracer.begin_child({129, 1}, piece, span, category);
    const obs::Tracer::SpanId c =
        tracer.begin_child({130, 1}, piece, span, category);
    tracer.end(a);
    tracer.end(b);
    tracer.end(c);
    tracer.end(span);
  }
  bench::keep(tracer.spans()[tracer.spans().size() - 1]);
  return {static_cast<double>(tracer.spans().size()), 0.0};
}

/// 1,000 series (half gauges, half counters) snapshotted every period for
/// 200 periods; one series in ten changes between snapshots.
std::pair<double, double> sampler_snapshots() {
  constexpr int kSeries = 1000;
  constexpr int kPeriods = 200;
  sim::Engine engine;
  obs::Registry registry;
  std::vector<double> gauges(kSeries / 2, 0.0);
  std::vector<std::uint64_t> counters(kSeries / 2, 0);
  for (int i = 0; i < kSeries / 2; ++i) {
    const std::string index = std::to_string(i);
    registry.bind("g." + index, gauges[i]);
    registry.bind("c." + index, counters[i]);
  }
  {
    obs::Sampler sampler(engine, registry, 1.0);
    for (int t = 1; t <= kPeriods; ++t) {
      engine.call_at(t, [&gauges, &counters, t] {
        for (std::size_t i = t % 10; i < gauges.size(); i += 10) {
          gauges[i] += 0.5;
          ++counters[i];
        }
      });
    }
    engine.run();
  }
  return {static_cast<double>(registry.samples().size()), 0.0};
}

constexpr Scenario kScenarios[] = {
    {"stripe_decompose_3mib", &stripe_decompose},
    {"extent_set_sequential_inserts_1k", &extent_set_sequential_inserts},
    {"extent_set_append_100k", &extent_set_append},
    {"ckpt_log_push_200k", &ckpt_log_push},
    {"block_cache_lookups", &block_cache_lookups},
    {"rng_next_u64", &rng_next_u64},
    {"tracer_spans_200k", &tracer_spans},
    {"sampler_snapshots_1k_series", &sampler_snapshots},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(argc, argv);
  const double min_wall_ms = 250.0;

  std::printf("=== data-structure microbenchmarks (items/sec) ===\n");
  std::vector<bench::ScenarioRecord> records;
  for (const Scenario& s : kScenarios) {
    records.push_back(bench::measure_best(s.name, s.run, min_wall_ms));
  }
  bench::report_scenarios(opt, "micro_structs", records);
  return 0;
}
