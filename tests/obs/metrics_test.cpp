// Unit tests for the obs metrics registry: log2 histogram bucketing, the
// deterministic text dump, and the engine-observer sampler.
#include "obs/metrics.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "double_corpus.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace paraio::obs {
namespace {

TEST(Histogram, BucketOfIsBitWidth) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
}

TEST(Histogram, BucketBoundsRoundTrip) {
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
  }
  // Bucket boundaries abut: hi(b) + 1 == lo(b + 1).
  for (std::size_t b = 0; b + 2 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_hi(b) + 1, Histogram::bucket_lo(b + 1)) << b;
  }
}

TEST(Histogram, RecordTracksMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (const std::uint64_t v : {5u, 0u, 9u, 2u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.buckets()[0], 1u);  // the 0
  EXPECT_EQ(h.buckets()[2], 1u);  // the 2
  EXPECT_EQ(h.buckets()[3], 1u);  // the 5
  EXPECT_EQ(h.buckets()[4], 1u);  // the 9
}

TEST(Registry, HandlesAreStableAndNamed) {
  Registry r;
  const std::uint64_t requests = 3;
  r.bind("a.requests", requests);
  const Counter& c = r.counter("a.requests");
  // Publishing unrelated series must not move existing nodes.
  const std::uint64_t filler = 0;
  for (int i = 0; i < 100; ++i) r.bind("filler." + std::to_string(i), filler);
  EXPECT_EQ(&r.counter("a.requests"), &c);
  EXPECT_EQ(c.value(), 3u);
  EXPECT_THROW((void)r.counter("never.bound"), std::out_of_range);
}

TEST(Registry, DumpIsSortedAndReproducible) {
  const std::uint64_t late = 1;
  const std::uint64_t early = 2;
  const double mid = 1.5;
  Histogram sizes;
  sizes.record(1024);
  auto build = [&] {
    Registry r;
    r.bind("z.late", late);
    r.bind("a.early", early);
    r.bind("m.mid", mid);
    r.bind("h.sizes", sizes);
    return r.dump_text();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  // Sorted by name regardless of binding order.
  EXPECT_LT(a.find("a.early"), a.find("z.late"));
  EXPECT_EQ(a.find("# paraio metrics v1"), 0u);
}

sim::Task<> tick(sim::Engine& engine, double& gauge, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await engine.delay(1.0);
    gauge += 1.0;
  }
}

TEST(Registry, BindReadsThroughAndFreezeOutlivesTheOwner) {
  sim::Engine engine;
  Registry registry;
  auto owner = std::make_unique<double>(0.0);
  std::uint64_t evictions = 0;
  registry.bind("g", *owner);
  registry.bind_counter("sum", [&evictions] { return evictions * 2; });
  {
    Sampler sampler(engine, registry, 2.0);
    engine.spawn(tick(engine, *owner, 3));
    engine.run();
  }
  // A change to the bound field shows up in the dump and the samples
  // (each snapshot records gauges, then counters).
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 3.0);
  EXPECT_NE(registry.dump_text().find("gauge g 3\n"), std::string::npos);
  const auto view = registry.samples();
  const std::vector<Registry::Sample> samples(view.begin(), view.end());
  ASSERT_EQ(samples.size(), 4u);  // t=2 and the final t=3, two series each
  EXPECT_EQ(*samples[2].name, "g");
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);  // as of the event before t=2
  EXPECT_DOUBLE_EQ(samples[2].value, 3.0);
  evictions = 4;
  EXPECT_EQ(registry.counter("sum").value(), 8u);

  // After freeze() the values outlive the field's owner.
  registry.freeze();
  owner.reset();
  evictions = 100;
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 3.0);
  EXPECT_EQ(registry.counter("sum").value(), 8u);
  EXPECT_NE(registry.dump_text().find("counter sum 8\n"), std::string::npos);
}

TEST(Sampler, SnapshotsAtPeriodBoundaries) {
  sim::Engine engine;
  Registry registry;
  double g = 0.0;
  registry.bind("g", g);
  Sampler sampler(engine, registry, 2.0);
  engine.spawn(tick(engine, g, 5));
  engine.run();

  // Sample boundaries at t=2 and t=4 (values as of the event that crossed
  // them), plus the final snapshot when the run drains at t=5.
  const auto view = registry.samples();
  const std::vector<Registry::Sample> samples(view.begin(), view.end());
  ASSERT_GE(samples.size(), 3u);
  for (const auto& s : samples) {
    EXPECT_EQ(*s.name, "g");
  }
  EXPECT_DOUBLE_EQ(samples.front().time, 2.0);
  EXPECT_DOUBLE_EQ(samples.back().time, 5.0);
  EXPECT_DOUBLE_EQ(samples.back().value, 5.0);
}

// A period that never moves the next boundary forward would keep the first
// event snapshotting forever; the constructor refuses it instead.
TEST(Sampler, RejectsNonPositivePeriod) {
  sim::Engine engine;
  Registry registry;
  for (const double period : {0.0, -1.0,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW({ Sampler sampler(engine, registry, period); },
                 std::invalid_argument)
        << "period " << period;
  }
  engine.call_in(1.0, [] {});
  engine.run();
  EXPECT_TRUE(registry.samples().empty());  // nothing stayed attached
}

/// Counts executed events.
struct EventCount final : sim::EngineObserver {
  std::uint64_t events = 0;
  void on_event(sim::SimTime) override { ++events; }
};

// The sampler attaches beside any observer already attached and detaches
// itself, and only itself, on destruction.
TEST(Sampler, DetachesOnDestruction) {
  sim::Engine engine;
  Registry registry;
  double g = 0.0;
  registry.bind("g", g);
  EventCount count;
  engine.attach(count);
  {
    Sampler sampler(engine, registry, 1.0);
    engine.spawn(tick(engine, g, 3));
    engine.run();
  }
  EXPECT_EQ(count.events, engine.events_executed());
  const std::size_t samples = registry.samples().size();
  EXPECT_GT(samples, 0u);

  // Detached: more events add no samples, and the other observer still
  // hears every one until it is detached too.
  engine.spawn(tick(engine, g, 3));
  engine.run();
  EXPECT_EQ(registry.samples().size(), samples);
  EXPECT_EQ(count.events, engine.events_executed());
  engine.detach(count);
  engine.call_in(1.0, [] {});
  engine.run();
  EXPECT_EQ(count.events + 1, engine.events_executed());
}

// Snapshots store only changed values, compared bit for bit, and the dump
// rebuilds every snapshot in full: gauges, then counters, by name.
TEST(Sampler, ChangeLogRebuildsEverySnapshot) {
  sim::Engine engine;
  Registry registry;
  const double constant = 1.0;  // never changes
  double ticking = 0.0;         // changes every period
  // NaN compares unequal to itself, yet its bits never change.
  const double nan_value = std::numeric_limits<double>::quiet_NaN();
  double zero = 0.0;       // becomes -0.0, which compares equal to it
  std::uint64_t late = 7;  // bound after the first snapshot
  registry.bind("a.const", constant);
  registry.bind("b.tick", ticking);
  registry.bind("c.nan", nan_value);
  registry.bind("d.zero", zero);
  {
    Sampler sampler(engine, registry, 1.0);
    engine.call_at(0.5, [&] { ticking = 1.0; });
    engine.call_at(1.5, [&] {
      ticking = 2.0;
      zero = -0.0;
      registry.bind("e.late", late);
    });
    engine.call_at(2.5, [&] {
      ticking = 3.0;
      late = 8;
    });
    engine.run();  // snapshots at 1 and 2, plus the run end at 2.5
  }
  EXPECT_EQ(registry.dump_text(),
            "# paraio metrics v1\n"
            "counter e.late 8\n"
            "gauge a.const 1\n"
            "gauge b.tick 3\n"
            "gauge c.nan nan\n"
            "gauge d.zero -0\n"
            "sample 1 a.const 1\n"
            "sample 1 b.tick 1\n"
            "sample 1 c.nan nan\n"
            "sample 1 d.zero 0\n"
            "sample 2 a.const 1\n"
            "sample 2 b.tick 2\n"
            "sample 2 c.nan nan\n"
            "sample 2 d.zero -0\n"
            "sample 2 e.late 7\n"
            "sample 2.5 a.const 1\n"
            "sample 2.5 b.tick 3\n"
            "sample 2.5 c.nan nan\n"
            "sample 2.5 d.zero -0\n"
            "sample 2.5 e.late 8\n");
  // 14 logical samples; stored: the four first values, then b, d and the
  // new e at t=2, then b and e at t=2.5.
  EXPECT_EQ(registry.samples().size(), 14u);
  EXPECT_EQ(registry.stored_samples(), 9u);
  std::size_t iterated = 0;
  for (const Registry::Sample& s : registry.samples()) {
    (void)s;
    ++iterated;
  }
  EXPECT_EQ(iterated, 14u);
}

TEST(FormatDouble, StableRendering) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.1), "0.1");
}

TEST(FormatDouble, MatchesSnprintfOverRandomBitPatterns) {
  std::size_t mismatches = 0;
  for (const double v : double_corpus()) {
    char expected[64];
    std::snprintf(expected, sizeof expected, "%.9g", v);
    const std::string got = format_double(v);
    if (got != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": " << got << " vs " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace paraio::obs
