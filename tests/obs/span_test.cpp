// Unit tests for span tracing (nesting, parent links) and the Chrome
// trace-event exporter (shape, determinism, JSON validity).
#include "obs/span.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "double_corpus.hpp"
#include "obs/chrome.hpp"
#include "obs/chunked_log.hpp"
#include "obs/metrics.hpp"
#include "obs/text.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace paraio::obs {
namespace {

sim::Task<> nested(sim::Engine& engine, Tracer& tracer) {
  const Tracer::SpanId outer = tracer.begin({0, 0}, "outer", "test");
  co_await engine.delay(1.0);
  const Tracer::SpanId inner = tracer.begin({0, 0}, "inner");
  co_await engine.delay(2.0);
  tracer.end(inner);
  // A child on a different process, explicitly parented to the outer span.
  const Tracer::SpanId remote =
      tracer.begin_child({7, 1}, "remote", outer, "test");
  co_await engine.delay(1.0);
  tracer.end(remote);
  tracer.end(outer);
}

TEST(Tracer, NestingAndParentLinks) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  engine.spawn(nested(engine, tracer));
  engine.run();

  ASSERT_EQ(tracer.spans().size(), 3u);
  const auto& outer = tracer.spans()[0];
  const auto& inner = tracer.spans()[1];
  const auto& remote = tracer.spans()[2];

  EXPECT_EQ(*outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_DOUBLE_EQ(outer.start, 0.0);
  EXPECT_DOUBLE_EQ(outer.end, 4.0);

  // Same-track nesting: the open outer span became inner's parent.
  EXPECT_EQ(inner.parent, 1u);
  EXPECT_DOUBLE_EQ(inner.start, 1.0);
  EXPECT_DOUBLE_EQ(inner.end, 3.0);

  // Cross-track child keeps the explicit parent and its own (pid, tid).
  EXPECT_EQ(remote.parent, 1u);
  EXPECT_EQ(remote.process, 7u);
  EXPECT_EQ(remote.track, 1u);
  EXPECT_TRUE(remote.closed());
}

TEST(Tracer, BeginChildDoesNotJoinTheOpenStack) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  const Tracer::SpanId parent = tracer.begin({0, 0}, "parent");
  // Two concurrent children on the same foreign track: the second must be
  // parented to `parent`, not to the still-open first child.
  const Tracer::SpanId a = tracer.begin_child({1, 0}, "a", parent);
  const Tracer::SpanId b = tracer.begin_child({1, 0}, "b", parent);
  tracer.end(a);
  tracer.end(b);
  tracer.end(parent);
  EXPECT_EQ(tracer.spans()[1].parent, parent);
  EXPECT_EQ(tracer.spans()[2].parent, parent);
}

TEST(Tracer, EndIgnoresNullSpan) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  tracer.end(0);  // the "detached" id must be harmless
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, CompleteRecordsClosedInterval) {
  Tracer tracer;  // complete() needs no engine clock
  tracer.complete({kGlobalProcess, 0}, "phase", 1.0, 5.0, "phase");
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_TRUE(tracer.spans()[0].closed());
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end, 5.0);
}

// A name is stored once per tracer: the same text, literal or built at run
// time, always yields the same pointer.
TEST(Tracer, InternsEachDistinctNameOnce) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  const Tracer::Name read = tracer.intern("pfs.read");
  EXPECT_EQ(tracer.intern("pfs.read"), read);
  EXPECT_EQ(*read, "pfs.read");
  EXPECT_NE(tracer.intern("pfs.write"), read);
  const std::size_t before = tracer.interned();

  // Dynamic names (checkpoint epochs) are interned once per distinct text.
  for (int round = 0; round < 3; ++round) {
    for (int epoch = 1; epoch <= 4; ++epoch) {
      tracer.complete({kGlobalProcess, 1}, "ckpt.epoch" + std::to_string(epoch),
                      0.0, 1.0, "ckpt");
    }
  }
  EXPECT_EQ(tracer.interned(), before + 5);  // four epochs and "ckpt"
  EXPECT_EQ(tracer.spans()[0].name, tracer.spans()[4].name);
  EXPECT_EQ(tracer.spans()[0].name, tracer.intern("ckpt.epoch1"));
  EXPECT_EQ(tracer.spans()[0].category, tracer.intern("ckpt"));

  // The handle and string forms of begin() and instant() record the same
  // name.
  const Tracer::Name fault = tracer.intern("fault");
  tracer.end(tracer.begin({0, 0}, read, fault));
  tracer.end(tracer.begin({0, 0}, "pfs.read", "fault"));
  tracer.instant({0, 0}, read, fault);
  tracer.instant({0, 0}, "pfs.read", "fault");
  const std::size_t n = tracer.spans().size();
  EXPECT_EQ(tracer.spans()[n - 1].name, read);
  EXPECT_EQ(tracer.spans()[n - 2].name, read);
  EXPECT_EQ(tracer.instants()[0].name, tracer.instants()[1].name);
  EXPECT_EQ(tracer.instants()[0].category, fault);
}

// Spans live in fixed chunks that never move: a reference taken early
// stays valid, and every record stays intact, across chunk boundaries.
TEST(Tracer, SpanReferencesSurviveChunkBoundaries) {
  constexpr std::size_t kSpans = 100'000;
  static_assert(kSpans > 4 * ChunkedLog<Tracer::Span>::kPerChunk);
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  const Tracer::Name name = tracer.intern("span");
  const Tracer::SpanId first = tracer.begin({0, 0}, name, name);
  const Tracer::Span& first_ref = tracer.spans()[0];
  std::vector<const Tracer::Span*> addresses;
  for (std::size_t i = 1; i < kSpans; ++i) {
    const Tracer::SpanId id =
        tracer.begin_child({static_cast<std::uint32_t>(i), 1}, name, first,
                           name);
    addresses.push_back(&tracer.spans()[id - 1]);
    if (i % 3 == 0) tracer.end(id);
  }
  tracer.end(first);
  ASSERT_EQ(tracer.spans().size(), kSpans);
  EXPECT_EQ(&tracer.spans()[0], &first_ref);
  EXPECT_TRUE(first_ref.closed());
  std::size_t i = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (i > 0) {
      ASSERT_EQ(&span, addresses[i - 1]) << i;
      ASSERT_EQ(span.process, i) << i;
      ASSERT_EQ(span.parent, first) << i;
      ASSERT_EQ(span.closed(), i % 3 == 0) << i;
    }
    ++i;
  }
  EXPECT_EQ(i, kSpans);
}

TEST(ChromeTrace, EmitsMetadataCompleteAndCounterEvents) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  tracer.name_process(3, "node3");
  tracer.name_track({3, 1}, "pfs pieces");
  tracer.complete({3, 1}, "pfs.read", 0.5, 1.5, "pfs");

  Registry registry;
  const double busy_s = 0.25;
  registry.bind("hw.link0.busy_s", busy_s);
  sim::Engine sample_engine;
  {
    Sampler sampler(sample_engine, registry, 1.0);
    sample_engine.run();
  }

  const std::string json = chrome_trace_text(tracer, &registry);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pfs.read\""), std::string::npos);
  // Microsecond timestamps: 0.5 s -> 500000.000.
  EXPECT_NE(json.find("\"ts\":500000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000000.000"), std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
}

TEST(ChromeTrace, OpenSpansAreSkipped) {
  sim::Engine engine;
  Tracer tracer;
  tracer.bind(engine);
  (void)tracer.begin({0, 0}, "never-ends");
  const std::string json = chrome_trace_text(tracer, nullptr);
  EXPECT_EQ(json.find("never-ends"), std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
}

TEST(ChromeTrace, EscapesSpanNames) {
  Tracer tracer;
  tracer.complete({0, 0}, "quote\" backslash\\ tab\t bell\a unit\x1f", 0.0,
                  1.0);
  const std::string json = chrome_trace_text(tracer, nullptr);
  EXPECT_NE(
      json.find("quote\\\" backslash\\\\ tab\\t bell\\u0007 unit\\u001f"),
      std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
}

// The "ts"/"dur" fields: microseconds, printf("%.3f", seconds * 1e6).
TEST(ChromeTrace, MicrosecondFieldMatchesSnprintf) {
  std::size_t mismatches = 0;
  // Fixed notation of DBL_MAX needs 309 integer digits.
  char expected[400];
  for (const double seconds : double_corpus()) {
    std::snprintf(expected, sizeof expected, "%.3f", seconds * 1e6);
    std::string got;
    append_micros(got, seconds);
    if (got != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex
                    << std::bit_cast<std::uint64_t>(seconds) << ": " << got
                    << " vs " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// A bound double can hold NaN or infinity; JSON has no such numbers, so the
// exporter leaves those samples out while the metrics dump keeps them.
TEST(ChromeTrace, NonFiniteSampleStaysValidJson) {
  Tracer tracer;
  Registry registry;
  const double nan_value = std::numeric_limits<double>::quiet_NaN();
  const double inf_value = std::numeric_limits<double>::infinity();
  const double neg_inf_value = -inf_value;
  const double finite_value = 2.5;
  registry.bind("g.nan", nan_value);
  registry.bind("g.inf", inf_value);
  registry.bind("g.neg_inf", neg_inf_value);
  registry.bind("g.finite", finite_value);
  sim::Engine engine;
  {
    Sampler sampler(engine, registry, 1.0);
    engine.run();
  }
  ASSERT_EQ(registry.samples().size(), 4u);

  const std::string json = chrome_trace_text(tracer, &registry);
  std::string error;
  EXPECT_TRUE(validate_json(json, &error)) << error;
  EXPECT_NE(json.find("\"g.finite\""), std::string::npos);
  EXPECT_EQ(json.find("\"g.nan\""), std::string::npos);
  EXPECT_EQ(json.find("\"g.inf\""), std::string::npos);
  EXPECT_EQ(json.find("\"g.neg_inf\""), std::string::npos);

  const std::string dump = registry.dump_text();
  EXPECT_NE(dump.find("sample 0 g.nan nan\n"), std::string::npos);
  EXPECT_NE(dump.find("sample 0 g.inf inf\n"), std::string::npos);
  EXPECT_NE(dump.find("sample 0 g.neg_inf -inf\n"), std::string::npos);
}

TEST(ValidateJson, AcceptsValidDocuments) {
  for (const char* doc :
       {"{}", "[]", "{\"a\": [1, -2.5, 1e9, true, false, null, \"s\"]}",
        "  {\"nested\": {\"deep\": [[[]]]}}  "}) {
    std::string error;
    EXPECT_TRUE(validate_json(doc, &error)) << doc << ": " << error;
  }
}

TEST(ValidateJson, RejectsInvalidDocuments) {
  for (const char* doc :
       {"", "{", "}", "{\"a\":}", "{\"a\": 1,}", "[1 2]", "{'a': 1}",
        "{\"a\": 01}", "{\"a\": 1} trailing", "nulll", "\"unterminated"}) {
    std::string error;
    EXPECT_FALSE(validate_json(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

}  // namespace
}  // namespace paraio::obs
