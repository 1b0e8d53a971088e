#include "pablo/filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace paraio::pablo {
namespace {

IoEvent make(Op op, double t, io::NodeId node, io::FileId file,
             std::uint64_t bytes = 64) {
  IoEvent e;
  e.op = op;
  e.timestamp = t;
  e.duration = 0.01;
  e.node = node;
  e.file = file;
  e.transferred = bytes;
  return e;
}

Trace sample() {
  Trace t;
  t.on_file(1, "/a");
  t.on_file(2, "/b");
  t.on_event(make(Op::kRead, 1.0, 0, 1));
  t.on_event(make(Op::kWrite, 2.0, 1, 2));
  t.on_event(make(Op::kRead, 3.0, 0, 2));
  t.on_event(make(Op::kWrite, 4.0, 1, 1));
  return t;
}

TEST(Filter, PredicateSelectsEvents) {
  const Trace out = filter(sample(), [](const IoEvent& e) {
    return e.op == Op::kRead;
  });
  ASSERT_EQ(out.size(), 2u);
  for (const auto& e : out.events()) EXPECT_EQ(e.op, Op::kRead);
}

TEST(Filter, RegistryCarriedForSurvivingFiles) {
  const Trace out = filter(sample(), [](const IoEvent& e) {
    return e.file == 1;
  });
  EXPECT_EQ(out.file_name(1), "/a");
  // File 2 no longer appears: name falls back to the synthetic form.
  EXPECT_EQ(out.file_name(2), "file2");
}

TEST(Filter, SliceHalfOpenInterval) {
  const Trace out = slice(sample(), 2.0, 4.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.events().front().timestamp, 2.0);
  EXPECT_DOUBLE_EQ(out.events().back().timestamp, 3.0);
}

TEST(Filter, NodeStream) {
  const Trace out = node_stream(sample(), 1);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& e : out.events()) EXPECT_EQ(e.node, 1u);
}

TEST(Filter, FileStream) {
  const Trace out = file_stream(sample(), 2);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& e : out.events()) EXPECT_EQ(e.file, 2u);
}

TEST(Merge, InterleavesByTimestamp) {
  Trace a, b;
  a.on_file(1, "/a");
  b.on_file(2, "/b");
  a.on_event(make(Op::kRead, 1.0, 0, 1));
  a.on_event(make(Op::kRead, 5.0, 0, 1));
  b.on_event(make(Op::kWrite, 3.0, 1, 2));
  const Trace out = merge({&a, &b});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out.events()[0].timestamp, 1.0);
  EXPECT_DOUBLE_EQ(out.events()[1].timestamp, 3.0);
  EXPECT_DOUBLE_EQ(out.events()[2].timestamp, 5.0);
  EXPECT_EQ(out.file_name(1), "/a");
  EXPECT_EQ(out.file_name(2), "/b");
}

TEST(Merge, StableForEqualTimestamps) {
  Trace a, b;
  a.on_event(make(Op::kRead, 1.0, 0, 1));
  b.on_event(make(Op::kWrite, 1.0, 1, 1));
  const Trace out = merge({&a, &b});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.events()[0].op, Op::kRead);   // a's events first
  EXPECT_EQ(out.events()[1].op, Op::kWrite);
}

TEST(Merge, EmptyInput) {
  EXPECT_TRUE(merge({}).empty());
}

TEST(Filter, SliceThenMergeReconstructsTrace) {
  const Trace original = sample();
  const Trace first = slice(original, 0.0, 2.5);
  const Trace second = slice(original, 2.5, 100.0);
  const Trace rejoined = merge({&first, &second});
  EXPECT_TRUE(std::ranges::equal(rejoined.events(), original.events()));
}

}  // namespace
}  // namespace paraio::pablo
