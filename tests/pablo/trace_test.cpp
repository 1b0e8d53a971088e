#include "pablo/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace paraio::pablo {
namespace {

// Every field a function of `i`, so a reordered, dropped or torn event
// shows up as a value mismatch.
IoEvent numbered(std::uint64_t i) {
  IoEvent e;
  e.timestamp = static_cast<double>(i) * 0.5;
  e.duration = static_cast<double>(i % 7) * 0.25;
  e.node = static_cast<io::NodeId>(i % 512);
  e.file = static_cast<io::FileId>(i % 13);
  e.op = static_cast<Op>(i % kOpCount);
  e.mode = static_cast<io::AccessMode>(i % 6);
  e.offset = i * 4096;
  e.requested = i + 1;
  e.transferred = i;
  return e;
}

Trace numbered_trace(std::uint64_t n) {
  Trace t;
  t.on_file(1, "/a");
  for (std::uint64_t i = 0; i < n; ++i) t.on_event(numbered(i));
  return t;
}

void expect_numbered(const Trace& t, std::uint64_t n) {
  ASSERT_EQ(t.size(), n);
  ASSERT_EQ(t.events().size(), n);
  std::uint64_t i = 0;
  for (const IoEvent& e : t.events()) {
    ASSERT_EQ(e, numbered(i)) << "event " << i;
    ++i;
  }
}

TEST(TraceStorage, MillionAppendsKeepOrderAndValues) {
  const Trace t = numbered_trace(1'000'000);
  expect_numbered(t, 1'000'000);
  EXPECT_EQ(t.events()[999'999], numbered(999'999));
  EXPECT_EQ(t.start_time(), 0.0);
}

TEST(TraceStorage, CopyConstructAndAssign) {
  const Trace original = numbered_trace(1000);
  const Trace copied(original);
  expect_numbered(copied, 1000);
  EXPECT_EQ(copied, original);
  EXPECT_NE(copied.events().data(), original.events().data());

  Trace assigned = numbered_trace(5);
  assigned = original;
  expect_numbered(assigned, 1000);
  EXPECT_EQ(assigned.file_name(1), "/a");

  Trace shrunk = numbered_trace(2000);
  shrunk = numbered_trace(3);
  expect_numbered(shrunk, 3);

  Trace from_empty = numbered_trace(10);
  from_empty = Trace();
  EXPECT_TRUE(from_empty.empty());
  EXPECT_TRUE(from_empty.files().empty());
  expect_numbered(original, 1000);  // the source is untouched
}

TEST(TraceStorage, MoveLeavesSourceEmpty) {
  Trace source = numbered_trace(1000);
  const IoEvent* data = source.events().data();
  Trace moved(std::move(source));
  expect_numbered(moved, 1000);
  EXPECT_EQ(moved.events().data(), data);  // the array moved, not copied
  EXPECT_TRUE(source.empty());           
  EXPECT_TRUE(source.events().empty());
  EXPECT_TRUE(source.files().empty());

  Trace target = numbered_trace(7);
  target = std::move(moved);
  expect_numbered(target, 1000);
  EXPECT_TRUE(moved.empty());
  EXPECT_TRUE(moved.files().empty());

  // A moved-from trace is usable again.
  source.on_event(numbered(0));
  expect_numbered(source, 1);
}

TEST(TraceStorage, SelfAssignmentKeepsContents) {
  Trace t = numbered_trace(100);
  Trace& alias = t;
  t = alias;
  expect_numbered(t, 100);
  t = std::move(alias);
  expect_numbered(t, 100);
  EXPECT_EQ(t.file_name(1), "/a");
}

TEST(TraceStorage, ClearThenReuse) {
  Trace t = numbered_trace(300);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.events().empty());
  EXPECT_TRUE(t.files().empty());
  EXPECT_EQ(t.end_time(), 0.0);
  for (std::uint64_t i = 0; i < 500; ++i) t.on_event(numbered(i));
  expect_numbered(t, 500);
}

TEST(TraceStorage, EmptyTraceHasEmptySpan) {
  const Trace t;
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.events().size(), 0u);
  EXPECT_EQ(t.events().begin(), t.events().end());
  EXPECT_EQ(t, Trace());
  const Trace copy(t);
  EXPECT_TRUE(copy.events().empty());
}

TEST(TraceStorage, EqualityComparesEventsAndNames) {
  const Trace a = numbered_trace(50);
  Trace b = numbered_trace(50);
  EXPECT_EQ(a, b);
  b.on_file(2, "/b");
  EXPECT_NE(a, b);
  Trace c = numbered_trace(49);
  EXPECT_NE(a, c);
  c.on_event(numbered(0));
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace paraio::pablo
