#include "pfs/pfs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "hw/machine.hpp"
#include "sim/engine.hpp"
#include "sim/task_group.hpp"

namespace paraio::pfs {
namespace {

using io::AccessMode;
using io::OpenOptions;

struct Fixture {
  Fixture(std::size_t compute = 4, std::size_t ions = 2)
      : machine(engine, hw::MachineConfig::paragon_xps(compute, ions)),
        fs(machine) {}
  sim::Engine engine;
  hw::Machine machine;
  Pfs fs;
};

OpenOptions create_unix() {
  OpenOptions o;
  o.mode = AccessMode::kUnix;
  o.create = true;
  return o;
}

// A mount that could only stripe by a zero divisor is refused before any
// file opens.
TEST(Pfs, RejectsZeroStripeUnit) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  PfsParams params;
  params.stripe_unit = 0;
  EXPECT_THROW(Pfs(machine, params), std::invalid_argument);
}

TEST(Pfs, RejectsMachineWithoutIoNodes) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 0));
  EXPECT_THROW(Pfs{machine}, std::invalid_argument);
}

TEST(Pfs, CreateWriteReadRoundTrip) {
  Fixture fx;
  std::uint64_t read_back = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/data", create_unix());
    EXPECT_EQ(co_await f->write(1000), 1000u);
    co_await f->seek(0);
    read_back = co_await f->read(1000);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(read_back, 1000u);
  EXPECT_EQ(fx.fs.file_size("/data"), 1000u);
}

TEST(Pfs, OpenMissingWithoutCreateThrows) {
  Fixture fx;
  bool threw = false;
  auto proc = [&]() -> sim::Task<> {
    try {
      OpenOptions o;
      o.mode = AccessMode::kUnix;
      (void)co_await fx.fs.open(0, "/missing", o);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_TRUE(threw);
}

TEST(Pfs, ReadClipsAtEof) {
  Fixture fx;
  std::uint64_t n1 = 99, n2 = 99;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(500);
    co_await f->seek(200);
    n1 = co_await f->read(1000);  // only 300 available
    n2 = co_await f->read(10);    // at EOF now
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(n1, 300u);
  EXPECT_EQ(n2, 0u);
}

TEST(Pfs, TruncateResetsSize) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(500);
    co_await f->close();
    OpenOptions o = create_unix();
    o.truncate = true;
    auto g = co_await fx.fs.open(0, "/f", o);
    co_await g->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(fx.fs.file_size("/f"), 0u);
}

TEST(Pfs, IndependentPointersPerHandle) {
  Fixture fx;
  std::uint64_t tell_a = 0, tell_b = 0;
  auto proc = [&]() -> sim::Task<> {
    auto a = co_await fx.fs.open(0, "/f", create_unix());
    OpenOptions o;
    o.mode = AccessMode::kUnix;
    auto b = co_await fx.fs.open(1, "/f", o);
    co_await a->write(700);
    tell_a = a->tell();
    tell_b = b->tell();
    co_await a->close();
    co_await b->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(tell_a, 700u);
  EXPECT_EQ(tell_b, 0u);
}

TEST(Pfs, SizeReflectsMaxExtent) {
  Fixture fx;
  std::uint64_t reported = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->seek(10'000'000);
    co_await f->write(100);
    reported = co_await f->size();
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(reported, 10'000'100u);
}

TEST(Pfs, OperationsOnClosedHandleThrow) {
  Fixture fx;
  int caught = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->close();
    try {
      co_await f->read(1);
    } catch (const std::logic_error&) {
      ++caught;
    }
    try {
      co_await f->write(1);
    } catch (const std::logic_error&) {
      ++caught;
    }
    try {
      co_await f->seek(0);
    } catch (const std::logic_error&) {
      ++caught;
    }
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(caught, 3);
}

TEST(Pfs, CountersTrackOperations) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(100);
    co_await f->write(100);
    co_await f->seek(0);
    co_await f->read(50);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(fx.fs.counters().opens, 1u);
  EXPECT_EQ(fx.fs.counters().writes, 2u);
  EXPECT_EQ(fx.fs.counters().reads, 1u);
  EXPECT_EQ(fx.fs.counters().seeks, 1u);
  EXPECT_EQ(fx.fs.counters().closes, 1u);
  EXPECT_EQ(fx.fs.counters().bytes_written, 200u);
  EXPECT_EQ(fx.fs.counters().bytes_read, 50u);
}

TEST(Pfs, LargeRequestEngagesAllIons) {
  Fixture fx(4, 2);
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(4 * 64 * 1024);  // 4 stripes over 2 IONs
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(fx.machine.ion_array(0).stats().requests, 1u);
  EXPECT_EQ(fx.machine.ion_array(1).stats().requests, 1u);
  EXPECT_EQ(fx.machine.ion_array(0).stats().bytes, 2u * 64 * 1024);
  EXPECT_EQ(fx.machine.ion_array(1).stats().bytes, 2u * 64 * 1024);
}

TEST(Pfs, StripedTransferFasterThanSingleIon) {
  // The same volume through 4 IONs must beat 1 ION: bandwidth via
  // parallelism, the core PFS performance premise.
  auto run = [](std::size_t ions) {
    Fixture fx(2, ions);
    auto proc = [&]() -> sim::Task<> {
      auto f = co_await fx.fs.open(0, "/f", create_unix());
      co_await f->write(8 * 1024 * 1024);
      co_await f->close();
    };
    fx.engine.spawn(proc());
    return fx.engine.run();
  };
  EXPECT_LT(run(4), run(1));
}

// ---- M_LOG ----

TEST(PfsLog, SharedPointerSerializesOffsets) {
  Fixture fx;
  auto proc = [&](io::NodeId node) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kLog;
    o.create = true;
    auto f = co_await fx.fs.open(node, "/log", o);
    co_await f->write(100);
    co_await f->close();
  };
  fx.engine.spawn(proc(0));
  fx.engine.spawn(proc(1));
  fx.engine.spawn(proc(2));
  fx.engine.run();
  // Three appends of 100 bytes: no overlap, file is exactly 300.
  EXPECT_EQ(fx.fs.file_size("/log"), 300u);
}

TEST(PfsLog, SeekThrows) {
  Fixture fx;
  bool threw = false;
  auto proc = [&]() -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kLog;
    o.create = true;
    auto f = co_await fx.fs.open(0, "/log", o);
    try {
      co_await f->seek(0);
    } catch (const std::logic_error&) {
      threw = true;
    }
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_TRUE(threw);
}

// ---- M_SYNC ----

TEST(PfsSync, AccessesProceedInNodeOrder) {
  Fixture fx;
  std::vector<std::uint32_t> completion_order;
  auto proc = [&](io::NodeId node, std::uint32_t rank,
                  double think) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kSync;
    o.create = true;
    o.parties = 3;
    o.rank = rank;
    auto f = co_await fx.fs.open(node, "/sync", o);
    co_await fx.engine.delay(think);  // arrive out of order
    co_await f->write(10);
    completion_order.push_back(rank);
    co_await f->close();
  };
  // Rank 2 is ready first, rank 0 last — but writes must complete 0,1,2.
  fx.engine.spawn(proc(0, 0, 3.0));
  fx.engine.spawn(proc(1, 1, 2.0));
  fx.engine.spawn(proc(2, 2, 1.0));
  fx.engine.run();
  EXPECT_EQ(completion_order, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(fx.fs.file_size("/sync"), 30u);
}

TEST(PfsSync, MultipleRounds) {
  Fixture fx;
  std::vector<std::uint32_t> order;
  auto proc = [&](io::NodeId node, std::uint32_t rank) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kSync;
    o.create = true;
    o.parties = 2;
    o.rank = rank;
    auto f = co_await fx.fs.open(node, "/sync", o);
    for (int round = 0; round < 3; ++round) {
      co_await f->write(5);
      order.push_back(rank);
    }
    co_await f->close();
  };
  fx.engine.spawn(proc(0, 0));
  fx.engine.spawn(proc(1, 1));
  fx.engine.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(fx.fs.file_size("/sync"), 30u);
}

// ---- M_RECORD ----

TEST(PfsRecord, LayoutIsGroupsOfNRecordsInNodeOrder) {
  Fixture fx;
  // Track per-write offsets via tell() before each write.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> placements;
  auto proc = [&](io::NodeId node, std::uint32_t rank) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kRecord;
    o.create = true;
    o.parties = 3;
    o.rank = rank;
    o.record_size = 100;
    auto f = co_await fx.fs.open(node, "/rec", o);
    for (int k = 0; k < 2; ++k) {
      placements.emplace_back(rank, f->tell());
      co_await f->write(100);
    }
    co_await f->close();
  };
  for (std::uint32_t r = 0; r < 3; ++r) fx.engine.spawn(proc(r, r));
  fx.engine.run();
  // Node r's k-th record sits at (k*3 + r) * 100.
  for (const auto& [rank, offset] : placements) {
    const std::uint64_t record = offset / 100;
    EXPECT_EQ(record % 3, rank);
  }
  EXPECT_EQ(fx.fs.file_size("/rec"), 600u);
}

TEST(PfsRecord, WrongSizeThrows) {
  Fixture fx;
  bool threw = false;
  auto proc = [&]() -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kRecord;
    o.create = true;
    o.parties = 1;
    o.record_size = 100;
    auto f = co_await fx.fs.open(0, "/rec", o);
    try {
      co_await f->write(99);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_TRUE(threw);
}

TEST(PfsRecord, OpenWithoutRecordSizeThrows) {
  Fixture fx;
  bool threw = false;
  auto proc = [&]() -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kRecord;
    o.create = true;
    o.parties = 1;
    try {
      (void)co_await fx.fs.open(0, "/rec", o);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_TRUE(threw);
}

TEST(PfsRecord, ReadBackSameNodeGetsOwnRecords) {
  Fixture fx;
  std::vector<std::uint64_t> read_offsets;
  auto proc = [&]() -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kRecord;
    o.create = true;
    o.parties = 2;
    o.rank = 1;
    o.record_size = 50;
    auto f = co_await fx.fs.open(0, "/rec", o);
    co_await f->write(50);  // record 1
    co_await f->write(50);  // record 3
    co_await f->close();
    // Reopen to reset the per-handle record counter.
    auto g = co_await fx.fs.open(0, "/rec", o);
    read_offsets.push_back(g->tell());
    (void)co_await g->read(50);
    read_offsets.push_back(g->tell());
    co_await g->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(read_offsets, (std::vector<std::uint64_t>{50, 150}));
}

// ---- M_GLOBAL ----

TEST(PfsGlobal, OnePhysicalAccessServesAllParties) {
  Fixture fx;
  std::vector<std::uint64_t> results;
  auto writer = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/g", create_unix());
    co_await f->write(64 * 1024);
    co_await f->close();
  };
  auto reader = [&](io::NodeId node, std::uint32_t rank) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kGlobal;
    o.parties = 3;
    o.rank = rank;
    auto f = co_await fx.fs.open(node, "/g", o);
    results.push_back(co_await f->read(64 * 1024));
    co_await f->close();
  };
  auto driver = [&]() -> sim::Task<> {
    co_await writer();
    fx.engine.spawn(reader(0, 0));
    fx.engine.spawn(reader(1, 1));
    fx.engine.spawn(reader(2, 2));
  };
  fx.engine.spawn(driver());
  fx.engine.run();
  ASSERT_EQ(results.size(), 3u);
  for (auto r : results) EXPECT_EQ(r, 64u * 1024);
  // Exactly 2 physical reads would be wrong; 1 write + 1 read total.
  EXPECT_EQ(fx.fs.counters().reads, 1u);
}

// ---- async ----

TEST(PfsAsync, IssueReturnsQuicklyWaitCompletesTransfer) {
  Fixture fx;
  double issue_elapsed = -1, wait_elapsed = -1;
  std::uint64_t transferred = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/a", create_unix());
    co_await f->write(4 * 1024 * 1024);
    co_await f->seek(0);
    const double t0 = fx.engine.now();
    io::AsyncOp op = co_await f->read_async(4 * 1024 * 1024);
    issue_elapsed = fx.engine.now() - t0;
    const double t1 = fx.engine.now();
    transferred = co_await op.wait();
    wait_elapsed = fx.engine.now() - t1;
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(transferred, 4u * 1024 * 1024);
  EXPECT_NEAR(issue_elapsed, fx.fs.params().async_issue, 1e-9);
  EXPECT_GT(wait_elapsed, issue_elapsed);
}

TEST(PfsAsync, PointerAdvancesAtIssue) {
  Fixture fx;
  std::uint64_t tell_after_issue = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/a", create_unix());
    co_await f->write(1000);
    co_await f->seek(0);
    io::AsyncOp op = co_await f->read_async(600);
    tell_after_issue = f->tell();
    (void)co_await op.wait();
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(tell_after_issue, 600u);
}

TEST(PfsAsync, OverlapsWithComputation) {
  // Issue + compute + wait should take ~max(compute, transfer), not the sum.
  Fixture fx;
  auto run = [&](bool overlap) {
    Fixture local;
    auto proc = [&](Fixture& f9, bool ovl) -> sim::Task<> {
      auto f = co_await f9.fs.open(0, "/a", create_unix());
      co_await f->write(8 * 1024 * 1024);
      co_await f->seek(0);
      if (ovl) {
        io::AsyncOp op = co_await f->read_async(8 * 1024 * 1024);
        co_await f9.engine.delay(2.0);  // overlapped compute
        (void)co_await op.wait();
      } else {
        (void)co_await f->read(8 * 1024 * 1024);
        co_await f9.engine.delay(2.0);
      }
      co_await f->close();
    };
    local.engine.spawn(proc(local, overlap));
    return local.engine.run();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(PfsAsync, CollectiveModeThrows) {
  Fixture fx;
  bool threw = false;
  auto proc = [&]() -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kLog;
    o.create = true;
    auto f = co_await fx.fs.open(0, "/x", o);
    try {
      (void)co_await f->read_async(10);
    } catch (const std::logic_error&) {
      threw = true;
    }
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_TRUE(threw);
}

// ---- mode conflicts ----

TEST(Pfs, ConcurrentConflictingModesThrow) {
  Fixture fx;
  bool threw = false;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    OpenOptions o;
    o.mode = AccessMode::kLog;
    try {
      (void)co_await fx.fs.open(1, "/f", o);
    } catch (const std::logic_error&) {
      threw = true;
    }
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_TRUE(threw);
}

TEST(Pfs, ReopenInDifferentModeAfterCloseIsAllowed) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(200);
    co_await f->close();
    OpenOptions o;
    o.mode = AccessMode::kRecord;
    o.parties = 2;
    o.rank = 0;
    o.record_size = 100;
    auto g = co_await fx.fs.open(0, "/f", o);
    EXPECT_EQ(co_await g->read(100), 100u);
    co_await g->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
}

}  // namespace
}  // namespace paraio::pfs

namespace paraio::pfs {
namespace {

// Property: bytes written through PFS equal bytes arriving at the arrays,
// for arbitrary (offset, size) shapes — nothing lost or duplicated by the
// striping decomposition.
struct ConservationCase {
  std::uint64_t offset;
  std::uint64_t size;
};

class PfsConservationProperty
    : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(PfsConservationProperty, WrittenBytesReachArraysExactly) {
  const auto& c = GetParam();
  Fixture fx(4, 3);
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/cons", create_unix());
    co_await f->seek(c.offset);
    co_await f->write(c.size);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  std::uint64_t ion_bytes = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    ion_bytes += fx.machine.ion_array(i).stats().bytes;
  }
  EXPECT_EQ(ion_bytes, c.size);
  EXPECT_EQ(fx.fs.file_size("/cons"), c.offset + c.size);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PfsConservationProperty,
    ::testing::Values(ConservationCase{0, 1}, ConservationCase{0, 64 * 1024},
                      ConservationCase{1, 64 * 1024},
                      ConservationCase{65535, 2},
                      ConservationCase{7 * 64 * 1024 + 13, 500'000},
                      ConservationCase{1 << 20, 3 * 1024 * 1024}));

}  // namespace
}  // namespace paraio::pfs

namespace paraio::pfs {
namespace {

TEST(PfsAsync, WriteAsyncIssueAndWait) {
  Fixture fx;
  std::uint64_t n = 0;
  double issue = -1;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/aw", create_unix());
    const double t0 = fx.engine.now();
    io::AsyncOp op = co_await f->write_async(2 * 1024 * 1024);
    issue = fx.engine.now() - t0;
    n = co_await f->iowait(std::move(op));
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(n, 2u * 1024 * 1024);
  EXPECT_NEAR(issue, fx.fs.params().async_issue, 1e-9);
  EXPECT_EQ(fx.fs.file_size("/aw"), 2u * 1024 * 1024);
}

TEST(PfsSync, ReadsAlsoFollowNodeOrder) {
  Fixture fx;
  std::vector<std::uint32_t> order;
  auto writer = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/sr", create_unix());
    co_await f->write(300);
    co_await f->close();
  };
  auto reader = [&](io::NodeId node, std::uint32_t rank) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kSync;
    o.parties = 3;
    o.rank = rank;
    auto f = co_await fx.fs.open(node, "/sr", o);
    // Reverse arrival order; completion must still be 0,1,2.
    co_await fx.engine.delay(3.0 - rank);
    (void)co_await f->read(100);
    order.push_back(rank);
    co_await f->close();
  };
  auto driver = [&]() -> sim::Task<> {
    co_await writer();
    fx.engine.spawn(reader(0, 0));
    fx.engine.spawn(reader(1, 1));
    fx.engine.spawn(reader(2, 2));
  };
  fx.engine.spawn(driver());
  fx.engine.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace paraio::pfs
