#include "ppfs/ppfs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "hw/machine.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace paraio::ppfs {
namespace {

using io::AccessMode;
using io::OpenOptions;

struct Fixture {
  explicit Fixture(PpfsParams params = {}, std::size_t compute = 4,
                   std::size_t ions = 2)
      : machine(engine, hw::MachineConfig::paragon_xps(compute, ions)),
        fs(machine, params) {}
  sim::Engine engine;
  hw::Machine machine;
  Ppfs fs;
};

OpenOptions create_unix() {
  OpenOptions o;
  o.mode = AccessMode::kUnix;
  o.create = true;
  return o;
}

// block_size is PPFS's stripe unit; a zero one, or a machine without I/O
// nodes, is refused before any file opens.
TEST(Ppfs, RejectsZeroBlockSize) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 2));
  PpfsParams params;
  params.block_size = 0;
  EXPECT_THROW(Ppfs(machine, params), std::invalid_argument);
}

TEST(Ppfs, RejectsMachineWithoutIoNodes) {
  sim::Engine engine;
  hw::Machine machine(engine, hw::MachineConfig::paragon_xps(4, 0));
  EXPECT_THROW(Ppfs{machine}, std::invalid_argument);
}

TEST(Ppfs, WriteReadRoundTripThroughBufferAndCache) {
  Fixture fx;
  std::uint64_t n = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(100'000);
    co_await f->seek(0);
    n = co_await f->read(100'000);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(n, 100'000u);
}

TEST(Ppfs, SeekIsFree) {
  Fixture fx;
  double seek_cost = -1;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    const double t0 = fx.engine.now();
    for (int i = 0; i < 100; ++i) co_await f->seek(i * 1000ULL);
    seek_cost = fx.engine.now() - t0;
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_DOUBLE_EQ(seek_cost, 0.0);
}

TEST(Ppfs, WriteBehindDefersPhysicalWrites) {
  PpfsParams p;
  p.write_buffer_limit = 1 << 30;  // never hit the watermark
  Fixture fx(p);
  std::uint64_t ion_bytes_before_close = 1;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    for (int i = 0; i < 50; ++i) co_await f->write(2048);
    ion_bytes_before_close =
        fx.fs.ion_stats(0).bytes + fx.fs.ion_stats(1).bytes;
    co_await f->close();  // flush happens here
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(ion_bytes_before_close, 0u);
  EXPECT_EQ(fx.fs.ion_stats(0).bytes + fx.fs.ion_stats(1).bytes,
            50u * 2048u);
  EXPECT_EQ(fx.fs.counters().flushes, 1u);
  EXPECT_EQ(fx.fs.counters().flush_extents, 1u);  // coalesced to one extent
}

TEST(Ppfs, WatermarkTriggersFlush) {
  PpfsParams p;
  p.write_buffer_limit = 10 * 2048;
  Fixture fx(p);
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    for (int i = 0; i < 25; ++i) co_await f->write(2048);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  // 25 writes with a 10-write watermark: flushes at 10, 20, and close.
  EXPECT_EQ(fx.fs.counters().flushes, 3u);
}

TEST(Ppfs, ReadFromOwnWriteBufferIsLocal) {
  PpfsParams p;
  p.write_buffer_limit = 1 << 30;
  Fixture fx(p);
  std::uint64_t n = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(5000);
    co_await f->seek(1000);
    n = co_await f->read(2000);  // entirely inside the dirty buffer
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(n, 2000u);
  // The read never reached an I/O node (flush happened only at close).
  EXPECT_EQ(fx.fs.counters().reads, 1u);
}

TEST(Ppfs, SizeSeesBufferedData) {
  PpfsParams p;
  p.write_buffer_limit = 1 << 30;
  Fixture fx(p);
  std::uint64_t sz = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(7777);
    sz = co_await f->size();
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(sz, 7777u);
}

TEST(Ppfs, CacheHitsOnRereads) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(64 * 1024);
    co_await f->flush();
    for (int pass = 0; pass < 3; ++pass) {
      co_await f->seek(0);
      (void)co_await f->read(64 * 1024);
    }
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  const auto& stats = fx.fs.node_cache(0).stats();
  EXPECT_GE(stats.hits, 2u);  // second and third passes hit
  EXPECT_EQ(stats.misses, 1u);
}

TEST(Ppfs, CachedRereadFasterThanFirstRead) {
  Fixture fx;
  double first = 0, second = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(256 * 1024);
    co_await f->flush();
    co_await f->seek(0);
    double t0 = fx.engine.now();
    (void)co_await f->read(256 * 1024);
    first = fx.engine.now() - t0;
    co_await f->seek(0);
    t0 = fx.engine.now();
    (void)co_await f->read(256 * 1024);
    second = fx.engine.now() - t0;
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_LT(second, first / 5.0);
}

TEST(Ppfs, WriteInvalidatesCachedBlocks) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(64 * 1024);
    co_await f->flush();
    co_await f->seek(0);
    (void)co_await f->read(64 * 1024);  // populate cache
    co_await f->seek(0);
    co_await f->write(64 * 1024);  // must invalidate block 0
    co_await f->flush();
    EXPECT_FALSE(fx.fs.node_cache(0).contains({f->id(), 0}));
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
}

TEST(Ppfs, AggregationMergesSmallWritesIntoFewDiskAccesses) {
  // Many 2 KB writes into one contiguous region, flushed at close.  With
  // aggregation the ION sees ~1 disk access per touched ION.
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    for (int i = 0; i < 64; ++i) co_await f->write(2048);  // 128 KB total
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  const std::uint64_t accesses =
      fx.fs.ion_stats(0).disk_accesses + fx.fs.ion_stats(1).disk_accesses;
  EXPECT_LE(accesses, 2u);  // one per ION (64 KB striping over 2 IONs)
}

TEST(Ppfs, IonAggregationCombinesConcurrentClients) {
  // Multiple nodes writing disjoint regions without write-behind: requests
  // pile up at the ION while the array is busy and are merged.
  PpfsParams p;
  p.write_behind = false;
  p.cache_blocks = 0;
  Fixture fx(p, 8, 1);
  auto proc = [&](io::NodeId node) -> sim::Task<> {
    OpenOptions o = create_unix();
    auto f = co_await fx.fs.open(node, "/shared", o);
    co_await f->seek(node * 2048ULL);
    co_await f->write(2048);
    co_await f->close();
  };
  for (io::NodeId n = 0; n < 8; ++n) fx.engine.spawn(proc(n));
  fx.engine.run();
  const auto& stats = fx.fs.ion_stats(0);
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_LT(stats.disk_accesses, 8u);  // some batching happened
  EXPECT_GT(stats.aggregation_factor(), 1.0);
}

TEST(Ppfs, SequentialPrefetchImprovesReadTime) {
  auto run = [](PrefetchPolicy policy) {
    PpfsParams p;
    p.prefetch = policy;
    p.prefetch_depth = 4;
    p.cache_blocks = 256;
    Fixture fx(p);
    double elapsed = 0;
    auto proc = [&]() -> sim::Task<> {
      auto f = co_await fx.fs.open(0, "/f", create_unix());
      co_await f->write(2 * 1024 * 1024);
      co_await f->close();
      auto g = co_await fx.fs.open(0, "/f", OpenOptions{});
      const double t0 = fx.engine.now();
      for (int i = 0; i < 32; ++i) {
        (void)co_await g->read(64 * 1024);
        co_await fx.engine.delay(0.050);  // compute between reads
      }
      elapsed = fx.engine.now() - t0;
      co_await g->close();
    };
    fx.engine.spawn(proc());
    fx.engine.run();
    return elapsed;
  };
  EXPECT_LT(run(PrefetchPolicy::kSequential), run(PrefetchPolicy::kNone));
}

TEST(Ppfs, AdaptivePrefetchLearnsStride) {
  PpfsParams p;
  p.prefetch = PrefetchPolicy::kAdaptive;
  p.cache_blocks = 256;
  Fixture fx(p);
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(4 * 1024 * 1024);
    co_await f->close();
    auto g = co_await fx.fs.open(0, "/f", OpenOptions{});
    // Strided reads: 4 KB every 128 KB, with enough compute between reads
    // for the speculative fetch to land.
    for (int i = 0; i < 20; ++i) {
      co_await g->seek(i * 128 * 1024ULL);
      (void)co_await g->read(4096);
      co_await fx.engine.delay(0.200);
    }
    co_await g->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_GT(fx.fs.counters().prefetch_issued, 0u);
  EXPECT_GT(fx.fs.node_cache(0).stats().prefetched_used, 0u);
}

TEST(Ppfs, AdaptivePrefetchStaysQuietOnRandomReads) {
  PpfsParams p;
  p.prefetch = PrefetchPolicy::kAdaptive;
  p.cache_blocks = 256;
  Fixture fx(p);
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(4 * 1024 * 1024);
    co_await f->close();
    auto g = co_await fx.fs.open(0, "/f", OpenOptions{});
    sim::Rng rng(3);
    for (int i = 0; i < 20; ++i) {
      co_await g->seek(rng.uniform_int(0, 60) * 64 * 1024ULL);
      (void)co_await g->read(4096);
    }
    co_await g->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  // The classifier should refuse to commit; near-zero speculative fetches.
  EXPECT_LE(fx.fs.counters().prefetch_issued, 2u);
}

TEST(Ppfs, SharedPointerModesRejected) {
  Fixture fx;
  int rejected = 0;
  auto proc = [&]() -> sim::Task<> {
    for (AccessMode mode :
         {AccessMode::kLog, AccessMode::kSync, AccessMode::kGlobal}) {
      OpenOptions o;
      o.mode = mode;
      o.create = true;
      o.parties = 2;
      try {
        (void)co_await fx.fs.open(0, "/x", o);
      } catch (const std::logic_error&) {
        ++rejected;
      }
    }
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(rejected, 3);
}

TEST(Ppfs, RecordModeOffsets) {
  Fixture fx;
  std::vector<std::uint64_t> offsets;
  auto proc = [&](io::NodeId node, std::uint32_t rank) -> sim::Task<> {
    OpenOptions o;
    o.mode = AccessMode::kRecord;
    o.create = true;
    o.parties = 2;
    o.rank = rank;
    o.record_size = 1000;
    auto f = co_await fx.fs.open(node, "/rec", o);
    offsets.push_back(f->tell());
    co_await f->write(1000);
    offsets.push_back(f->tell());
    co_await f->close();
  };
  auto driver = [&]() -> sim::Task<> {
    co_await proc(0, 0);
    co_await proc(1, 1);
  };
  fx.engine.spawn(driver());
  fx.engine.run();
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 2000, 1000, 3000}));
}

TEST(Ppfs, CountersTrackLogicalOps) {
  Fixture fx;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(100);
    co_await f->write(100);
    co_await f->seek(0);
    (void)co_await f->read(150);
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(fx.fs.counters().writes, 2u);
  EXPECT_EQ(fx.fs.counters().reads, 1u);
  EXPECT_EQ(fx.fs.counters().bytes_written, 200u);
  EXPECT_EQ(fx.fs.counters().bytes_read, 150u);
}

TEST(Ppfs, UncachedReadClipsAtServerSideSize) {
  // 100 bytes reach the I/O nodes, then [200, 300) sits in the write
  // buffer.  A read of [50, 150) is inside the client-visible size but
  // only [50, 100) was ever written to disk, so only 50 bytes are read.
  PpfsParams p;
  p.cache_blocks = 0;
  p.write_buffer_limit = 1 << 30;
  Fixture fx(p);
  std::uint64_t n = 0;
  std::uint64_t disk_read = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(100);
    co_await f->flush();
    co_await f->seek(200);
    co_await f->write(100);
    co_await f->seek(50);
    n = co_await f->read(100);
    disk_read = fx.fs.counters().disk_bytes_read;
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(n, 100u);  // the application sees the client-visible size
  EXPECT_EQ(disk_read, 50u);
  const PpfsCounters& c = fx.fs.counters();
  EXPECT_EQ(c.disk_bytes_written, 200u);
  EXPECT_EQ(c.bytes_buffered, 200u);
  EXPECT_EQ(c.flush_bytes.sum(), c.bytes_buffered);
}

TEST(Ppfs, AsyncReadOverlaps) {
  Fixture fx;
  std::uint64_t n = 0;
  auto proc = [&]() -> sim::Task<> {
    auto f = co_await fx.fs.open(0, "/f", create_unix());
    co_await f->write(1024 * 1024);
    co_await f->flush();
    co_await f->seek(0);
    io::AsyncOp op = co_await f->read_async(1024 * 1024);
    co_await fx.engine.delay(1.0);
    n = co_await f->iowait(std::move(op));
    co_await f->close();
  };
  fx.engine.spawn(proc());
  fx.engine.run();
  EXPECT_EQ(n, 1024u * 1024);
}

}  // namespace
}  // namespace paraio::ppfs
