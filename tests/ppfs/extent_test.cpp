#include "ppfs/extent.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.hpp"

namespace paraio::ppfs {
namespace {

TEST(ExtentSet, StartsEmpty) {
  ExtentSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_bytes(), 0u);
  EXPECT_EQ(s.max_end(), 0u);
}

TEST(ExtentSet, SingleInsert) {
  ExtentSet s;
  s.insert(100, 50);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.total_bytes(), 50u);
  EXPECT_EQ(s.max_end(), 150u);
  EXPECT_EQ(s.extents(), (std::vector<Extent>{{100, 50}}));
}

TEST(ExtentSet, ZeroLengthIgnored) {
  ExtentSet s;
  s.insert(100, 0);
  EXPECT_TRUE(s.empty());
}

TEST(ExtentSet, AdjacentExtentsMerge) {
  ExtentSet s;
  s.insert(0, 100);
  s.insert(100, 100);  // exactly adjacent
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.extents(), (std::vector<Extent>{{0, 200}}));
}

TEST(ExtentSet, SequentialSmallWritesCollapse) {
  // ESCAT's pattern: 2 KB appends into a node's region.
  ExtentSet s;
  for (int i = 0; i < 100; ++i) s.insert(i * 2048ULL, 2048);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.total_bytes(), 100u * 2048);
}

TEST(ExtentSet, DisjointExtentsStaySeparate) {
  ExtentSet s;
  s.insert(0, 10);
  s.insert(100, 10);
  s.insert(50, 10);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.extents(),
            (std::vector<Extent>{{0, 10}, {50, 10}, {100, 10}}));
}

TEST(ExtentSet, OverlapMergesAndCountsBytesOnce) {
  ExtentSet s;
  s.insert(0, 100);
  s.insert(50, 100);  // overlaps [50,100)
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.total_bytes(), 150u);
}

TEST(ExtentSet, InsertBridgingTwoExtents) {
  ExtentSet s;
  s.insert(0, 10);
  s.insert(20, 10);
  s.insert(5, 20);  // bridges both
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.extents(), (std::vector<Extent>{{0, 30}}));
}

TEST(ExtentSet, InsertSwallowingManyExtents) {
  ExtentSet s;
  for (int i = 0; i < 10; ++i) s.insert(i * 100ULL, 10);
  s.insert(0, 2000);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.total_bytes(), 2000u);
}

TEST(ExtentSet, ContainedInsertIsNoop) {
  ExtentSet s;
  s.insert(0, 1000);
  s.insert(200, 100);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.total_bytes(), 1000u);
}

TEST(ExtentSet, OverlapsQuery) {
  ExtentSet s;
  s.insert(100, 100);
  EXPECT_TRUE(s.overlaps(150, 10));
  EXPECT_TRUE(s.overlaps(50, 60));    // touches the first byte
  EXPECT_TRUE(s.overlaps(199, 100));  // touches the last byte
  EXPECT_FALSE(s.overlaps(0, 100));   // ends exactly at 100 (exclusive)
  EXPECT_FALSE(s.overlaps(200, 50));  // starts exactly at the end
  EXPECT_FALSE(s.overlaps(150, 0));
}

TEST(ExtentSet, CoversQuery) {
  ExtentSet s;
  s.insert(100, 100);
  EXPECT_TRUE(s.covers(100, 100));
  EXPECT_TRUE(s.covers(150, 50));
  EXPECT_FALSE(s.covers(150, 51));
  EXPECT_FALSE(s.covers(99, 2));
  EXPECT_TRUE(s.covers(0, 0));  // empty range is trivially covered
}

TEST(ExtentSet, CoversAcrossUnmergedGapIsFalse) {
  ExtentSet s;
  s.insert(0, 10);
  s.insert(20, 10);
  EXPECT_FALSE(s.covers(0, 30));
}

TEST(ExtentSet, ClearResets) {
  ExtentSet s;
  s.insert(0, 100);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.total_bytes(), 0u);
}

// Property: random inserts — total_bytes equals brute-force bitmap count and
// extents are sorted, disjoint, non-adjacent.
class ExtentFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentFuzzProperty, MatchesBitmapModel) {
  sim::Rng rng(GetParam());
  ExtentSet s;
  std::vector<bool> bitmap(4096, false);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t off = rng.uniform_int(0, 4000);
    const std::uint64_t len = rng.uniform_int(1, 95);
    s.insert(off, len);
    for (std::uint64_t b = off; b < off + len; ++b) bitmap[b] = true;
  }
  std::uint64_t expected = 0;
  for (bool b : bitmap) expected += b ? 1 : 0;
  EXPECT_EQ(s.total_bytes(), expected);
  const auto extents = s.extents();
  for (std::size_t i = 1; i < extents.size(); ++i) {
    EXPECT_GT(extents[i].offset, extents[i - 1].end())
        << "extents must be disjoint and non-adjacent";
  }
  for (const auto& e : extents) {
    for (std::uint64_t b = e.offset; b < e.end(); ++b) {
      EXPECT_TRUE(bitmap[b]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentFuzzProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

// Property: every query agrees with a byte-set model after every insert.
// The inserts are drawn to hit the merge cases: zero lengths, adjacency on
// either side of an extent, spans that swallow several extents, and exact
// duplicates.
class ExtentModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentModelProperty, QueriesMatchByteSetAfterEveryInsert) {
  constexpr std::uint64_t kDomain = 1024;
  sim::Rng rng(GetParam());
  ExtentSet s;
  std::vector<bool> bytes(kDomain, false);
  // Maximal runs of set bytes: the extents the set must hold.
  auto model_extents = [&bytes] {
    std::vector<Extent> out;
    for (std::uint64_t b = 0; b < bytes.size(); ++b) {
      if (!bytes[b]) continue;
      if (!out.empty() && out.back().end() == b) {
        ++out.back().length;
      } else {
        out.push_back({b, 1});
      }
    }
    return out;
  };
  auto model_covers = [&bytes](std::uint64_t off, std::uint64_t len) {
    for (std::uint64_t b = off; b < off + len; ++b) {
      if (!bytes[b]) return false;
    }
    return true;
  };
  auto model_overlaps = [&bytes](std::uint64_t off, std::uint64_t len) {
    for (std::uint64_t b = off; b < off + len; ++b) {
      if (bytes[b]) return true;
    }
    return false;
  };

  for (int step = 0; step < 300; ++step) {
    const std::vector<Extent> before = model_extents();
    std::uint64_t off = rng.uniform_int(0, kDomain - 65);
    std::uint64_t len = rng.uniform_int(0, 64);
    if (!before.empty()) {
      const Extent& e = before[rng.uniform_int(0, before.size() - 1)];
      switch (rng.uniform_int(0, 4)) {
        case 0:  // adjacent after
          off = e.end();
          len = std::min(len, kDomain - off);
          break;
        case 1:  // adjacent before
          len = std::min(len, e.offset);
          off = e.offset - len;
          break;
        case 2: {  // swallow e and every extent up to a later one
          const Extent& last = before[rng.uniform_int(
              static_cast<std::uint64_t>(&e - before.data()),
              before.size() - 1)];
          off = e.offset - std::min<std::uint64_t>(e.offset, len % 3);
          len = std::min(last.end() + len % 3, kDomain) - off;
          break;
        }
        case 3:  // exact duplicate
          off = e.offset;
          len = e.length;
          break;
        default:  // anywhere, zero length included
          break;
      }
    }
    s.insert(off, len);
    for (std::uint64_t b = off; b < off + len; ++b) bytes[b] = true;

    const std::vector<Extent> want = model_extents();
    std::uint64_t total = 0;
    for (const Extent& e : want) total += e.length;
    ASSERT_EQ(s.extents(), want) << "step " << step;
    ASSERT_EQ(s.count(), want.size());
    ASSERT_EQ(s.empty(), want.empty());
    ASSERT_EQ(s.total_bytes(), total);
    ASSERT_EQ(s.max_end(), want.empty() ? std::uint64_t{0} : want.back().end());
    for (int q = 0; q < 16; ++q) {
      const std::uint64_t qoff = rng.uniform_int(0, kDomain - 33);
      const std::uint64_t qlen = rng.uniform_int(0, 32);
      ASSERT_EQ(s.overlaps(qoff, qlen), model_overlaps(qoff, qlen))
          << "step " << step << " overlaps(" << qoff << ", " << qlen << ")";
      ASSERT_EQ(s.covers(qoff, qlen), model_covers(qoff, qlen))
          << "step " << step << " covers(" << qoff << ", " << qlen << ")";
    }
    // Queries on the extent boundaries themselves, where off-by-ones live.
    for (const Extent& e : want) {
      ASSERT_TRUE(s.covers(e.offset, e.length));
      ASSERT_FALSE(s.covers(e.offset, e.length + 1));
      ASSERT_FALSE(s.overlaps(e.end(), 1));
      ASSERT_TRUE(s.overlaps(e.end() - 1, 1));
      if (e.offset > 0) {
        ASSERT_FALSE(s.covers(e.offset - 1, 1));
        ASSERT_FALSE(s.overlaps(e.offset - 1, 1));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentModelProperty,
                         ::testing::Values(1u, 7u, 99u, 2024u));

}  // namespace
}  // namespace paraio::ppfs
