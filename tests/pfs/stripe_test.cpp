#include "pfs/stripe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "sim/random.hpp"

namespace paraio::pfs {
namespace {

StripeParams params(std::uint64_t unit, std::uint32_t ions) {
  StripeParams p;
  p.unit = unit;
  p.io_nodes = ions;
  return p;
}

// Each bad field throws in every build type: a zero unit or I/O-node count
// would otherwise divide by zero on the first decomposition.
TEST(StripeMap, RejectsZeroUnit) {
  EXPECT_THROW(StripeMap(params(0, 4)), std::invalid_argument);
}

TEST(StripeMap, RejectsZeroIoNodes) {
  EXPECT_THROW(StripeMap(params(1024, 0)), std::invalid_argument);
}

TEST(StripeMap, RejectsFirstIonOutsideTheStripeSet) {
  StripeParams p = params(1024, 4);
  p.first_ion = 4;
  EXPECT_THROW(StripeMap{p}, std::invalid_argument);
  p.first_ion = 3;
  EXPECT_NO_THROW(StripeMap{p});
}

TEST(StripeMap, IonRoundRobin) {
  StripeMap map(params(64 * 1024, 4));
  EXPECT_EQ(map.ion_of(0), 0u);
  EXPECT_EQ(map.ion_of(64 * 1024 - 1), 0u);
  EXPECT_EQ(map.ion_of(64 * 1024), 1u);
  EXPECT_EQ(map.ion_of(3 * 64 * 1024), 3u);
  EXPECT_EQ(map.ion_of(4 * 64 * 1024), 0u);  // wraps
}

TEST(StripeMap, FirstIonOffsetsTheCycle) {
  StripeParams p = params(1024, 4);
  p.first_ion = 2;
  StripeMap map(p);
  EXPECT_EQ(map.ion_of(0), 2u);
  EXPECT_EQ(map.ion_of(1024), 3u);
  EXPECT_EQ(map.ion_of(2048), 0u);
}

TEST(StripeMap, LocalOffsetsAreCompact) {
  StripeMap map(params(1024, 4));
  // Stripe 0 on ION 0 -> local 0; stripe 4 (same ION) -> local 1024.
  EXPECT_EQ(map.local_offset_of(0), 0u);
  EXPECT_EQ(map.local_offset_of(500), 500u);
  EXPECT_EQ(map.local_offset_of(4 * 1024), 1024u);
  EXPECT_EQ(map.local_offset_of(4 * 1024 + 7), 1024u + 7u);
  // Stripe 1 on ION 1 -> local 0 there.
  EXPECT_EQ(map.local_offset_of(1024), 0u);
}

TEST(StripeMap, DecomposeWithinOneStripe) {
  StripeMap map(params(1024, 4));
  auto segs = map.decompose(100, 200);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], (Segment{0, 100, 200}));
}

TEST(StripeMap, DecomposeAcrossTwoIons) {
  StripeMap map(params(1024, 4));
  auto segs = map.decompose(1000, 100);  // 24 bytes on ION0, 76 on ION1
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 1000, 24}));
  EXPECT_EQ(segs[1], (Segment{1, 0, 76}));
}

TEST(StripeMap, DecomposeEmptyRequest) {
  StripeMap map(params(1024, 4));
  EXPECT_TRUE(map.decompose(512, 0).empty());
}

TEST(StripeMap, WrapAroundMergesLocalExtents) {
  StripeMap map(params(1024, 2));
  // 4 stripes: IONs 0,1,0,1.  ION0 gets stripes 0 and 2, locally contiguous.
  auto segs = map.decompose(0, 4 * 1024);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], (Segment{0, 0, 2048}));
  EXPECT_EQ(segs[1], (Segment{1, 0, 2048}));
}

TEST(StripeMap, SegmentsOrderedByFirstTouch) {
  StripeMap map(params(1024, 4));
  auto segs = map.decompose(2 * 1024, 3 * 1024);  // IONs 2,3,0
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].ion, 2u);
  EXPECT_EQ(segs[1].ion, 3u);
  EXPECT_EQ(segs[2].ion, 0u);
}

/// Reference decomposition: one stripe unit at a time, straight from the
/// round-robin layout (unit k lives on ION (k + first_ion) mod n, at local
/// unit k / n), merging each ION's units into one locally contiguous
/// segment in order of first touch.
std::vector<Segment> reference_walk(const StripeParams& p,
                                    std::uint64_t offset,
                                    std::uint64_t bytes) {
  std::vector<Segment> segs;
  const std::uint64_t end = offset + bytes;
  for (std::uint64_t k = offset / p.unit; k * p.unit < end; ++k) {
    const std::uint64_t lo = std::max(offset, k * p.unit);
    const std::uint64_t hi = std::min(end, (k + 1) * p.unit);
    const auto ion =
        static_cast<std::uint32_t>((k + p.first_ion) % p.io_nodes);
    const std::uint64_t local = (k / p.io_nodes) * p.unit + (lo - k * p.unit);
    auto it = std::find_if(segs.begin(), segs.end(),
                           [&](const Segment& s) { return s.ion == ion; });
    if (it == segs.end()) {
      segs.push_back(Segment{ion, local, hi - lo});
    } else {
      EXPECT_EQ(it->local_offset + it->length, local)
          << "units of one ION must be locally contiguous";
      it->length += hi - lo;
    }
  }
  return segs;
}

TEST(StripeMap, RandomDecompositionsMatchAUnitByUnitWalk) {
  sim::Rng rng(0x5791);
  for (int i = 0; i < 2000; ++i) {
    StripeParams p;
    p.unit = rng.uniform_int(1, 64 * 1024);
    p.io_nodes = static_cast<std::uint32_t>(rng.uniform_int(1, 32));
    p.first_ion =
        static_cast<std::uint32_t>(rng.uniform_int(0, p.io_nodes - 1));
    const std::uint64_t offset = rng.uniform_int(0, p.unit * 1000);
    // Up to three full rounds of the stripe set, often unaligned.
    const std::uint64_t bytes =
        rng.uniform_int(0, 3 * p.unit * p.io_nodes + p.unit);
    const StripeMap map(p);
    const std::vector<Segment> segs = map.decompose(offset, bytes);
    SCOPED_TRACE("unit " + std::to_string(p.unit) + ", " +
                 std::to_string(p.io_nodes) + " IONs from " +
                 std::to_string(p.first_ion) + ", [" + std::to_string(offset) +
                 ", +" + std::to_string(bytes) + ")");
    std::uint64_t total = 0;
    for (const Segment& s : segs) {
      EXPECT_LT(s.ion, p.io_nodes);
      EXPECT_GT(s.length, 0u);
      total += s.length;
    }
    EXPECT_EQ(total, bytes);
    EXPECT_EQ(segs, reference_walk(p, offset, bytes));
  }
}

// Properties over a grid of units, ION counts, offsets, and lengths.
struct DecomposeCase {
  std::uint64_t unit;
  std::uint32_t ions;
  std::uint64_t offset;
  std::uint64_t length;
};

class StripeDecomposeProperty : public ::testing::TestWithParam<DecomposeCase> {};

TEST_P(StripeDecomposeProperty, LengthsSumAndIonsDisjoint) {
  const auto& c = GetParam();
  StripeMap map(params(c.unit, c.ions));
  auto segs = map.decompose(c.offset, c.length);
  std::uint64_t total = 0;
  std::vector<bool> seen(c.ions, false);
  for (const auto& s : segs) {
    EXPECT_LT(s.ion, c.ions);
    EXPECT_FALSE(seen[s.ion]) << "one segment per ION";
    seen[s.ion] = true;
    EXPECT_GT(s.length, 0u);
    total += s.length;
  }
  EXPECT_EQ(total, c.length);
  EXPECT_LE(segs.size(), static_cast<std::size_t>(c.ions));
}

TEST_P(StripeDecomposeProperty, SegmentsMatchPerByteMapping) {
  const auto& c = GetParam();
  if (c.length > 1 << 16) GTEST_SKIP() << "per-byte check kept small";
  StripeMap map(params(c.unit, c.ions));
  auto segs = map.decompose(c.offset, c.length);
  // Recompute per byte and confirm each byte falls inside its ION's segment.
  for (std::uint64_t i = 0; i < c.length; ++i) {
    const std::uint64_t off = c.offset + i;
    const std::uint32_t ion = map.ion_of(off);
    const std::uint64_t local = map.local_offset_of(off);
    bool found = false;
    for (const auto& s : segs) {
      if (s.ion == ion && local >= s.local_offset &&
          local < s.local_offset + s.length) {
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "byte " << off << " not covered";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StripeDecomposeProperty,
    ::testing::Values(
        DecomposeCase{64 * 1024, 16, 0, 3 * 1024 * 1024ULL},
        DecomposeCase{64 * 1024, 16, 12345, 2048},
        DecomposeCase{1024, 1, 0, 10000},
        DecomposeCase{1024, 3, 500, 5000},
        DecomposeCase{4096, 16, 4095, 2},
        DecomposeCase{512, 7, 123, 60000},
        DecomposeCase{64 * 1024, 16, 999999, 64 * 1024ULL * 40}));

}  // namespace
}  // namespace paraio::pfs
