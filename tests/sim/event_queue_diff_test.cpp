// Differential harness: the ladder EventQueue vs the reference heap.
//
// sim::HeapEventQueue is the executable specification of event ordering —
// the pre-ladder binary heap whose comparator spells out the (when, key)
// contract directly.  These tests drive both queues in lockstep through
// randomized schedule/pop interleavings (generated with testkit::Gen so
// every case replays from its seed) and assert that at every step the two
// agree on size, next_time, and — by firing the popped actions — the exact
// identity of every popped event, including FIFO and seeded same-instant
// tie-breaks.
//
// The when-generator deliberately produces collisions (same-instant bursts,
// quantized offsets) and far-future outliers so the ladder's bottom, rung,
// spill, and top paths are all on the line, and scheduling happens between
// pops so rung drains are interrupted by new arrivals.
#include <gtest/gtest.h>

#include <cstdint>

#include "heap_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "testkit/gen.hpp"

namespace paraio::testkit {
namespace {

/// One randomized lockstep run.  `ops` is the number of driver steps; each
/// step schedules (possibly a same-instant burst) or pops.
void run_lockstep(std::uint64_t tie_seed, std::uint64_t rng_seed, int ops) {
  SCOPED_TRACE(::testing::Message() << "tie_seed=" << tie_seed
                                    << " rng_seed=" << rng_seed);
  sim::Rng rng(rng_seed);

  sim::EventQueue ladder;
  sim::HeapEventQueue heap;
  ladder.set_tie_break_seed(tie_seed);
  heap.set_tie_break_seed(tie_seed);

  std::uint64_t ladder_fired = 0;
  std::uint64_t heap_fired = 0;
  double frontier = 0.0;

  // testkit::Gen keeps every draw reproducible from (rng_seed, step).
  const Gen<std::uint64_t> gen_op = gen_u64(0, 99);
  const Gen<double> gen_delta = gen_real(0.0, 10.0);
  const Gen<std::uint64_t> gen_quant = gen_u64(0, 7);
  const Gen<double> gen_far = gen_real(100.0, 1.0e6);
  const Gen<std::uint64_t> gen_burst = gen_u64(2, 48);

  auto pick_when = [&](sim::Rng& r) -> double {
    const std::uint64_t mode = gen_op(r);
    if (mode < 30) return frontier;  // same instant as "now"
    if (mode < 55) {
      // Quantized offsets: different draws collide on the same when.
      return frontier + static_cast<double>(gen_quant(r));
    }
    if (mode < 90) return frontier + gen_delta(r);
    return frontier + gen_far(r);  // far future: exercises top_/rung paths
  };

  // Both queues stamp keys from their own insertion counter; scheduling in
  // lockstep keeps the counters aligned, so the same logical event carries
  // the same sequence number in both.  Each action records that number when
  // fired, which is what lets the pops prove event *identity*, not just
  // matching timestamps.
  std::uint64_t next_seq = 1;  // mirrors both queues' internal counters
  auto schedule_pair = [&](double when) {
    const std::uint64_t seq = next_seq++;
    ladder.schedule(when, [&ladder_fired, seq] { ladder_fired = seq; });
    heap.schedule(when, [&heap_fired, seq] { heap_fired = seq; });
  };

  auto pop_pair = [&] {
    ASSERT_FALSE(heap.empty());
    ASSERT_EQ(ladder.next_time(), heap.next_time());
    auto [lw, la] = ladder.pop();
    auto [hw, ha] = heap.pop();
    ASSERT_EQ(lw, hw);
    la();
    ha();
    ASSERT_EQ(ladder_fired, heap_fired)
        << "queues popped different events at t=" << lw;
    frontier = lw;
  };

  for (int i = 0; i < ops; ++i) {
    ASSERT_EQ(ladder.size(), heap.size());
    ASSERT_EQ(ladder.empty(), heap.empty());
    const std::uint64_t op = gen_op(rng);
    if (op < 56 || ladder.empty()) {
      if (op < 10) {
        // Same-instant burst: many events at one timestamp, scheduled
        // back-to-back — the dense-bucket case tie-breaks exist for.
        const double when = pick_when(rng);
        const std::uint64_t burst = gen_burst(rng);
        for (std::uint64_t b = 0; b < burst; ++b) schedule_pair(when);
      } else {
        schedule_pair(pick_when(rng));
      }
    } else {
      pop_pair();
    }
    // A fatal failure inside a helper only returns from the helper; without
    // this the drain loop below would spin on the first disagreement.
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Drain both to the end: every remaining event must surface in the same
  // order from both structures.
  while (!ladder.empty()) {
    pop_pair();
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(heap.empty());
}

TEST(EventQueueDiff, LockstepFifo) {
  for (std::uint64_t rng_seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    run_lockstep(/*tie_seed=*/0, rng_seed, /*ops=*/20000);
  }
}

TEST(EventQueueDiff, LockstepPerturbedSeeds) {
  // The ISSUE's contract: identical pop orders under 16 tie-break seeds.
  for (std::uint64_t tie_seed = 1; tie_seed <= 16; ++tie_seed) {
    run_lockstep(tie_seed, /*rng_seed=*/0x9E3779B9ULL + tie_seed,
                 /*ops=*/5000);
  }
}

// A pure same-instant storm: everything at one timestamp, popped straight
// through, under FIFO and a sample of perturbed seeds.  Covers the dense
// single-bucket path where a ladder cannot subdivide by time at all.
TEST(EventQueueDiff, SameInstantStorm) {
  for (std::uint64_t tie_seed : {0ULL, 7ULL, 0xFEEDULL}) {
    SCOPED_TRACE(::testing::Message() << "tie_seed=" << tie_seed);
    sim::EventQueue ladder;
    sim::HeapEventQueue heap;
    ladder.set_tie_break_seed(tie_seed);
    heap.set_tie_break_seed(tie_seed);
    std::uint64_t lf = 0, hf = 0;
    for (std::uint64_t s = 1; s <= 3000; ++s) {
      ladder.schedule(5.0, [&lf, s] { lf = s; });
      heap.schedule(5.0, [&hf, s] { hf = s; });
    }
    while (!ladder.empty()) {
      ASSERT_FALSE(heap.empty());
      auto [lw, la] = ladder.pop();
      auto [hw, ha] = heap.pop();
      ASSERT_EQ(lw, 5.0);
      ASSERT_EQ(hw, 5.0);
      la();
      ha();
      ASSERT_EQ(lf, hf);
    }
    ASSERT_TRUE(heap.empty());
  }
}

// Schedule-during-drain: start a large spread of events (forcing rungs),
// then alternate pop with scheduling at exactly the popped time and just
// after it.  New arrivals must interleave with half-drained rungs in the
// same order the heap produces.
TEST(EventQueueDiff, ScheduleDuringDrain) {
  sim::EventQueue ladder;
  sim::HeapEventQueue heap;
  std::uint64_t lf = 0, hf = 0;
  std::uint64_t seq = 1;
  auto schedule_pair = [&](double when) {
    const std::uint64_t s = seq++;
    ladder.schedule(when, [&lf, s] { lf = s; });
    heap.schedule(when, [&hf, s] { hf = s; });
  };
  for (int i = 0; i < 4000; ++i) {
    schedule_pair(static_cast<double>((i * 7919) % 104729));
  }
  int rescheduled = 0;
  while (!ladder.empty()) {
    ASSERT_FALSE(heap.empty());
    ASSERT_EQ(ladder.next_time(), heap.next_time());
    auto [lw, la] = ladder.pop();
    auto [hw, ha] = heap.pop();
    ASSERT_EQ(lw, hw);
    la();
    ha();
    ASSERT_EQ(lf, hf);
    if (rescheduled < 4000) {
      schedule_pair(lw);        // same instant as the event just popped
      schedule_pair(lw + 0.5);  // lands inside the currently draining window
      rescheduled += 2;
    }
  }
  ASSERT_TRUE(heap.empty());
}

}  // namespace
}  // namespace paraio::testkit
