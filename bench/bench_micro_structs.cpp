// Microbenchmarks of the data-structure substrate: striping arithmetic and
// the PPFS bookkeeping structures.  These have no simulation clock, so they
// live apart from bench_micro_sim, whose events/sec numbers feed the
// tracked performance trajectory; "events" here counts items processed.
//
//   $ bench_micro_structs [--json PATH] [--csv DIR]
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "pfs/stripe.hpp"
#include "ppfs/cache.hpp"
#include "ppfs/extent.hpp"
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

constexpr Scenario kScenarios[] = {
    {"stripe_decompose_3mib", &stripe_decompose},
    {"extent_set_sequential_inserts_1k", &extent_set_sequential_inserts},
    {"block_cache_lookups", &block_cache_lookups},
    {"rng_next_u64", &rng_next_u64},
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
