// Microbenchmarks of the instrumentation layer, quantifying the paper's
// §3.1 claim: "instrumentation overhead is modest for input/output data
// capture and is largely independent of the choice of real-time data
// reduction or trace output".
//
// Measured here as *host* cost per traced operation: full trace capture vs.
// each real-time reduction vs. all of them at once, plus trace file I/O.
// "events" counts traced operations.
//
//   $ bench_micro_pablo [--json PATH] [--csv DIR]
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "pablo/sddf.hpp"
#include "pablo/summary.hpp"
#include "pablo/trace.hpp"
#include "sim/random.hpp"

namespace {

using namespace paraio;
using pablo::IoEvent;
using pablo::Op;

/// One scenario repetition: returns (operations traced, 0 simulated
/// seconds).
using ScenarioFn = std::pair<double, double> (*)();

struct Scenario {
  const char* name;
  ScenarioFn run;
};

constexpr int kOps = 100000;

IoEvent sample_event(sim::Rng& rng) {
  IoEvent e;
  e.timestamp = rng.uniform(0, 10000);
  e.duration = rng.uniform(0, 0.5);
  e.node = static_cast<io::NodeId>(rng.uniform_int(0, 127));
  e.file = static_cast<io::FileId>(rng.uniform_int(1, 16));
  e.op = static_cast<Op>(rng.uniform_int(0, 4));
  e.offset = rng.uniform_int(0, 1u << 30);
  e.requested = rng.uniform_int(64, 1 << 20);
  e.transferred = e.requested;
  return e;
}

std::pair<double, double> trace_capture() {
  sim::Rng rng(1);
  const IoEvent e = sample_event(rng);
  pablo::Trace trace;
  for (int i = 0; i < kOps; ++i) trace.on_event(e);
  bench::keep(trace.size());
  return {kOps, 0.0};
}

// One ESCAT-512 job's trace, 530,768 events, captured into a fresh Trace:
// the production-size case, where the event array grows to ~30 MB.
std::pair<double, double> trace_capture_530k() {
  constexpr int kEscat512Events = 530768;
  sim::Rng rng(1);
  IoEvent e = sample_event(rng);
  pablo::Trace trace;
  for (int i = 0; i < kEscat512Events; ++i) {
    e.offset = static_cast<std::uint64_t>(i);
    trace.on_event(e);
  }
  bench::keep(trace.size());
  return {kEscat512Events, 0.0};
}

template <typename Summary, auto... Args>
std::pair<double, double> reduction() {
  sim::Rng rng(2);
  Summary summary(Args...);
  for (int i = 0; i < kOps; ++i) summary.on_event(sample_event(rng));
  bench::keep(summary);
  return {kOps, 0.0};
}

std::pair<double, double> all_sinks_together() {
  sim::Rng rng(5);
  pablo::Trace trace;
  pablo::FileLifetimeSummary lifetime;
  pablo::TimeWindowSummary window(10.0);
  pablo::FileRegionSummary region(1 << 20);
  for (int i = 0; i < kOps; ++i) {
    const IoEvent e = sample_event(rng);
    trace.on_event(e);
    lifetime.on_event(e);
    window.on_event(e);
    region.on_event(e);
  }
  bench::keep(trace.size());
  return {kOps, 0.0};
}

std::pair<double, double> trace_write_read() {
  constexpr int kEvents = 10000;
  sim::Rng rng(6);
  pablo::Trace trace;
  trace.on_file(1, "/bench/file");
  for (int i = 0; i < kEvents; ++i) trace.on_event(sample_event(rng));
  std::stringstream buffer;
  pablo::write_trace(buffer, trace);
  const pablo::Trace loaded = pablo::read_trace(buffer);
  bench::keep(loaded.size());
  return {kEvents, 0.0};
}

constexpr Scenario kScenarios[] = {
    {"trace_capture", &trace_capture},
    {"trace_capture_530k", &trace_capture_530k},
    {"lifetime_reduction", &reduction<pablo::FileLifetimeSummary>},
    {"time_window_reduction", &reduction<pablo::TimeWindowSummary, 10.0>},
    {"file_region_reduction", &reduction<pablo::FileRegionSummary, 1 << 20>},
    {"all_sinks_together", &all_sinks_together},
    {"trace_write_read_10k", &trace_write_read},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(argc, argv);
  const double min_wall_ms = 250.0;

  std::printf("=== instrumentation microbenchmarks (ops/sec) ===\n");
  std::vector<bench::ScenarioRecord> records;
  for (const Scenario& s : kScenarios) {
    records.push_back(bench::measure_best(s.name, s.run, min_wall_ms));
  }
  bench::report_scenarios(opt, "micro_pablo", records);
  return 0;
}
