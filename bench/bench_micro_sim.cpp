// Microbenchmarks of the simulation kernel hot path: event queue churn,
// same-instant bursts, coroutine timer chains, process fan-out,
// and the synchronization primitives.  These bound how large a simulated
// machine the toolkit can handle per wall-clock second, so their events/sec
// numbers are the repo's tracked performance trajectory:
//
//   $ bench_micro_sim --json build/bench_micro_sim.json
//   $ tools/check_bench.py BENCH_micro_sim.json build/bench_micro_sim.json
//
// The committed baseline lives in BENCH_micro_sim.json; docs/PERF.md
// describes the recording/refresh workflow and the CI regression gate.
// Scenarios run with NO observers attached — they measure the fast path.
// (Data-structure micros that don't involve the kernel live in
// bench_micro_structs.)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace {

using namespace paraio;

/// One scenario repetition: returns (kernel events processed, simulated
/// seconds covered).
using ScenarioFn = std::pair<double, double> (*)();

struct Scenario {
  const char* name;
  ScenarioFn run;
};

// --- event-queue scenarios (no engine, raw schedule/pop) -------------------

template <int N>
std::pair<double, double> queue_churn() {
  sim::EventQueue q;
  for (int i = 0; i < N; ++i) {
    q.schedule(static_cast<double>((i * 7919) % 104729), [] {});
  }
  double last = 0.0;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    last = when;
    action();
  }
  return {static_cast<double>(N), last};
}

// Interleaved schedule/pop around a rolling time horizon: the steady-state
// shape of a running simulation (queue stays small, events keep arriving).
std::pair<double, double> queue_rolling_horizon() {
  constexpr int kEvents = 100000;
  constexpr int kWindow = 64;
  sim::EventQueue q;
  int scheduled = 0;
  for (; scheduled < kWindow; ++scheduled) {
    q.schedule(static_cast<double>((scheduled * 13) % 97), [] {});
  }
  double last = 0.0;
  while (!q.empty()) {
    auto [when, action] = q.pop();
    last = when;
    action();
    if (scheduled < kEvents) {
      q.schedule(when + static_cast<double>((scheduled * 13) % 97), [] {});
      ++scheduled;
    }
  }
  return {static_cast<double>(kEvents), last};
}

// Every event at the same instant: the tie-break path (barriers, collective
// wake-ups) and the dense bucket the golden stress config guards.
std::pair<double, double> queue_same_instant() {
  constexpr int kEvents = 20000;
  sim::EventQueue q;
  for (int i = 0; i < kEvents; ++i) q.schedule(5.0, [] {});
  while (!q.empty()) q.pop().second();
  return {static_cast<double>(kEvents), 5.0};
}

// --- engine scenarios (coroutines, sync primitives) ------------------------

std::pair<double, double> timer_chain() {
  constexpr int kSteps = 100000;
  sim::Engine e;
  auto proc = [](sim::Engine& eng, int steps) -> sim::Task<> {
    for (int i = 0; i < steps; ++i) co_await eng.delay(1.0);
  };
  e.spawn(proc(e, kSteps));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

std::pair<double, double> many_processes() {
  constexpr int kProcs = 4096;
  sim::Engine e;
  auto proc = [](sim::Engine& eng) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) co_await eng.delay(1.0);
  };
  for (int p = 0; p < kProcs; ++p) e.spawn(proc(e));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

std::pair<double, double> channel_pingpong() {
  constexpr int kMsgs = 10000;
  sim::Engine e;
  sim::Channel<int> ch(e, 8);
  auto producer = [](sim::Channel<int>& c, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) co_await c.send(i);
  };
  auto consumer = [](sim::Channel<int>& c, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) (void)co_await c.recv();
  };
  e.spawn(producer(ch, kMsgs));
  e.spawn(consumer(ch, kMsgs));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

std::pair<double, double> semaphore_contention() {
  constexpr int kTasks = 64;
  sim::Engine e;
  sim::Semaphore sem(e, 1);
  auto proc = [](sim::Engine& eng, sim::Semaphore& s) -> sim::Task<> {
    for (int i = 0; i < 16; ++i) {
      co_await s.acquire();
      co_await eng.delay(0.001);
      s.release();
    }
  };
  for (int t = 0; t < kTasks; ++t) e.spawn(proc(e, sem));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

// The production hand-off shape: 512 processes wake in groups of 64 at
// shared instants and pass one semaphore around (acquire, yield, release),
// while the other groups' timers stay pending in the queue behind them.
// Every hand-off and yield is a same-instant wake-up arriving after those
// pending future events, as a freed NIC, server or array is handed to the
// next waiter in ESCAT's synchronized bursts.
std::pair<double, double> handoff_under_timers() {
  constexpr int kProcs = 512;
  constexpr int kGroups = 8;
  constexpr int kRounds = 20;
  sim::Engine e;
  sim::Semaphore sem(e, 1);
  auto proc = [](sim::Engine& eng, sim::Semaphore& s,
                 double period) -> sim::Task<> {
    for (int r = 0; r < kRounds; ++r) {
      co_await eng.delay(period);
      co_await s.acquire();
      co_await eng.yield();
      s.release();
    }
  };
  for (int p = 0; p < kProcs; ++p) {
    e.spawn(proc(e, sem, 1.0 + 0.125 * static_cast<double>(p % kGroups)));
  }
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

// Spawn-heavy fork/join shape: short-lived coroutines created in waves, the
// allocation-rate stress for coroutine frames.
std::pair<double, double> spawn_waves() {
  // maybe_unused: only read inside the capture-less driver coroutine (a
  // constant expression, not an odr-use), which GCC's
  // -Wunused-but-set-variable fails to see as a use.
  [[maybe_unused]] constexpr int kWaves = 200;
  [[maybe_unused]] constexpr int kPerWave = 256;
  sim::Engine e;
  auto worker = [](sim::Engine& eng) -> sim::Task<> {
    co_await eng.delay(0.5);
  };
  auto driver = [](sim::Engine& eng, auto spawn_worker) -> sim::Task<> {
    for (int w = 0; w < kWaves; ++w) {
      spawn_worker(eng, kPerWave);
      co_await eng.delay(1.0);
    }
  };
  auto spawn_worker = [&worker](sim::Engine& eng, int n) {
    for (int i = 0; i < n; ++i) eng.spawn(worker(eng));
  };
  e.spawn(driver(e, spawn_worker));
  e.run();
  return {static_cast<double>(e.events_executed()), e.now()};
}

constexpr Scenario kScenarios[] = {
    {"queue_churn_1k", &queue_churn<1000>},
    {"queue_churn_100k", &queue_churn<100000>},
    {"queue_rolling_horizon_100k", &queue_rolling_horizon},
    {"queue_same_instant_20k", &queue_same_instant},
    {"timer_chain_100k", &timer_chain},
    {"many_processes_4096x10", &many_processes},
    {"channel_pingpong_10k", &channel_pingpong},
    {"semaphore_contention_64x16", &semaphore_contention},
    {"spawn_waves_200x256", &spawn_waves},
    {"handoff_under_timers_512x20", &handoff_under_timers},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(argc, argv);
  // Keep one full run cheap (~3 s) while giving each scenario enough wall
  // time that events/sec is stable to a few percent on an idle host.
  const double min_wall_ms = 250.0;

  std::printf("=== simulation-kernel microbenchmarks (no observers) ===\n");
  std::vector<bench::ScenarioRecord> records;
  for (const Scenario& s : kScenarios) {
    records.push_back(bench::measure_best(s.name, s.run, min_wall_ms));
  }
  bench::report_scenarios(opt, "micro_sim", records);
  return 0;
}
