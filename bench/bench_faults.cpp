// Graceful degradation under hardware faults (docs/FAULTS.md,
// docs/CHECKPOINT.md).
//
// Part 1 runs each paper application on a PPFS mount at a reduced scale
// under three scenarios — fault-free, degraded RAID (one drive of ION 0's
// array fails mid-run), and ION failover (ION 1 crashes mid-run and never
// returns) — and reports how the run time and the recovery machinery
// respond: degraded accesses, retries, failovers, and dirty data lost.
//
// Part 2 measures the checkpoint subsystem: the ESCAT skeleton checkpoints
// every other cycle through the host-side write absorber vs the plain
// write-behind baseline, fault-free and under a mid-run ION crash.  The
// headline number is checkpoint overhead — simulated seconds inside
// checkpoint epochs over useful run seconds — plus the data-loss window at
// the crash instant.
//
// The paper's Paragon put a five-disk RAID-3 array on every I/O node
// precisely so a single disk failure would not stop a run; this bench
// quantifies what that choice (plus PPFS client-side retry/failover and
// log-absorbed checkpoints) costs when the fault actually happens.
//
// --json emits the schema-1 scenario format that tools/check_bench.py
// regression-gates on events_per_sec; the per-scenario "params" objects
// carry the fault/checkpoint measurements.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <variant>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"

namespace {

using namespace paraio;

core::ExperimentConfig small_config(core::AppConfig app) {
  core::ExperimentConfig cfg;
  const bool render = std::holds_alternative<apps::RenderConfig>(app);
  cfg.machine = hw::MachineConfig::paragon_xps(render ? 9 : 8, 4);
  cfg.filesystem = core::FsChoice::ppfs();  // the fault-aware mount
  cfg.app = std::move(app);
  return cfg;
}

core::AppConfig make_app(const std::string& name) {
  if (name == "escat") {
    apps::EscatConfig c;
    c.nodes = 8;
    c.iterations = 6;
    c.seek_free_iterations = 2;
    c.first_cycle_compute = 5.0;
    c.last_cycle_compute = 2.0;
    c.energy_phase_compute = 3.0;
    return c;
  }
  if (name == "render") {
    apps::RenderConfig c;
    c.renderers = 8;
    c.frames = 5;
    c.large_reads_3mb = 8;
    c.large_reads_15mb = 16;
    c.header_reads = 4;
    c.frame_compute = 0.5;
    return c;
  }
  apps::HtfConfig c;
  c.nodes = 8;
  c.integral_writes_total = 40;
  c.scf_iterations = 2;
  c.scf_extra_large_reads = 3;
  c.integral_compute_per_record = 1.0;
  c.scf_compute_per_iteration = 5.0;
  c.setup_compute = 2.0;
  return c;
}

core::ExperimentConfig checkpointed_escat(ckpt::CkptBackend backend) {
  core::ExperimentConfig cfg = small_config(make_app("escat"));
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.every = 2;
  cfg.checkpoint.state_bytes = 256 * 1024;
  cfg.checkpoint.chunk_bytes = 64 * 1024;
  cfg.checkpoint.backend = backend;
  return cfg;
}

/// Wall time each scenario accumulates before its fastest repetition is
/// recorded.  One run is 1-3 k kernel events and well under a millisecond,
/// so a single cold run measures construction cost and host noise, not
/// throughput.
constexpr double kScenarioMinMs = 50.0;

/// Runs one experiment under the wall timer until kScenarioMinMs have
/// accumulated and records the fastest repetition as a gated throughput
/// scenario (events = kernel events).  Every repetition must reproduce the
/// first one's kernel events and simulated time.
bench::ScenarioRecord run_scenario(const std::string& name,
                                   const core::ExperimentConfig& cfg,
                                   core::ExperimentResult* out) {
  const bench::WallTimer first_timer;
  core::ExperimentResult first = core::run_experiment(cfg);
  double best_ms = first_timer.elapsed_ms();
  for (double total_ms = best_ms; total_ms < kScenarioMinMs;) {
    const bench::WallTimer timer;
    const core::ExperimentResult again = core::run_experiment(cfg);
    const double ms = timer.elapsed_ms();
    if (again.kernel_events != first.kernel_events ||
        again.run_start != first.run_start || again.run_end != first.run_end) {
      std::fprintf(stderr, "bench_faults: %s is not deterministic\n",
                   name.c_str());
      std::exit(1);
    }
    best_ms = std::min(best_ms, ms);
    total_ms += ms;
  }
  bench::ScenarioRecord rec;
  rec.name = name;
  rec.events = static_cast<double>(first.kernel_events);
  rec.wall_ms = best_ms;
  rec.events_per_sec =
      rec.wall_ms > 0.0 ? rec.events / (rec.wall_ms / 1000.0) : 0.0;
  rec.sim_time = first.run_end - first.run_start;
  if (out != nullptr) *out = std::move(first);
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_args(argc, argv);
  std::vector<bench::ScenarioRecord> scenarios;

  std::cout << "=== Fault injection: fault-free vs degraded RAID-3 vs ION "
               "failover (PPFS mounts) ===\n\n";
  std::printf("  %-6s %-10s | %9s %8s | %9s %8s %9s %10s\n", "app",
              "scenario", "run (s)", "slowdown", "degraded", "retries",
              "failover", "lost (B)");

  std::string csv =
      "app,scenario,run_s,slowdown,degraded_accesses,retries,failovers,"
      "dirty_bytes_lost\n";

  for (const char* app : {"escat", "render", "htf"}) {
    const core::ExperimentConfig base = small_config(make_app(app));
    core::ExperimentResult clean;
    bench::ScenarioRecord clean_rec =
        run_scenario(std::string(app) + "/fault-free", base, &clean);
    const double mid = (clean.run_start + clean.run_end) / 2.0;

    core::ExperimentConfig degraded = base;
    degraded.fault_plan.add({mid, fault::FaultKind::kDiskFail, 0, 1, 0.0});

    core::ExperimentConfig failover = base;
    failover.fault_plan.add({mid, fault::FaultKind::kIonCrash, 1, 0, 0.0});

    struct Scenario {
      const char* name;
      core::ExperimentResult result;
      bench::ScenarioRecord record;
    };
    core::ExperimentResult degraded_result;
    core::ExperimentResult failover_result;
    bench::ScenarioRecord degraded_rec = run_scenario(
        std::string(app) + "/degraded", degraded, &degraded_result);
    bench::ScenarioRecord failover_rec = run_scenario(
        std::string(app) + "/failover", failover, &failover_result);
    const double clean_s = clean.run_end - clean.run_start;

    Scenario runs[] = {
        {"fault-free", std::move(clean), std::move(clean_rec)},
        {"degraded", std::move(degraded_result), std::move(degraded_rec)},
        {"failover", std::move(failover_result), std::move(failover_rec)}};
    for (Scenario& s : runs) {
      const double run_s = s.result.run_end - s.result.run_start;
      const double slowdown = run_s / clean_s;
      std::printf("  %-6s %-10s | %9.1f %7.3fx | %9llu %8llu %9llu %10llu\n",
                  app, s.name, run_s, slowdown,
                  static_cast<unsigned long long>(
                      s.result.raid_faults.degraded_accesses),
                  static_cast<unsigned long long>(s.result.recovery.retries),
                  static_cast<unsigned long long>(s.result.recovery.failovers),
                  static_cast<unsigned long long>(
                      s.result.recovery.dirty_bytes_lost));
      csv += std::string(app) + "," + s.name + "," + std::to_string(run_s) +
             "," + std::to_string(slowdown) + "," +
             std::to_string(s.result.raid_faults.degraded_accesses) + "," +
             std::to_string(s.result.recovery.retries) + "," +
             std::to_string(s.result.recovery.failovers) + "," +
             std::to_string(s.result.recovery.dirty_bytes_lost) + "\n";
      s.record.params.emplace_back("run_s", run_s);
      s.record.params.emplace_back("slowdown", slowdown);
      s.record.params.emplace_back(
          "degraded_accesses",
          static_cast<double>(s.result.raid_faults.degraded_accesses));
      s.record.params.emplace_back(
          "retries", static_cast<double>(s.result.recovery.retries));
      s.record.params.emplace_back(
          "failovers", static_cast<double>(s.result.recovery.failovers));
      s.record.params.emplace_back(
          "dirty_bytes_lost",
          static_cast<double>(s.result.recovery.dirty_bytes_lost));
      scenarios.push_back(std::move(s.record));
    }
    std::cout << "\n";
  }

  // --- checkpoint overhead: absorber vs plain write-behind ------------------

  std::cout << "=== Checkpoints: host-side write absorber vs plain "
               "write-behind (ESCAT, every 2nd cycle) ===\n\n";
  std::printf("  %-13s %-10s | %9s %9s %8s | %7s %10s %10s\n", "backend",
              "scenario", "run (s)", "ckpt (s)", "overhead", "commits",
              "loss (s)", "lost (B)");
  csv += "backend,scenario,run_s,ckpt_s,overhead,commits,loss_window_s,"
         "dirty_bytes_lost\n";

  struct CkptVariant {
    const char* backend;
    ckpt::CkptBackend kind;
  };
  for (const CkptVariant& variant :
       {CkptVariant{"ckpt-absorber", ckpt::CkptBackend::kAbsorber},
        CkptVariant{"ckpt-plain", ckpt::CkptBackend::kWriteBehind}}) {
    const core::ExperimentConfig base = checkpointed_escat(variant.kind);
    core::ExperimentResult clean;
    bench::ScenarioRecord clean_rec = run_scenario(
        std::string(variant.backend) + "/fault-free", base, &clean);
    const double mid = (clean.run_start + clean.run_end) / 2.0;

    core::ExperimentConfig crash = base;
    crash.fault_plan.add({mid, fault::FaultKind::kIonCrash, 1, 0, 0.0});
    crash.fault_plan.add(
        {clean.run_end, fault::FaultKind::kIonRestart, 1, 0, 0.0});
    core::ExperimentResult crashed;
    bench::ScenarioRecord crash_rec = run_scenario(
        std::string(variant.backend) + "/ion-crash", crash, &crashed);

    struct Scenario {
      const char* name;
      core::ExperimentResult result;
      bench::ScenarioRecord record;
    };
    Scenario runs[] = {
        {"fault-free", std::move(clean), std::move(clean_rec)},
        {"ion-crash", std::move(crashed), std::move(crash_rec)}};
    for (Scenario& s : runs) {
      const double run_s = s.result.run_end - s.result.run_start;
      const ckpt::CheckpointStats& cs = s.result.checkpoint;
      // Checkpoint-to-useful-work overhead: simulated seconds spent inside
      // checkpoint epochs per second of everything else the run did.
      const double overhead =
          run_s > cs.checkpoint_time
              ? cs.checkpoint_time / (run_s - cs.checkpoint_time)
              : 0.0;
      std::printf(
          "  %-13s %-10s | %9.1f %9.4f %7.4fx | %7llu %10.2f %10llu\n",
          variant.backend, s.name, run_s, cs.checkpoint_time, overhead,
          static_cast<unsigned long long>(cs.epochs_committed),
          cs.data_loss_window,
          static_cast<unsigned long long>(s.result.absorber.dirty_bytes_lost));
      csv += std::string(variant.backend) + "," + s.name + "," +
             std::to_string(run_s) + "," + std::to_string(cs.checkpoint_time) +
             "," + std::to_string(overhead) + "," +
             std::to_string(cs.epochs_committed) + "," +
             std::to_string(cs.data_loss_window) + "," +
             std::to_string(s.result.absorber.dirty_bytes_lost) + "\n";
      s.record.params.emplace_back("run_s", run_s);
      s.record.params.emplace_back("ckpt_s", cs.checkpoint_time);
      s.record.params.emplace_back("ckpt_overhead", overhead);
      s.record.params.emplace_back(
          "commits", static_cast<double>(cs.epochs_committed));
      s.record.params.emplace_back("data_loss_window_s", cs.data_loss_window);
      s.record.params.emplace_back("last_commit_s", cs.last_commit_time);
      s.record.params.emplace_back(
          "absorber_acked_bytes",
          static_cast<double>(s.result.absorber.acked_bytes));
      s.record.params.emplace_back(
          "absorber_lost_bytes",
          static_cast<double>(s.result.absorber.dirty_bytes_lost));
      scenarios.push_back(std::move(s.record));
    }
    std::cout << "\n";
  }

  std::cout
      << "RAID-3 absorbs a single disk failure for the cost of the parity-"
         "reconstruction penalty on reads\n(writes are unaffected), while an "
         "ION crash costs one refusal round trip plus backoff per request\n"
         "before the stripe is re-routed to a surviving I/O node — the run "
         "completes either way, with no\ndirty data lost.  Checkpoints "
         "through the host-side absorber acknowledge at log-append speed,\n"
         "so their barrier-to-commit overhead stays low even while an ION is "
         "down — the background drain\nabsorbs the retries and failovers "
         "that the plain write-behind backend pays for inside the epoch.\n";

  bench::write_csv(opt, "faults.csv", csv);
  bench::write_scenarios_json(opt, "bench_faults", scenarios);
  return 0;
}
