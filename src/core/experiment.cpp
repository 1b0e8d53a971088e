#include "core/experiment.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "pablo/instrument.hpp"
#include "sim/engine.hpp"

namespace paraio::core {

namespace {

/// Checkpoint participants per application: every node that reaches the
/// collective boundary (RENDER's gateway never does).
std::uint32_t checkpoint_parties(const AppConfig& app) {
  return std::visit(
      [](const auto& cfg) -> std::uint32_t {
        using Config = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<Config, apps::RenderConfig>) {
          return cfg.renderers;
        } else {
          return cfg.nodes;
        }
      },
      app);
}

/// The exposure reference for data_loss_window: the first destructive fault
/// in the plan (an ION crash or disk failure kills volatile state), or run
/// end when the plan has none.
sim::SimTime loss_reference(const fault::FaultPlan& plan, sim::SimTime end) {
  sim::SimTime ref = end;
  for (const fault::FaultEvent& ev : plan.events) {
    if (ev.kind == fault::FaultKind::kIonCrash ||
        ev.kind == fault::FaultKind::kDiskFail) {
      ref = std::min(ref, ev.at);
    }
  }
  return ref;
}

/// The application model each AppConfig alternative configures.
template <typename Config>
struct AppOf;
template <>
struct AppOf<apps::EscatConfig> { using type = apps::Escat; };
template <>
struct AppOf<apps::RenderConfig> { using type = apps::Render; };
template <>
struct AppOf<apps::HtfConfig> { using type = apps::Htf; };
template <>
struct AppOf<apps::SyntheticConfig> { using type = apps::Synthetic; };
template <typename Config>
using AppFor = typename AppOf<Config>::type;

/// Application wrapper so the driver can treat the application codes
/// uniformly.  `disk_bytes` reads the mount's disk-layer totals.
template <typename App, typename DiskTotals>
sim::Task<> drive(App& app, io::FileSystem& bare, ExperimentResult& result,
                  sim::Engine& engine, DiskTotals disk_bytes) {
  co_await app.stage(bare);
  result.staged_disk = disk_bytes();
  result.run_start = engine.now();
  co_await app.run();
  result.run_end = engine.now();
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  sim::Engine engine;
  engine.set_tie_break_seed(config.tie_break_seed);
  if (config.hooks.engine != nullptr) engine.attach(*config.hooks.engine);
  hw::Machine machine(engine, config.machine);

  obs::Registry* metrics = config.hooks.metrics;
  obs::Tracer* tracer = config.hooks.tracer;
  if (metrics != nullptr) machine.attach_metrics(*metrics);
  if (tracer != nullptr) tracer->bind(engine);
  // Attached after the caller's observer, so notified before it; destroyed
  // before `engine` goes out of scope.
  std::optional<obs::Sampler> sampler;
  if (metrics != nullptr && config.hooks.sample_period > 0.0) {
    sampler.emplace(engine, *metrics, config.hooks.sample_period);
  }
  // An empty plan schedules nothing, which keeps the run bit-identical.
  fault::FaultInjector injector(engine, machine, config.fault_plan, metrics,
                                tracer);

  std::unique_ptr<pfs::Pfs> pfs_fs;
  std::unique_ptr<ppfs::Ppfs> ppfs_fs;
  io::FileSystem* bare = nullptr;
  if (config.filesystem.kind == FsChoice::Kind::kPfs) {
    pfs_fs = std::make_unique<pfs::Pfs>(machine, config.filesystem.pfs_params);
    pfs_fs->attach_observability(metrics, tracer);
    bare = pfs_fs.get();
  } else {
    ppfs_fs =
        std::make_unique<ppfs::Ppfs>(machine, config.filesystem.ppfs_params);
    ppfs_fs->attach_observability(metrics, tracer);
    bare = ppfs_fs.get();
  }
  const auto disk_bytes = [&]() -> DiskBytes {
    if (pfs_fs) {
      return {pfs_fs->counters().bytes_read, pfs_fs->counters().bytes_written};
    }
    return {ppfs_fs->counters().disk_bytes_read,
            ppfs_fs->counters().disk_bytes_written};
  };

  pablo::InstrumentedFs instrumented(*bare, engine);
  ExperimentResult result;
  instrumented.add_sink(result.trace);

  // Checkpoint machinery (only when enabled).  The absorber drains through
  // the PPFS client's recovery path, so it needs a PPFS mount; the
  // write-behind baseline dumps through the bare mount (staging-style
  // traffic, kept out of the measured trace like stage() itself).
  std::optional<ckpt::WriteAbsorber> absorber;
  std::optional<ckpt::CheckpointCoordinator> coordinator;
  if (config.checkpoint.enabled) {
    if (config.checkpoint.backend == ckpt::CkptBackend::kAbsorber) {
      if (!ppfs_fs) {
        throw std::invalid_argument(
            "checkpoint backend kAbsorber requires a PPFS mount");
      }
      absorber.emplace(*ppfs_fs, config.absorber);
      absorber->attach_observability(metrics, tracer);
    }
    coordinator.emplace(machine, checkpoint_parties(config.app),
                        config.checkpoint, absorber ? &*absorber : nullptr,
                        absorber ? nullptr : bare);
    coordinator->attach_observability(metrics, tracer);
  }
  apps::CheckpointHook* hook = coordinator ? &*coordinator : nullptr;

  std::visit(
      [&](const auto& app_config) {
        AppFor<std::decay_t<decltype(app_config)>> app(machine, instrumented,
                                                       app_config);
        app.set_checkpoint(hook);
        engine.spawn(drive(app, *bare, result, engine, disk_bytes));
        engine.run();
        result.phases = app.phases();
      },
      config.app);

  result.kernel_events = engine.events_executed();
  if (coordinator) {
    result.checkpoint = coordinator->stats();
    result.checkpoint.data_loss_window = coordinator->data_loss_window(
        loss_reference(config.fault_plan, result.run_end));
  }
  if (absorber) {
    result.absorber = absorber->stats();
    result.ckpt_log =
        std::make_shared<const ckpt::LogImage>(absorber->take_log());
  }
  if (pfs_fs) result.pfs_counters = pfs_fs->counters();
  if (ppfs_fs) {
    result.ppfs_counters = ppfs_fs->counters();
    result.recovery = ppfs_fs->recovery_stats();
  }
  result.faults_injected = injector.applied();
  for (std::size_t k = 0; k < machine.io_nodes(); ++k) {
    result.raid_faults += machine.ion_array(k).fault_stats();
  }

  if (tracer != nullptr) {
    // Application compute/IO phases become spans on a machine-wide row,
    // synthesized from the phase log (consecutive phases abut).
    sim::SimTime prev = result.run_start;
    for (const auto& [name, end] : result.phases.phases()) {
      tracer->complete({obs::kGlobalProcess, 0}, name, prev, end, "phase");
      prev = end;
    }
    tracer->name_process(obs::kGlobalProcess, "app phases");
    if (coordinator) {
      tracer->name_track({obs::kGlobalProcess, 1}, "ckpt epochs");
      tracer->name_track({obs::kGlobalProcess, 2}, "ckpt drain");
    }
    for (std::size_t n = 0; n < machine.compute_nodes(); ++n) {
      tracer->name_process(static_cast<std::uint32_t>(n),
                           "node" + std::to_string(n));
    }
    for (std::size_t k = 0; k < machine.io_nodes(); ++k) {
      const hw::NodeId id = machine.ion_node_id(k);
      tracer->name_process(id, "ion" + std::to_string(k));
      tracer->name_track({id, 1}, "pfs pieces");
      tracer->name_track({id, 2}, "ppfs batches");
    }
  }
  // The registry reads through to this stack, which dies on return.
  if (metrics != nullptr) metrics->freeze();
  return result;
}

// --- calibrations ----------------------------------------------------------
// Derivations in EXPERIMENTS.md.  Headline targets: the paper's per-op-class
// node-time shares (ESCAT: seeks+writes ~96 % of I/O time; RENDER: iowait
// dominates, writes ~19 %; HTF: creates expensive, SCF reads ~98 %).

pfs::PfsParams escat_pfs_params() {
  pfs::PfsParams p;
  // eseek is the expensive call (Table 1: 12,034 seeks cost 20,884 s);
  // the per-write metadata update is cheaper but still serialized.
  p.meta_service = sim::milliseconds(33.0);
  p.write_meta_service = sim::milliseconds(330.0);
  p.open_service = sim::milliseconds(71.0);
  p.close_service = sim::milliseconds(23.0);
  p.write_control_rpc = true;
  return p;
}

pfs::PfsParams render_pfs_params() {
  pfs::PfsParams p;
  // Gateway-serial opens, ~0.3 s each (Table 3: 106 opens, 32.8 s).
  p.open_service = sim::milliseconds(300.0);
  p.close_service = sim::milliseconds(65.0);
  p.meta_service = sim::milliseconds(8.0);
  p.async_issue = sim::milliseconds(10.0);
  p.write_control_rpc = false;  // large streaming writes, no per-op metadata
  return p;
}

pfs::PfsParams htf_pfs_params() {
  pfs::PfsParams p;
  // File creation was enormously expensive for this code's runs (130
  // pargos opens cost 4,057 s of node time); plain opens far cheaper
  // (157 pscf opens cost 519 s).  Per-request OS work at the I/O nodes'
  // data servers — not the media — dominates the ~80 KB record traffic
  // (SCF reads average 0.63 s each in Table 5).
  p.open_service = sim::milliseconds(400.0);
  p.create_service = sim::milliseconds(5500.0);
  p.close_service = sim::milliseconds(70.0);
  p.meta_service = sim::milliseconds(5.0);
  p.write_meta_service = sim::milliseconds(100.0);
  p.flush_service = sim::milliseconds(30.0);
  p.data_service = sim::milliseconds(50.0);
  p.write_control_rpc = true;
  return p;
}

ExperimentConfig escat_experiment() {
  ExperimentConfig cfg;
  cfg.machine = hw::MachineConfig::paragon_xps(128, 16);
  cfg.filesystem = FsChoice::pfs(escat_pfs_params());
  cfg.app = apps::EscatConfig{};
  return cfg;
}

ExperimentConfig render_experiment() {
  ExperimentConfig cfg;
  // 128 renderers + 1 gateway.
  cfg.machine = hw::MachineConfig::paragon_xps(129, 16);
  cfg.filesystem = FsChoice::pfs(render_pfs_params());
  cfg.app = apps::RenderConfig{};
  return cfg;
}

ExperimentConfig htf_experiment() {
  ExperimentConfig cfg;
  cfg.machine = hw::MachineConfig::paragon_xps(128, 16);
  cfg.filesystem = FsChoice::pfs(htf_pfs_params());
  cfg.app = apps::HtfConfig{};
  return cfg;
}

}  // namespace paraio::core
