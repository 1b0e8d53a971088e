// paraio_perfbench — the repository benchmark's measurement binary.
//
// Each workload repeats one characterization job in a closed loop on one
// thread: configure from the seed, run core::run_experiment, produce the
// outputs a user of that configuration takes away, and check them.  The
// binary only calls public functions of the simulator libraries and reads
// their public stats; it never modifies them.
//
//   paraio_perfbench --workload W --seed N --seconds S --mode M
//                    [--trace-out PATH]
//
// Modes:
//   setup    configure, run one untimed warm-up job, print "READY", exit.
//   measure  as setup, then run jobs for S seconds and print one JSON line
//            of end-to-end figures.
//   trace    as setup, then alternate untraced and traced jobs for S
//            seconds, run the stack-depth ladder, and print one JSON line of
//            per-layer figures; spans are written as Chrome JSON to PATH.
//
// run.py drives this binary and prints the benchmark's result line; see
// README.md for the metric catalogue.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/tables.hpp"
#include "ckpt/log.hpp"
#include "core/experiment.hpp"
#include "obs/chrome.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pablo/instrument.hpp"
#include "pablo/sddf.hpp"
#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "testkit/trace_hash.hpp"

// --- allocation counter ------------------------------------------------------
// Every ::operator new in this process is counted, so core.allocs_per_op is
// an exact count.  The process is single-threaded.

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size != 0 ? size : 1);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
// GCC pairs the replaced operator new with free() when it inlines these and
// warns; malloc/free is exactly how the replacement pairs them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace paraio;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --- workloads ---------------------------------------------------------------

enum class Workload { kEscatPfs, kHtfObs, kEscatPpfs };

Workload parse_workload(const std::string& name) {
  if (name == "escat512-pfs") return Workload::kEscatPfs;
  if (name == "htf128-pfs-obs") return Workload::kHtfObs;
  if (name == "escat512-ppfs-ckpt-faults") return Workload::kEscatPpfs;
  throw std::invalid_argument("unknown workload: " + name);
}

/// splitmix64: the fault instants are drawn from the workload seed.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double in_window(std::uint64_t& state, double lo, double hi) {
  const double u = static_cast<double>(mix(state) >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

// Fault windows, in simulated seconds, inside the ESCAT-512 run on PPFS
// (which ends near t = 35,000 s).
constexpr double kDiskFailWindow[2] = {6000.0, 9000.0};
constexpr double kIonCrashWindow[2] = {14000.0, 17000.0};
constexpr double kIonDownFor[2] = {1500.0, 3000.0};

core::ExperimentConfig escat_production(std::uint64_t seed) {
  core::ExperimentConfig cfg = core::escat_experiment();
  cfg.machine = hw::MachineConfig::paragon_xps(512, 16);
  auto& app = std::get<apps::EscatConfig>(cfg.app);
  app.nodes = 512;
  app.iterations = 260;
  app.seed = seed;
  return cfg;
}

/// The configuration of one job.  `metrics`/`tracer` are attached only by
/// the obs workload.
core::ExperimentConfig make_config(Workload w, std::uint64_t seed,
                                   obs::Registry* metrics,
                                   obs::Tracer* tracer) {
  switch (w) {
    case Workload::kEscatPfs:
      return escat_production(seed);
    case Workload::kHtfObs: {
      core::ExperimentConfig cfg = core::htf_experiment();
      std::get<apps::HtfConfig>(cfg.app).seed = seed;
      cfg.hooks.metrics = metrics;
      cfg.hooks.tracer = tracer;
      cfg.hooks.sample_period = 10.0;
      return cfg;
    }
    case Workload::kEscatPpfs: {
      core::ExperimentConfig cfg = escat_production(seed);
      cfg.filesystem =
          core::FsChoice::ppfs(ppfs::PpfsParams::write_behind_aggregation());
      cfg.checkpoint.enabled = true;
      cfg.checkpoint.every = 10;
      cfg.checkpoint.state_bytes = 1u << 20;
      cfg.checkpoint.chunk_bytes = 64u << 10;
      cfg.checkpoint.backend = ckpt::CkptBackend::kAbsorber;
      std::uint64_t state = seed;
      const double fail_at =
          in_window(state, kDiskFailWindow[0], kDiskFailWindow[1]);
      const double crash_at =
          in_window(state, kIonCrashWindow[0], kIonCrashWindow[1]);
      const double restart_at =
          crash_at + in_window(state, kIonDownFor[0], kIonDownFor[1]);
      cfg.fault_plan.add({fail_at, fault::FaultKind::kDiskFail, 0, 1, 0.0});
      cfg.fault_plan.add({crash_at, fault::FaultKind::kIonCrash, 1, 0, 0.0});
      cfg.fault_plan.add(
          {restart_at, fault::FaultKind::kIonRestart, 1, 0, 0.0});
      return cfg;
    }
  }
  throw std::logic_error("unreachable workload");
}

// --- host-time spans ---------------------------------------------------------
// Spans are kept in memory and written as Chrome JSON when the run ends.

struct HostSpan {
  std::string name;
  int job = 0;
  int parent = -1;  // index into spans, -1 for a root
  double start_s = 0.0;
  double end_s = 0.0;
};

class HostTracer {
 public:
  explicit HostTracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(4096);
  }

  int open(const std::string& name, int job) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, job, parent, seconds_since(origin_), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<HostSpan>& spans() const { return spans_; }

  /// Duration minus the part of it that child spans cover.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const HostSpan& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    return self;
  }

  [[nodiscard]] std::string chrome_json() const {
    const std::vector<double> self = self_times();
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      if (i != 0) out << ",";
      out << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << s.job << ",\"ts\":"
          << obs::format_double(s.start_s * 1e6)
          << ",\"dur\":" << obs::format_double((s.end_s - s.start_s) * 1e6)
          << ",\"args\":{\"job\":" << s.job << ",\"id\":" << i
          << ",\"parent\":" << s.parent
          << ",\"self_us\":" << obs::format_double(self[i] * 1e6) << "}}";
    }
    out << "\n]}\n";
    return out.str();
  }

 private:
  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
  std::vector<int> stack_;
};

/// Times one layer call: always measures its host seconds into `*out` (when
/// given), and records a span when a tracer is attached.
class Timed {
 public:
  Timed(HostTracer* tracer, const char* name, int job, double* out)
      : tracer_(tracer), out_(out), t0_(Clock::now()) {
    if (tracer_ != nullptr) id_ = tracer_->open(name, job);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    if (tracer_ != nullptr) tracer_->close(id_);
    if (out_ != nullptr) *out_ = seconds_since(t0_);
  }

 private:
  HostTracer* tracer_;
  double* out_;
  Clock::time_point t0_;
  int id_ = -1;
};

// --- one characterization job ------------------------------------------------

/// Deterministic counts of one job; the exact-repeat check compares them.
struct JobCounts {
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;   // ::operator new calls inside run_experiment
  std::uint64_t frames = 0;   // sim::arena pool allocations inside it
  std::uint64_t fs_ops = 0;
  std::uint64_t fs_bytes = 0;
  std::uint64_t degraded = 0;
  double sim_end = 0.0;

  friend bool operator==(const JobCounts&, const JobCounts&) = default;
};

struct JobRecord {
  double job_s = 0.0;
  double simulate_s = 0.0;
  double tables_s = 0.0;
  double sddf_write_s = 0.0;
  double sddf_read_s = 0.0;
  double dump_s = 0.0;
  double chrome_s = 0.0;
  double recover_s = 0.0;
  std::uint64_t sddf_bytes = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t obs_series = 0;
  std::uint64_t obs_samples = 0;
  std::uint64_t obs_spans = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> errors;
  JobCounts counts;
  // Layer stats taken from the job's ExperimentResult.
  fault::RecoveryStats recovery;
  std::uint64_t faults_injected = 0;
  ckpt::CheckpointStats checkpoint;
  std::uint64_t log_records = 0;
  double run_span = 0.0;  // simulated run_end - run_start
};

// The mounted file system's operation and byte totals (pfs.ops, pfs.bytes).
std::uint64_t fs_ops(const pfs::PfsCounters& c) {
  return c.reads + c.writes + c.seeks + c.opens + c.closes;
}
std::uint64_t fs_ops(const ppfs::PpfsCounters& c) { return c.reads + c.writes; }
template <typename Counters>
std::uint64_t fs_bytes(const Counters& c) {
  return c.bytes_read + c.bytes_written;
}

/// Runs one job.  `expected_hash` is the first job's trace hash (0 while
/// running that first job).
JobRecord run_job(Workload w, std::uint64_t seed, HostTracer* tracer, int job,
                  std::uint64_t expected_hash) {
  JobRecord rec;
  const bool ppfs = w == Workload::kEscatPpfs;
  Timed job_span(tracer, "job", job, &rec.job_s);

  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<obs::Tracer> sim_tracer;
  core::ExperimentConfig cfg;
  {
    Timed t(tracer, "configure", job, nullptr);
    if (w == Workload::kHtfObs) {
      metrics = std::make_unique<obs::Registry>();
      sim_tracer = std::make_unique<obs::Tracer>();
    }
    cfg = make_config(w, seed, metrics.get(), sim_tracer.get());
  }

  std::optional<core::ExperimentResult> r;
  {
    Timed t(tracer, "run_experiment", job, &rec.simulate_s);
    // Counted inside the span so the span's own bookkeeping is excluded.
    const std::uint64_t allocs0 = g_allocs;
    const std::uint64_t frames0 = sim::arena::stats().pool_allocs;
    r.emplace(core::run_experiment(cfg));
    rec.counts.allocs = g_allocs - allocs0;
    rec.counts.frames = sim::arena::stats().pool_allocs - frames0;
  }
  const pablo::Trace& trace = r->trace;
  rec.counts.events = r->kernel_events;
  rec.counts.ops = trace.size();
  rec.counts.fs_ops = ppfs ? fs_ops(r->ppfs_counters) : fs_ops(r->pfs_counters);
  rec.counts.fs_bytes =
      ppfs ? fs_bytes(r->ppfs_counters) : fs_bytes(r->pfs_counters);
  rec.counts.degraded = r->raid_faults.degraded_accesses;
  rec.counts.sim_end = r->run_end;
  rec.recovery = r->recovery;
  rec.faults_injected = r->faults_injected;
  rec.checkpoint = r->checkpoint;
  rec.run_span = r->run_end - r->run_start;

  // Outputs: the paper's tables (per phase for HTF), rendered as text.
  std::string tables;
  std::uint64_t all_io = 0;
  {
    Timed t(tracer, "tables", job, &rec.tables_s);
    if (w == Workload::kHtfObs) {
      double t0 = r->run_start;
      for (const char* phase : {"psetup", "pargos", "pscf"}) {
        const double t1 = r->phases.end_of(phase);
        const analysis::OperationTable ops(trace, t0, t1);
        tables += analysis::to_text(ops, phase);
        tables += analysis::to_text(analysis::SizeTable(trace, t0, t1), phase);
        all_io += ops.all().count;
        t0 = t1;
      }
    } else {
      const analysis::OperationTable ops(trace);
      tables += analysis::to_text(ops, "Table 1");
      tables += analysis::to_text(analysis::SizeTable(trace), "Table 2");
      all_io = ops.all().count;
    }
  }

  std::optional<pablo::Trace> read_back;
  std::string dump;
  std::string chrome;
  std::optional<ckpt::RecoveredState> recovered;
  if (w == Workload::kEscatPfs) {
    std::string sddf;
    {
      Timed t(tracer, "sddf_write", job, &rec.sddf_write_s);
      std::ostringstream out;
      pablo::write_trace(out, trace);
      sddf = std::move(out).str();
    }
    rec.sddf_bytes = sddf.size();
    Timed t(tracer, "sddf_read", job, &rec.sddf_read_s);
    std::istringstream in(std::move(sddf));
    read_back.emplace(pablo::read_trace(in));
  }
  if (w == Workload::kHtfObs) {
    {
      Timed t(tracer, "dump", job, &rec.dump_s);
      dump = metrics->dump_text();
    }
    {
      Timed t(tracer, "chrome", job, &rec.chrome_s);
      chrome = obs::chrome_trace_text(*sim_tracer, metrics.get());
    }
    rec.export_bytes = dump.size() + chrome.size();
    rec.obs_series = metrics->counters().size() + metrics->gauges().size() +
                     metrics->histograms().size();
    rec.obs_samples = metrics->samples().size();
    rec.obs_spans = sim_tracer->spans().size();
  }
  if (ppfs) {
    Timed t(tracer, "recover", job, &rec.recover_s);
    if (r->ckpt_log) {
      recovered = ckpt::recover(*r->ckpt_log);
      rec.log_records = r->ckpt_log->record_count();
    }
  }

  {
    Timed t(tracer, "check", job, nullptr);
    auto fail = [&rec](std::string why) { rec.errors.push_back(std::move(why)); };
    rec.trace_hash = testkit::hash_trace(trace);
    if (expected_hash != 0 && rec.trace_hash != expected_hash) {
      fail("trace hash differs from the first job's");
    }
    if (all_io != trace.size()) fail("OperationTable 'All I/O' != trace size");
    if (tables.empty()) fail("no table output");
    if (read_back && testkit::hash_trace(*read_back) != rec.trace_hash) {
      fail("SDDF read-back hashes differently from the written trace");
    }
    if (w == Workload::kHtfObs) {
      std::string error;
      if (!obs::validate_json(chrome, &error)) {
        fail("Chrome trace is not valid JSON: " + error);
      }
      if (dump.empty()) fail("empty metrics dump");
    }
    if (ppfs) {
      if (!recovered) {
        fail("absorber run left no checkpoint log");
      } else if (recovered->epoch != r->checkpoint.committed_epoch ||
                 recovered->digest != r->checkpoint.committed_digest ||
                 recovered->epoch == 0) {
        fail("ckpt::recover disagrees with the committed epoch/digest");
      }
    }
    const fault::RecoveryStats& rs = r->recovery;
    if (rs.requests != rs.ok + rs.failed) {
      fail("RecoveryStats: requests != ok + failed");
    }
    rec.failed_ops = rs.failed + (rec.errors.empty() ? 0 : trace.size());
  }
  {
    // What the job leaves behind is freed inside the job, not after it.
    Timed t(tracer, "release", job, nullptr);
    r.reset();
    read_back.reset();
    metrics.reset();
    sim_tracer.reset();
    std::string().swap(dump);
    std::string().swap(chrome);
  }
  return rec;
}

// --- the stack-depth ladder --------------------------------------------------

/// Records, in execution order, the absolute times each executed event
/// schedules, so the kernel's schedule can be replayed with no model code.
class ScheduleRecorder final : public sim::EngineObserver {
 public:
  void on_schedule(sim::SimTime now, sim::SimTime when) override {
    (void)now;
    when_.push_back(when);
  }
  void on_event(sim::SimTime when) override {
    (void)when;
    first_child_.push_back(when_.size());
  }

  [[nodiscard]] std::size_t events() const { return first_child_.size(); }

  /// Replays the schedule on a fresh engine with no-op actions; returns the
  /// number of events executed.
  std::uint64_t replay() const {
    struct Replayer {
      const ScheduleRecorder& rec;
      sim::Engine engine;
      std::size_t next_event = 0;
      std::size_t next_schedule = 0;

      void schedule_until(std::size_t end) {
        for (; next_schedule < end; ++next_schedule) {
          engine.call_at(rec.when_[next_schedule], [this] { fire(); });
        }
      }
      void fire() {
        const std::size_t i = next_event++;
        schedule_until(i + 1 < rec.first_child_.size()
                           ? rec.first_child_[i + 1]
                           : rec.when_.size());
      }
    };
    Replayer replayer{*this, {}, 0, 0};
    replayer.schedule_until(first_child_.empty() ? when_.size()
                                                 : first_child_[0]);
    replayer.engine.run();
    return replayer.engine.events_executed();
  }

 private:
  std::vector<sim::SimTime> when_;
  std::vector<std::size_t> first_child_;
};

/// What a composed stack reports: the guard counts run_experiment must
/// agree with, plus the layer stats run_experiment does not expose.
struct StackResult {
  std::uint64_t events = 0;
  double run_end = 0.0;
  std::uint64_t fs_ops = 0;
  std::uint64_t fs_bytes = 0;
  pablo::Trace trace;  // empty when the rung has no InstrumentedFs
  std::uint64_t disk_requests = 0;
  double disk_busy = 0.0;
  double disk_queue = 0.0;
  std::uint64_t degraded = 0;
  double client_hit_ratio = 0.0;
  double extents_per_flush = 0.0;
  double ion_aggregation = 0.0;
  std::uint64_t ion_batches = 0;
};

enum class Depth { kBare, kPablo, kObs };

template <typename App>
sim::Task<> drive(App& app, io::FileSystem& bare, sim::Engine& engine,
                  StackResult& out) {
  co_await app.stage(bare);
  co_await app.run();
  out.run_end = engine.now();
}

/// Builds the workload's stack from public constructors, the way
/// run_experiment does, down to `depth`: kBare runs the application straight
/// on the mounted file system, kPablo adds InstrumentedFs with a full Trace,
/// kObs also attaches metrics, tracer and sampler (as the obs workload does).
StackResult run_stack(const core::ExperimentConfig& cfg, Depth depth) {
  StackResult out;
  sim::Engine engine;
  engine.set_tie_break_seed(cfg.tie_break_seed);
  hw::Machine machine(engine, cfg.machine);

  std::optional<obs::Registry> metrics;
  std::optional<obs::Tracer> tracer;
  if (depth == Depth::kObs) {
    metrics.emplace();
    tracer.emplace();
    machine.attach_metrics(*metrics);
    tracer->bind(engine);
  }
  obs::Registry* m = metrics ? &*metrics : nullptr;
  obs::Tracer* t = tracer ? &*tracer : nullptr;
  std::optional<obs::Sampler> sampler;
  if (m != nullptr && cfg.hooks.sample_period > 0.0) {
    sampler.emplace(engine, *m, cfg.hooks.sample_period);
  }
  std::optional<fault::FaultInjector> injector;
  if (!cfg.fault_plan.empty()) {
    injector.emplace(engine, machine, cfg.fault_plan, m, t);
  }

  std::unique_ptr<pfs::Pfs> pfs_fs;
  std::unique_ptr<ppfs::Ppfs> ppfs_fs;
  io::FileSystem* bare = nullptr;
  if (cfg.filesystem.kind == core::FsChoice::Kind::kPfs) {
    pfs_fs = std::make_unique<pfs::Pfs>(machine, cfg.filesystem.pfs_params);
    pfs_fs->attach_observability(m, t);
    bare = pfs_fs.get();
  } else {
    ppfs_fs = std::make_unique<ppfs::Ppfs>(machine, cfg.filesystem.ppfs_params);
    ppfs_fs->attach_observability(m, t);
    bare = ppfs_fs.get();
  }

  pablo::InstrumentedFs instrumented(*bare, engine);
  instrumented.add_sink(out.trace);
  io::FileSystem& app_fs =
      depth == Depth::kBare ? *bare : static_cast<io::FileSystem&>(instrumented);

  std::optional<ckpt::WriteAbsorber> absorber;
  std::optional<ckpt::CheckpointCoordinator> coordinator;
  if (cfg.checkpoint.enabled) {
    if (cfg.checkpoint.backend == ckpt::CkptBackend::kAbsorber) {
      absorber.emplace(*ppfs_fs, cfg.absorber);
      absorber->attach_observability(m, t);
    }
    const std::uint32_t parties =
        std::holds_alternative<apps::EscatConfig>(cfg.app)
            ? std::get<apps::EscatConfig>(cfg.app).nodes
            : std::get<apps::HtfConfig>(cfg.app).nodes;
    coordinator.emplace(machine, parties, cfg.checkpoint,
                        absorber ? &*absorber : nullptr,
                        absorber ? nullptr : bare);
    coordinator->attach_observability(m, t);
  }
  apps::CheckpointHook* hook = coordinator ? &*coordinator : nullptr;

  if (const auto* escat = std::get_if<apps::EscatConfig>(&cfg.app)) {
    apps::Escat app(machine, app_fs, *escat);
    app.set_checkpoint(hook);
    engine.spawn(drive(app, *bare, engine, out));
    engine.run();
  } else {
    apps::Htf app(machine, app_fs, std::get<apps::HtfConfig>(cfg.app));
    app.set_checkpoint(hook);
    engine.spawn(drive(app, *bare, engine, out));
    engine.run();
  }

  out.events = engine.events_executed();
  for (std::size_t k = 0; k < machine.io_nodes(); ++k) {
    const hw::Raid3Array& array = machine.ion_array(k);
    out.disk_requests += array.stats().requests;
    out.disk_busy += array.stats().busy_time;
    out.disk_queue += array.stats().queue_time;
    out.degraded += array.fault_stats().degraded_accesses;
  }
  if (pfs_fs) {
    out.fs_ops = fs_ops(pfs_fs->counters());
    out.fs_bytes = fs_bytes(pfs_fs->counters());
  }
  if (ppfs_fs) {
    const ppfs::PpfsCounters& c = ppfs_fs->counters();
    out.fs_ops = fs_ops(c);
    out.fs_bytes = fs_bytes(c);
    out.extents_per_flush =
        c.flushes != 0 ? static_cast<double>(c.flush_extents) /
                             static_cast<double>(c.flushes)
                       : 0.0;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (std::size_t n = 0; n < machine.compute_nodes(); ++n) {
      const ppfs::CacheStats& s =
          ppfs_fs->node_cache(static_cast<io::NodeId>(n)).stats();
      hits += s.hits;
      lookups += s.hits + s.misses;
    }
    out.client_hit_ratio =
        lookups != 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0;
    std::uint64_t requests = 0;
    std::uint64_t accesses = 0;
    for (std::size_t k = 0; k < machine.io_nodes(); ++k) {
      const ppfs::IonServerStats& s = ppfs_fs->ion_stats(k);
      requests += s.requests;
      accesses += s.disk_accesses;
      out.ion_batches += s.batches;
    }
    out.ion_aggregation = accesses != 0 ? static_cast<double>(requests) /
                                              static_cast<double>(accesses)
                                        : 0.0;
  }
  return out;
}

// --- output ------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i != 0) out += ", ";
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", entries_[i].value);
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string json_string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"";
    for (const char c : items[i]) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\"";
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Highest percentile with at least ten samples beyond it (nearest-rank), or
/// the median when there are too few samples; `pct` receives which one.
double tail(std::vector<double> v, double* pct) {
  std::sort(v.begin(), v.end());
  if (v.size() <= 20) {
    *pct = 50.0;
    return median(v);
  }
  const std::size_t rank = v.size() - 10;  // 1-based rank of the tail sample
  *pct = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  return v[rank - 1];
}

struct Args {
  Workload workload = Workload::kEscatPfs;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "measure";
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      a.workload = parse_workload(value);
    } else if (arg == "--seed") {
      a.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value);
    } else if (arg == "--mode") {
      a.mode = value;
    } else if (arg == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (a.mode != "setup" && a.mode != "measure" && a.mode != "trace") {
    throw std::invalid_argument("unknown mode " + a.mode);
  }
  return a;
}

void note_errors(const JobRecord& rec, int job, std::vector<std::string>& all) {
  for (const std::string& e : rec.errors) {
    all.push_back("job " + std::to_string(job) + ": " + e);
  }
}

int measure(const Args& args, const JobRecord& warm) {
  const std::uint64_t expected_hash = warm.trace_hash;
  std::vector<double> job_s;
  std::vector<double> ops_per_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  note_errors(warm, 0, errors);
  const Clock::time_point t0 = Clock::now();
  for (int job = 1; job == 1 || seconds_since(t0) < args.seconds; ++job) {
    const JobRecord rec =
        run_job(args.workload, args.seed, nullptr, job, expected_hash);
    job_s.push_back(rec.job_s);
    ops_per_s.push_back(static_cast<double>(rec.counts.ops) / rec.simulate_s);
    attempted += rec.counts.ops;
    failed += rec.failed_ops;
    note_errors(rec, job, errors);
  }
  double tail_pct = 0.0;
  const double job_tail = tail(job_s, &tail_pct);
  Metrics m;
  m.add("job_s", median(job_s), "s");
  m.add("job_s_tail", job_tail, "s");
  m.add("ops_per_s", median(ops_per_s), "ops/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("failed_op_frac",
        static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"jobs\": %zu, "
      "\"tail_percentile\": %.4g, \"errors\": %s, \"metrics\": %s}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), job_s.size(), tail_pct,
      json_string_list(errors).c_str(), m.json().c_str());
  return 0;
}

int trace_run(const Args& args, const JobRecord& warm,
              Clock::time_point origin) {
  const Workload w = args.workload;
  const std::uint64_t expected_hash = warm.trace_hash;
  HostTracer tracer(origin);
  std::vector<std::string> errors;
  note_errors(warm, 0, errors);
  std::vector<double> untraced_job_s;
  std::vector<JobRecord> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Untraced and traced jobs alternate so drift hits both alike.
  const Clock::time_point t0 = Clock::now();
  for (int job = 1; job <= 4 || seconds_since(t0) < args.seconds; ++job) {
    const bool traced_job = job % 2 == 0;
    JobRecord rec = run_job(w, args.seed, traced_job ? &tracer : nullptr, job,
                            expected_hash);
    attempted += rec.counts.ops;
    failed += rec.failed_ops;
    note_errors(rec, job, errors);
    if (traced_job) {
      traced.push_back(std::move(rec));
    } else {
      untraced_job_s.push_back(rec.job_s);
    }
  }
  for (std::size_t i = 1; i < traced.size(); ++i) {
    if (!(traced[i].counts == traced[0].counts)) {
      errors.push_back(
          "exact-repeat check: deterministic counts differ between traced "
          "jobs at the same seed");
      std::fprintf(stderr,
                   "paraio_perfbench: EXACT-REPEAT FAILURE: events %llu vs "
                   "%llu, ops %llu vs %llu, allocs %llu vs %llu\n",
                   static_cast<unsigned long long>(traced[i].counts.events),
                   static_cast<unsigned long long>(traced[0].counts.events),
                   static_cast<unsigned long long>(traced[i].counts.ops),
                   static_cast<unsigned long long>(traced[0].counts.ops),
                   static_cast<unsigned long long>(traced[i].counts.allocs),
                   static_cast<unsigned long long>(traced[0].counts.allocs));
    }
  }

  // The ladder: record the kernel schedule once, then replay it and run the
  // composed stacks at each depth, each `kReps` times.
  const core::ExperimentConfig plain = make_config(w, args.seed, nullptr, nullptr);
  const JobCounts& jc = traced.front().counts;
  ScheduleRecorder recorder;
  {
    Timed t(&tracer, "ladder.record", 0, nullptr);
    core::ExperimentConfig cfg = plain;
    cfg.hooks.engine = &recorder;
    (void)core::run_experiment(cfg);
  }
  constexpr int kReps = 3;
  const Depth top = w == Workload::kHtfObs ? Depth::kObs : Depth::kPablo;
  std::vector<double> replay_s, bare_s, pablo_s, obs_s;
  std::vector<StackResult> stacks;
  bool replay_ok = recorder.events() == jc.events;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      double s = 0.0;
      std::uint64_t replayed = 0;
      {
        Timed t(&tracer, "ladder.replay", 0, &s);
        replayed = recorder.replay();
      }
      replay_ok = replay_ok && replayed == jc.events;
      replay_s.push_back(s);
    }
    for (Depth d : {Depth::kBare, Depth::kPablo, Depth::kObs}) {
      if (d > top) break;
      static const char* const kNames[] = {"ladder.bare", "ladder.pablo",
                                           "ladder.obs"};
      double s = 0.0;
      StackResult sr;
      {
        Timed t(&tracer, kNames[static_cast<int>(d)], 0, &s);
        sr = run_stack(plain, d);
      }
      (d == Depth::kBare ? bare_s : d == Depth::kPablo ? pablo_s : obs_s)
          .push_back(s);
      if (sr.events != jc.events || sr.run_end != jc.sim_end ||
          sr.fs_ops != jc.fs_ops || sr.fs_bytes != jc.fs_bytes ||
          sr.degraded != jc.degraded) {
        errors.push_back(std::string(kNames[static_cast<int>(d)]) +
                         ": composed stack disagrees with run_experiment");
      }
      if (d != Depth::kBare &&
          testkit::hash_trace(sr.trace) != traced.front().trace_hash) {
        errors.push_back(std::string(kNames[static_cast<int>(d)]) +
                         ": trace hash differs from run_experiment's");
      }
      if (!stacks.empty() && d == Depth::kPablo &&
          (sr.disk_requests != stacks.front().disk_requests ||
           sr.disk_busy != stacks.front().disk_busy)) {
        errors.push_back("exact-repeat check: hw counts differ between runs");
      }
      if (d == Depth::kPablo) {
        sr.trace.clear();
        stacks.push_back(std::move(sr));
      }
    }
  }
  if (!replay_ok) {
    std::fprintf(stderr,
                 "paraio_perfbench: replay executed a different number of "
                 "events than recorded; sim.replay_s is missing\n");
  }

  // Per-layer figures.
  auto med = [&traced](double JobRecord::*field) {
    std::vector<double> v;
    for (const JobRecord& r : traced) v.push_back(r.*field);
    return median(v);
  };
  const JobRecord& first = traced.front();
  const StackResult& st = stacks.front();
  const double ops = static_cast<double>(jc.ops);
  const double events = static_cast<double>(jc.events);
  const double simulate = med(&JobRecord::simulate_s);
  const double job = med(&JobRecord::job_s);
  const double replay = median(replay_s);
  const double bare = median(bare_s);
  const double pablo_rung = median(pablo_s);
  const double top_rung = top == Depth::kObs ? median(obs_s) : pablo_rung;

  // Self time of each traced job's root span: the part no layer span covers.
  std::vector<double> unattributed;
  const std::vector<double> self = tracer.self_times();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const HostSpan& s = tracer.spans()[i];
    if (s.name == "job") unattributed.push_back(self[i] / (s.end_s - s.start_s));
  }

  Metrics m;
  m.add("core.simulate_s", simulate, "s");
  m.add("core.allocs_per_op", static_cast<double>(jc.allocs) / ops, "count");
  m.add("core.bare_s", bare, "s");
  m.add("core.model_s", bare - replay, "s");
  m.add("sim.events", events, "count");
  m.add("sim.events_per_op", events / ops, "count");
  m.add("sim.frames_per_op", static_cast<double>(jc.frames) / ops, "count");
  if (replay_ok) {
    m.add("sim.replay_s", replay, "s");
    m.add("sim.replay_ns_per_event", replay / events * 1e9, "ns");
  }
  m.add("sim.sim_time_s", jc.sim_end, "s");
  m.add("pablo.ops", ops, "count");
  m.add("pablo.capture_s", pablo_rung - bare, "s");
  m.add("pablo.capture_ns_per_op", (pablo_rung - bare) / ops * 1e9, "ns");
  m.add("pablo.sddf_write_s", med(&JobRecord::sddf_write_s), "s");
  m.add("pablo.sddf_read_s", med(&JobRecord::sddf_read_s), "s");
  m.add("pablo.sddf_bytes", static_cast<double>(first.sddf_bytes), "bytes");
  m.add("analysis.tables_s", med(&JobRecord::tables_s), "s");
  m.add("obs.attach_s", top == Depth::kObs ? top_rung - pablo_rung : 0.0, "s");
  m.add("obs.dump_s", med(&JobRecord::dump_s), "s");
  m.add("obs.chrome_s", med(&JobRecord::chrome_s), "s");
  m.add("obs.export_bytes", static_cast<double>(first.export_bytes), "bytes");
  m.add("obs.series", static_cast<double>(first.obs_series), "count");
  m.add("obs.samples", static_cast<double>(first.obs_samples), "count");
  m.add("obs.spans", static_cast<double>(first.obs_spans), "count");
  m.add("ppfs.client_hit_ratio", st.client_hit_ratio, "ratio");
  m.add("ppfs.extents_per_flush", st.extents_per_flush, "count");
  m.add("ppfs.ion_aggregation", st.ion_aggregation, "ratio");
  m.add("ppfs.ion_batches", static_cast<double>(st.ion_batches), "count");
  const fault::RecoveryStats& rs = first.recovery;
  m.add("fault.injected", static_cast<double>(first.faults_injected), "count");
  m.add("fault.retries", static_cast<double>(rs.retries), "count");
  m.add("fault.failovers", static_cast<double>(rs.failovers), "count");
  m.add("fault.ok_ratio",
        rs.requests != 0 ? static_cast<double>(rs.ok) /
                               static_cast<double>(rs.requests)
                         : 1.0,
        "ratio");
  m.add("fault.dirty_bytes_lost", static_cast<double>(rs.dirty_bytes_lost),
        "bytes");
  m.add("ckpt.commits", static_cast<double>(first.checkpoint.epochs_committed),
        "count");
  m.add("ckpt.log_records", static_cast<double>(first.log_records), "count");
  m.add("ckpt.overhead_sim_frac",
        first.run_span > 0.0 ? first.checkpoint.checkpoint_time / first.run_span
                             : 0.0,
        "ratio");
  m.add("ckpt.recover_s", med(&JobRecord::recover_s), "s");
  m.add("pfs.ops", static_cast<double>(jc.fs_ops), "count");
  m.add("pfs.bytes", static_cast<double>(jc.fs_bytes), "bytes");
  m.add("hw.disk_requests", static_cast<double>(st.disk_requests), "count");
  m.add("hw.disk_busy_sim_s", st.disk_busy, "s");
  m.add("hw.disk_queue_sim_s", st.disk_queue, "s");
  m.add("hw.degraded_accesses", static_cast<double>(jc.degraded), "count");
  m.add("bench.tracing_overhead_frac", job / median(untraced_job_s) - 1.0,
        "ratio");
  m.add("bench.job_unattributed_frac", median(unattributed), "ratio");
  m.add("bench.ladder_coverage", top_rung / simulate, "ratio");

  if (!args.trace_out.empty()) {
    const std::string json = tracer.chrome_json();
    std::string error;
    if (!obs::validate_json(json, &error)) {
      errors.push_back("host-span Chrome JSON invalid: " + error);
    }
    std::ofstream(args.trace_out) << json;
  }
  std::printf(
      "{\"attempted\": %llu, \"failed\": %llu, \"jobs\": %zu, "
      "\"errors\": %s, \"metrics\": %s}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      traced.size() + untraced_job_s.size(), json_string_list(errors).c_str(),
      m.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  try {
    const Args args = parse(argc, argv);
    // Set-up: configure and run one untimed warm-up job, whose trace hash
    // every later job must reproduce.
    const JobRecord warm = run_job(args.workload, args.seed, nullptr, 0, 0);
    std::printf("READY %.9f\n", seconds_since(origin));
    std::fflush(stdout);
    if (args.mode == "setup") return 0;
    if (args.mode == "measure") return measure(args, warm);
    return trace_run(args, warm, origin);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paraio_perfbench: %s\n", e.what());
    return 2;
  }
}
