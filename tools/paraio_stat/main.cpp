// paraio-stat — run one (scaled-down) experiment with the obs layer attached
// and print a "where did simulated time go" report: top-N busiest resources,
// per-array queue-depth histograms, per-link utilization, PPFS client-cache
// hit rate, PFS mode-gate waits, and a span-time breakdown.
//
//   $ paraio_stat --app escat --nodes 8 --ions 4 --fs ppfs --top 5
//       [--metrics /tmp/m.txt] [--chrome-trace /tmp/t.json]
//
// The workload shapes are the scaled-down ones from the test suite (runs in
// milliseconds); the point of the tool is inspecting the instrumented
// machine, not reproducing the paper's tables (use examples/characterize
// for those).  When --chrome-trace is given the emitted JSON is
// re-validated with obs::validate_json and the tool exits nonzero on
// failure, so CI can use it as an end-to-end check.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/obs_options.hpp"
#include "obs/chrome.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

using namespace paraio;

namespace {

struct StatOptions {
  std::string app = "escat";
  std::string fs = "pfs";
  std::size_t nodes = 8;
  std::size_t ions = 4;
  std::size_t top = 5;
  double sample_period = 0.0;
  std::string metrics_path;
  std::string chrome_path;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--app escat|render|htf] [--nodes N] [--ions K]\n"
               "       [--fs pfs|ppfs] [--top N] [--sample-period S]\n"
               "       [--metrics PATH] [--chrome-trace PATH]\n";
  return 2;
}

/// The scaled-down application shapes from tests/testkit/test_configs.hpp,
/// with the node count taken from the command line.
core::AppConfig make_app(const StatOptions& o) {
  if (o.app == "render") {
    apps::RenderConfig c;
    c.renderers = static_cast<std::uint32_t>(o.nodes);
    c.frames = 5;
    c.large_reads_3mb = 8;
    c.large_reads_15mb = 16;
    c.header_reads = 4;
    c.frame_compute = 0.5;
    return c;
  }
  if (o.app == "htf") {
    apps::HtfConfig c;
    c.nodes = static_cast<std::uint32_t>(o.nodes);
    c.integral_writes_total = 40;
    c.scf_iterations = 2;
    c.scf_extra_large_reads = 3;
    c.integral_compute_per_record = 1.0;
    c.scf_compute_per_iteration = 5.0;
    c.setup_compute = 2.0;
    return c;
  }
  apps::EscatConfig c;
  c.nodes = static_cast<std::uint32_t>(o.nodes);
  c.iterations = 6;
  c.seek_free_iterations = 2;
  c.first_cycle_compute = 5.0;
  c.last_cycle_compute = 2.0;
  c.energy_phase_compute = 3.0;
  return c;
}

pfs::PfsParams pfs_params_for(const std::string& app) {
  if (app == "render") return core::render_pfs_params();
  if (app == "htf") return core::htf_pfs_params();
  return core::escat_pfs_params();
}

void print_rule(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

}  // namespace

int main(int argc, char** argv) {
  StatOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--app") {
      opt.app = value();
    } else if (arg == "--nodes") {
      opt.nodes = core::parse_count_flag(arg, value());
    } else if (arg == "--ions") {
      opt.ions = core::parse_count_flag(arg, value());
    } else if (arg == "--top") {
      opt.top = core::parse_count_flag(arg, value());
    } else if (arg == "--fs") {
      opt.fs = value();
    } else if (arg == "--sample-period") {
      opt.sample_period = core::parse_sample_period(value());
    } else if (arg == "--metrics") {
      opt.metrics_path = value();
    } else if (arg == "--chrome-trace") {
      opt.chrome_path = value();
    } else {
      return usage(argv[0]);
    }
  }
  if ((opt.app != "escat" && opt.app != "render" && opt.app != "htf") ||
      (opt.fs != "pfs" && opt.fs != "ppfs") || opt.nodes == 0 ||
      opt.ions == 0) {
    return usage(argv[0]);
  }

  core::ExperimentConfig cfg;
  const std::size_t machine_nodes =
      opt.app == "render" ? opt.nodes + 1 : opt.nodes;  // +1 gateway
  cfg.machine = hw::MachineConfig::paragon_xps(machine_nodes, opt.ions);
  cfg.filesystem = opt.fs == "ppfs"
                       ? core::FsChoice::ppfs(
                             ppfs::PpfsParams::write_behind_aggregation())
                       : core::FsChoice::pfs(pfs_params_for(opt.app));
  cfg.app = make_app(opt);

  obs::Registry registry;
  obs::Tracer tracer;
  cfg.hooks.metrics = &registry;
  cfg.hooks.tracer = &tracer;
  cfg.hooks.sample_period = opt.sample_period;

  const core::ExperimentResult r = core::run_experiment(cfg);
  const double total = r.run_end;  // staging + measured run

  std::printf("paraio-stat: %s on %zu nodes / %zu I/O nodes, %s mount\n",
              opt.app.c_str(), opt.nodes, opt.ions, opt.fs.c_str());
  std::printf("simulated time: %.6f s total (measured run %.6f s)\n", total,
              r.run_end - r.run_start);

  // Where did simulated time go, by resource: every *.busy_s gauge,
  // busiest first (name is the tiebreak, so output is deterministic).
  print_rule("busiest resources");
  std::vector<std::pair<std::string, double>> busy;
  for (const auto& [name, gauge] : registry.gauges()) {
    if (name.ends_with(".busy_s")) busy.emplace_back(name, gauge.value());
  }
  std::stable_sort(busy.begin(), busy.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (busy.size() > opt.top) busy.resize(opt.top);
  for (const auto& [name, seconds] : busy) {
    std::printf("  %-28s %12.6f s  %5.1f%% of run\n", name.c_str(), seconds,
                total > 0 ? 100.0 * seconds / total : 0.0);
  }

  // Where did simulated time go, by span category (sum over closed spans).
  print_rule("span time by name");
  std::map<std::string, std::pair<std::uint64_t, double>> by_name;
  for (const auto& span : tracer.spans()) {
    if (!span.closed()) continue;
    auto& agg = by_name[*span.name];
    agg.first += 1;
    agg.second += span.end - span.start;
  }
  std::vector<std::pair<std::string, std::pair<std::uint64_t, double>>> spans(
      by_name.begin(), by_name.end());
  std::stable_sort(spans.begin(), spans.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.second > b.second.second;
                   });
  if (spans.size() > opt.top) spans.resize(opt.top);
  for (const auto& [name, agg] : spans) {
    std::printf("  %-28s %8llu spans %12.6f s total\n", name.c_str(),
                static_cast<unsigned long long>(agg.first), agg.second);
  }

  print_rule("disk-array queue depth");
  for (const auto& [name, series] : registry.histograms()) {
    const obs::Histogram histogram = series.value();
    if (!name.starts_with("hw.array") || !name.ends_with(".qdepth") ||
        histogram.count() == 0) {
      continue;
    }
    std::printf("  %s (mean %.2f):  ", name.c_str(), histogram.mean());
    histogram.print(std::cout);
    std::printf("\n");
  }

  print_rule("link utilization");
  for (const auto& [name, gauge] : registry.gauges()) {
    if (!name.starts_with("hw.link") || !name.ends_with(".busy_s")) continue;
    if (gauge.value() <= 0.0) continue;
    std::printf("  %-28s %12.6f s  %5.1f%%\n", name.c_str(), gauge.value(),
                total > 0 ? 100.0 * gauge.value() / total : 0.0);
  }

  if (opt.fs == "ppfs") {
    print_rule("PPFS client cache");
    const std::uint64_t hits = registry.counter("ppfs.cache.hits").value();
    const std::uint64_t misses = registry.counter("ppfs.cache.misses").value();
    const std::uint64_t evictions =
        registry.counter("ppfs.cache.evictions").value();
    const std::uint64_t lookups = hits + misses;
    std::printf("  hits %llu, misses %llu, evictions %llu (hit rate %.1f%%)\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(evictions),
                lookups > 0 ? 100.0 * static_cast<double>(hits) /
                                  static_cast<double>(lookups)
                            : 0.0);
  } else {
    print_rule("PFS mode-gate waits");
    std::printf("  total wait %.6f s\n",
                registry.gauge("pfs.mode_wait_s").value());
    const obs::Histogram waits = registry.histogram("pfs.mode_wait_us").value();
    if (waits.count() > 0) {
      std::printf("  per-wait microseconds (mean %.1f):  ", waits.mean());
      waits.print(std::cout);
      std::printf("\n");
    }
  }

  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::cerr << "error: cannot open " << opt.metrics_path << "\n";
      return 1;
    }
    out << registry.dump_text();
    std::printf("\nmetrics dump written to %s\n", opt.metrics_path.c_str());
  }
  if (!opt.chrome_path.empty()) {
    const std::string json = obs::chrome_trace_text(tracer, &registry);
    std::string error;
    if (!obs::validate_json(json, &error)) {
      std::cerr << "error: emitted Chrome trace is not valid JSON: " << error
                << "\n";
      return 1;
    }
    std::ofstream out(opt.chrome_path);
    if (!out) {
      std::cerr << "error: cannot open " << opt.chrome_path << "\n";
      return 1;
    }
    out << json;
    std::printf("Chrome trace written to %s (validated; load in "
                "ui.perfetto.dev)\n",
                opt.chrome_path.c_str());
  }
  return 0;
}
