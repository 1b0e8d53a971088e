// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace paraio::bench {

struct Options {
  bool figures = false;       // render ASCII figures
  std::string csv_dir;        // write CSV series when non-empty
  std::string json_path;      // write a machine-readable record when non-empty
};

inline Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--figures") {
      opt.figures = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      opt.csv_dir = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--figures] [--csv DIR] [--json PATH]\n"
                << "  --figures   render the paper's figures as ASCII plots\n"
                << "  --csv DIR   also write table/figure data as CSV\n"
                << "  --json PATH write a {name, params, sim_time, wall_ms, "
                   "metrics} record\n";
      std::exit(0);
    }
  }
  return opt;
}

inline void write_csv(const Options& opt, const std::string& name,
                      const std::string& contents) {
  if (opt.csv_dir.empty()) return;
  std::filesystem::create_directories(opt.csv_dir);
  std::ofstream out(opt.csv_dir + "/" + name);
  out << contents;
  std::cout << "  [csv] " << opt.csv_dir << "/" << name << "\n";
}

/// Wall-clock stopwatch for the --json record.  The simulator itself never
/// reads the host clock (paraio-lint enforces it); benches may, to report
/// how long reproducing a table took on the host.
class WallTimer {
 public:
  [[nodiscard]] double elapsed_ms() const {
    const auto end = std::chrono::steady_clock::now();  // paraio-lint: allow(wall-clock)
    return std::chrono::duration<double, std::milli>(end - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =  // paraio-lint: allow(wall-clock)
      std::chrono::steady_clock::now();  // paraio-lint: allow(wall-clock)
};

/// One machine-readable result per bench run:
///   {"name": ..., "params": {...}, "sim_time": s, "wall_ms": ms,
///    "metrics": {"counter name": v, ..., "gauge name": v, ...}}
struct JsonRecord {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;  // key -> value
  double sim_time = 0.0;       // simulated seconds (measured run)
  double wall_ms = 0.0;        // host milliseconds for the whole experiment
  const obs::Registry* metrics = nullptr;  // optional: counters + gauges
};

inline void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

/// One throughput scenario inside a multi-scenario bench (bench_micro_sim,
/// bench_production): how many kernel events (or data-structure items) were
/// processed, how long the host took, and how much simulated time was
/// covered (0 when the scenario has no simulation clock).  The JSON these
/// serialize into is the format tools/check_bench.py regression-gates
/// against; bump "schema" if a field changes meaning.
struct ScenarioRecord {
  std::string name;
  double events = 0.0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double sim_time = 0.0;
  /// Optional scenario-specific measurements (recovery counts, checkpoint
  /// overhead fractions, ...).  Serialized as a "params" object; the gate
  /// in tools/check_bench.py ignores fields it does not know, so adding
  /// entries here does not require a schema bump.
  std::vector<std::pair<std::string, double>> params;
};

inline void write_scenarios_json(const Options& opt,
                                 const std::string& bench_name,
                                 const std::vector<ScenarioRecord>& scenarios) {
  if (opt.json_path.empty()) return;
  std::string out = "{\n  \"name\": ";
  append_json_string(out, bench_name);
  out += ",\n  \"schema\": 1,\n  \"scenarios\": [";
  bool first = true;
  for (const ScenarioRecord& s : scenarios) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"name\": ";
    append_json_string(out, s.name);
    out += ", \"events\": " + obs::format_double(s.events);
    out += ", \"wall_ms\": " + obs::format_double(s.wall_ms);
    out += ", \"events_per_sec\": " + obs::format_double(s.events_per_sec);
    out += ", \"sim_time\": " + obs::format_double(s.sim_time);
    if (!s.params.empty()) {
      out += ", \"params\": {";
      bool first_param = true;
      for (const auto& [key, value] : s.params) {
        if (!first_param) out += ", ";
        first_param = false;
        append_json_string(out, key);
        out += ": " + obs::format_double(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  std::ofstream file(opt.json_path);
  file << out;
  std::cout << "  [json] " << opt.json_path << "\n";
}

inline void write_json(const Options& opt, const JsonRecord& record) {
  if (opt.json_path.empty()) return;
  std::string out = "{\n  \"name\": ";
  append_json_string(out, record.name);
  out += ",\n  \"params\": {";
  bool first = true;
  for (const auto& [key, value] : record.params) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, key);
    out += ": ";
    append_json_string(out, value);
  }
  out += "},\n  \"sim_time\": " + obs::format_double(record.sim_time);
  out += ",\n  \"wall_ms\": " + obs::format_double(record.wall_ms);
  out += ",\n  \"metrics\": {";
  first = true;
  if (record.metrics != nullptr) {
    for (const auto& [name, counter] : record.metrics->counters()) {
      if (!first) out += ",";
      first = false;
      out += "\n    ";
      append_json_string(out, name);
      out += ": " + std::to_string(counter.value());
    }
    for (const auto& [name, gauge] : record.metrics->gauges()) {
      if (!first) out += ",";
      first = false;
      out += "\n    ";
      append_json_string(out, name);
      out += ": " + obs::format_double(gauge.value());
    }
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  std::ofstream file(opt.json_path);
  file << out;
  std::cout << "  [json] " << opt.json_path << "\n";
}

}  // namespace paraio::bench
