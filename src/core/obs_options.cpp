#include "core/obs_options.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string_view>

#include "obs/chrome.hpp"

namespace paraio::core {

ObsOptions ObsOptions::parse(int argc, char** argv) {
  ObsOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--metrics") {
      opt.metrics_path_ = value();
    } else if (arg == "--chrome-trace") {
      opt.chrome_path_ = value();
    } else if (arg == "--sample-period") {
      opt.sample_period_ = std::strtod(value(), nullptr);
    }
  }
  return opt;
}

void ObsOptions::install(ExperimentConfig& config) {
  // The sampler needs the registry, and the Chrome exporter embeds counter
  // totals, so both outputs imply metrics collection.
  if (!metrics_path_.empty() || !chrome_path_.empty()) {
    config.hooks.metrics = &registry_;
  }
  if (!chrome_path_.empty()) {
    config.hooks.tracer = &tracer_;
  }
  if (sample_period_ > 0.0) {
    config.hooks.metrics = &registry_;
    config.hooks.sample_period = sample_period_;
  }
}

bool ObsOptions::finish() {
  if (!metrics_path_.empty()) {
    std::ofstream out(metrics_path_);
    if (!out) {
      std::cerr << "error: cannot open " << metrics_path_ << "\n";
      return false;
    }
    out << registry_.dump_text();
  }
  if (!chrome_path_.empty()) {
    const std::string json = obs::chrome_trace_text(tracer_, &registry_);
    std::string error;
    if (!obs::validate_json(json, &error)) {
      std::cerr << "error: emitted Chrome trace is not valid JSON: " << error
                << "\n";
      return false;
    }
    std::ofstream out(chrome_path_);
    if (!out) {
      std::cerr << "error: cannot open " << chrome_path_ << "\n";
      return false;
    }
    out << json;
  }
  return true;
}

}  // namespace paraio::core
