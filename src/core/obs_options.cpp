#include "core/obs_options.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string_view>
#include <system_error>

#include "obs/chrome.hpp"

namespace paraio::core {

namespace {

/// Parses all of `text` into `value`; false on junk or overflow.
template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [last, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && last == end;
}

[[noreturn]] void reject_flag(std::string_view flag, std::string_view text,
                              const char* expected) {
  std::cerr << flag << ": expected " << expected << ", got '" << text
            << "'\n";
  std::exit(2);
}

}  // namespace

std::size_t parse_count_flag(std::string_view flag, std::string_view text) {
  std::size_t value = 0;
  if (!parse_whole(text, value)) reject_flag(flag, text, "a whole number");
  return value;
}

double parse_sample_period(std::string_view text) {
  double value = 0.0;
  if (!parse_whole(text, value) || !std::isfinite(value) || value <= 0.0) {
    reject_flag("--sample-period", text, "a finite number of seconds > 0");
  }
  return value;
}

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
      opt.sample_period_ = parse_sample_period(value());
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
