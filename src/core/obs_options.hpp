// Command-line plumbing for the observability layer.
//
// Every binary that runs an experiment and wants the obs layer attached
// accepts the same three flags:
//
//   --metrics PATH       write the deterministic registry dump after the run
//   --chrome-trace PATH  write a Chrome trace-event JSON (ui.perfetto.dev)
//   --sample-period S    additionally snapshot every gauge/counter each S
//                        simulated seconds (S finite and > 0; requires
//                        --metrics)
//
// ObsOptions owns the Registry and Tracer those flags imply, wires them into
// an ExperimentConfig's hooks, and writes the outputs afterwards.  The
// emitted Chrome JSON is re-validated with obs::validate_json before it is
// written, and finish() returns false on any I/O or validation failure so
// callers can exit nonzero — the same end-to-end contract paraio-stat gives
// CI (see docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace paraio::core {

/// Strict command-line numbers: the whole token must be one number
/// (std::from_chars — no sign on a count, no trailing junk).  Anything else
/// prints a message naming `flag` to stderr and exits with code 2.
[[nodiscard]] std::size_t parse_count_flag(std::string_view flag,
                                           std::string_view text);
/// The value of --sample-period: seconds, finite and > 0.
[[nodiscard]] double parse_sample_period(std::string_view text);

class ObsOptions {
 public:
  /// Scans argv for the obs flags.  Unrelated arguments are left for the
  /// caller to interpret; the flags themselves are positional-independent.
  [[nodiscard]] static ObsOptions parse(int argc, char** argv);

  /// Attaches the owned registry/tracer to `config.hooks` — only the pieces
  /// the flags asked for, so a flag-free invocation attaches nothing and the
  /// run stays on the no-observer fast path.  Call before run_experiment;
  /// this object must outlive the run.
  void install(ExperimentConfig& config);

  /// Writes the requested outputs.  Returns false (after printing a
  /// diagnostic to stderr) if a file cannot be written or the emitted
  /// Chrome trace fails JSON validation.
  [[nodiscard]] bool finish();

  [[nodiscard]] const std::string& metrics_path() const noexcept {
    return metrics_path_;
  }
  [[nodiscard]] const std::string& chrome_path() const noexcept {
    return chrome_path_;
  }
  [[nodiscard]] double sample_period() const noexcept { return sample_period_; }

 private:
  std::string metrics_path_;
  std::string chrome_path_;
  double sample_period_ = 0.0;
  obs::Registry registry_;
  obs::Tracer tracer_;
};

}  // namespace paraio::core
