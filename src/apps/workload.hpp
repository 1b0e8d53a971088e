// Shared plumbing for the application I/O skeletons.
//
// Each application is a coroutine program over an io::FileSystem handle and
// a hw::Machine (for compute delays, barriers, and message passing).  The
// skeletons reproduce the *request streams* of the paper's codes — operation
// counts, sizes, offsets, access modes, and synchronization structure — with
// compute phases modeled as calibrated delays.  Numeric work is not
// simulated; the paper's own argument (§8) is that the I/O signature, not
// the arithmetic, is what characterizes these codes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hw/machine.hpp"
#include "io/file.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace paraio::apps {

/// Throws std::invalid_argument unless 1 <= `nodes` <= the machine's
/// compute nodes; `app` names the application in the message.
inline void require_nodes(const char* app, std::uint64_t nodes,
                          const hw::Machine& machine) {
  if (nodes == 0 || nodes > machine.compute_nodes()) {
    throw std::invalid_argument(
        std::string(app) + ": " + std::to_string(nodes) +
        " nodes do not fit a machine with " +
        std::to_string(machine.compute_nodes()) + " compute nodes");
  }
}

/// Named phase boundaries recorded by each application: (name, end time).
/// The HTF per-program tables (paper Table 5) are carved out of one trace
/// using these.
class PhaseLog {
 public:
  void mark(std::string name, sim::SimTime end) {
    phases_.emplace_back(std::move(name), end);
  }
  [[nodiscard]] const std::vector<std::pair<std::string, sim::SimTime>>&
  phases() const noexcept {
    return phases_;
  }
  /// End time of the named phase; -1 if absent.
  [[nodiscard]] sim::SimTime end_of(const std::string& name) const {
    for (const auto& [n, t] : phases_) {
      if (n == name) return t;
    }
    return -1.0;
  }
  /// Start time of the named phase (end of the previous one, or 0).
  [[nodiscard]] sim::SimTime start_of(const std::string& name) const {
    sim::SimTime prev = 0.0;
    for (const auto& [n, t] : phases_) {
      if (n == name) return prev;
      prev = t;
    }
    return -1.0;
  }

 private:
  std::vector<std::pair<std::string, sim::SimTime>> phases_;
};

/// Jittered compute delay: base seconds +/- `spread` fraction, from the
/// node's private stream.  Keeps synchronized phases from being artificially
/// lock-step while staying deterministic.
inline sim::SimDuration jittered(sim::Rng& rng, double base,
                                 double spread = 0.05) {
  return base * rng.uniform(1.0 - spread, 1.0 + spread);
}

/// Collective checkpoint boundary, pluggable into every skeleton.
///
/// An application calls `at_boundary(node)` at its natural iteration edges
/// (ESCAT quadrature cycles, RENDER frames, HTF SCF iterations, synthetic
/// requests); the installed hook decides — identically on every node —
/// whether this boundary starts a checkpoint epoch, and if so dumps the
/// node's state and blocks until the epoch's consistency protocol is done.
///
/// Contract: the hook may barrier-synchronize the participating nodes, so
/// every node must reach the same boundaries the same number of times.  The
/// skeletons only place calls on loops with uniform per-node trip counts.
/// A null hook (the default) costs one pointer test per boundary.
class CheckpointHook {
 public:
  virtual ~CheckpointHook() = default;
  [[nodiscard]] virtual sim::Task<> at_boundary(std::uint32_t node) = 0;
};

}  // namespace paraio::apps
