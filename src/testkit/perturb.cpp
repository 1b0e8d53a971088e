#include "testkit/perturb.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "testkit/trace_hash.hpp"

namespace paraio::testkit {

namespace {

/// Per-node sequential op streams — the structure logical_signature()
/// digests.  Used to pinpoint the first divergent event for the report.
std::map<io::NodeId, std::vector<pablo::IoEvent>> per_node(
    const pablo::Trace& trace) {
  std::map<io::NodeId, std::vector<pablo::IoEvent>> out;
  for (const pablo::IoEvent& e : trace.events()) out[e.node].push_back(e);
  return out;
}

std::string describe(const pablo::Trace& trace, const pablo::IoEvent& e) {
  std::ostringstream out;
  out << pablo::to_string(e.op) << " " << trace.file_name(e.file)
      << " off=" << e.offset << " req=" << e.requested
      << " xfer=" << e.transferred;
  return out.str();
}

/// First logical difference between two runs, node by node (timing ignored —
/// this mirrors what logical_signature() hashes).
std::string first_logical_diff(const pablo::Trace& base,
                               const pablo::Trace& alt) {
  const auto a = per_node(base);
  const auto b = per_node(alt);
  std::ostringstream out;
  for (const auto& [node, ae] : a) {
    auto it = b.find(node);
    if (it == b.end()) {
      out << "node " << node << " has " << ae.size()
          << " events in baseline, none in perturbed run";
      return out.str();
    }
    const auto& be = it->second;
    const std::size_t n = std::min(ae.size(), be.size());
    for (std::size_t i = 0; i < n; ++i) {
      const pablo::IoEvent& x = ae[i];
      const pablo::IoEvent& y = be[i];
      if (x.op == y.op && x.file == y.file && x.offset == y.offset &&
          x.requested == y.requested && x.transferred == y.transferred &&
          x.mode == y.mode) {
        continue;
      }
      out << "node " << node << " event " << i << ": baseline "
          << describe(base, x) << " vs perturbed " << describe(alt, y);
      return out.str();
    }
    if (ae.size() != be.size()) {
      out << "node " << node << ": " << ae.size()
          << " events in baseline vs " << be.size() << " perturbed";
      return out.str();
    }
  }
  for (const auto& [node, be] : b) {
    if (a.find(node) == a.end()) {
      out << "node " << node << " has " << be.size()
          << " events only in the perturbed run";
      return out.str();
    }
  }
  return "signatures differ but per-node op streams match (hash order bug?)";
}

struct RunDigests {
  std::uint64_t signature = 0;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  pablo::Trace trace;
};

RunDigests run_once(core::ExperimentConfig config, std::uint64_t seed) {
  config.tie_break_seed = seed;
  core::ExperimentResult result = core::run_experiment(config);
  RunDigests d;
  d.signature = logical_signature(result.trace);
  d.hash = hash_trace(result.trace);
  d.events = result.kernel_events;
  d.trace = std::move(result.trace);
  return d;
}

}  // namespace

PerturbResult check_schedule_invariance(const core::ExperimentConfig& config,
                                        const PerturbConfig& perturb) {
  PerturbResult out;

  RunDigests baseline = run_once(config, 0);
  out.baseline_events = baseline.events;
  out.baseline_signature = hash_hex(baseline.signature);
  out.baseline_hash = hash_hex(baseline.hash);

  int runs = perturb.shuffles;
  if (perturb.exhaustive_event_limit > 0 &&
      baseline.events <= perturb.exhaustive_event_limit) {
    runs = perturb.exhaustive_budget;
    out.exhaustive = true;
  }

  for (int i = 0; i < runs; ++i) {
    const std::uint64_t seed = perturb.base_seed + static_cast<std::uint64_t>(i);
    if (seed == 0) continue;  // seed 0 is the baseline itself
    RunDigests alt = run_once(config, seed);
    ++out.runs;

    if (alt.signature != baseline.signature) {
      Divergence d;
      d.seed = seed;
      d.what = "logical-signature";
      std::ostringstream detail;
      detail << "baseline " << hash_hex(baseline.signature) << " vs "
             << hash_hex(alt.signature) << "; "
             << first_logical_diff(baseline.trace, alt.trace)
             << "; reproduce with ExperimentConfig::tie_break_seed = " << seed;
      d.detail = detail.str();
      out.divergences.push_back(std::move(d));
      continue;
    }
    if (alt.hash != baseline.hash) {
      out.timing_only_seeds.push_back(seed);
      if (perturb.level == Invariance::kBitExact) {
        Divergence d;
        d.seed = seed;
        d.what = "bit-exact-hash";
        std::ostringstream detail;
        detail << "baseline " << hash_hex(baseline.hash) << " vs "
               << hash_hex(alt.hash)
               << " (logical signature unchanged: timing-only divergence, "
                  "typically contention for a shared resource at a shared "
                  "instant); reproduce with ExperimentConfig::tie_break_seed"
                  " = "
               << seed;
        d.detail = detail.str();
        out.divergences.push_back(std::move(d));
      }
    }
  }
  return out;
}

std::string PerturbResult::report() const {
  std::ostringstream out;
  if (ok()) {
    out << "ok (" << runs << (exhaustive ? " exhaustive" : "") << " shuffle"
        << (runs == 1 ? "" : "s") << ", baseline " << baseline_events
        << " events, signature " << baseline_signature;
    if (!timing_only_seeds.empty()) {
      out << ", " << timing_only_seeds.size()
          << " timing-only divergence(s) under contention";
    }
    out << ")";
    return out.str();
  }
  out << divergences.size() << " schedule divergence(s) across " << runs
      << " perturbed run(s):";
  for (const Divergence& d : divergences) {
    out << "\n  - seed " << d.seed << " [" << d.what << "]: " << d.detail;
  }
  return out.str();
}

}  // namespace paraio::testkit
