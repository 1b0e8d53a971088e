#include "testkit/perturb.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

/// Named counters of one run that must not depend on the schedule.
using Ledger = std::vector<std::pair<const char*, std::uint64_t>>;

/// What the logical signature (the application trace only) does not see:
/// the checkpoint absorber's byte ledger, appends, commits and committed
/// digest, and the fault path's counters.  Request counts
/// (RecoveryStats::requests/ok) are left out: a drain write coalesces
/// whatever is queued, so how many there are follows timing.
Ledger side_ledger(const core::ExperimentResult& r) {
  const ckpt::AbsorberStats& a = r.absorber;
  const fault::RecoveryStats& rs = r.recovery;
  const hw::RaidFaultStats& raid = r.raid_faults;
  return {
      {"ckpt.acked_bytes", a.acked_bytes},
      {"ckpt.drained_bytes", a.drained_bytes},
      {"ckpt.resident_bytes", a.log_resident_bytes},
      {"ckpt.lost_bytes", a.dirty_bytes_lost},
      {"ckpt.appends", a.appends},
      {"ckpt.commits", r.checkpoint.epochs_committed},
      {"ckpt.committed_epoch", r.checkpoint.committed_epoch},
      {"ckpt.committed_digest", r.checkpoint.committed_digest},
      {"fault.injected", r.faults_injected},
      {"fault.failed", rs.failed},
      {"fault.retries", rs.retries},
      {"fault.timeouts", rs.timeouts},
      {"fault.refused", rs.refused},
      {"fault.failovers", rs.failovers},
      {"fault.failover_bytes", rs.failover_bytes},
      {"fault.degraded", rs.degraded},
      {"fault.dirty_bytes_lost", rs.dirty_bytes_lost},
      {"raid.disk_failures", raid.disk_failures},
      {"raid.repairs", raid.repairs},
      {"raid.degraded_accesses", raid.degraded_accesses},
      {"raid.failed_accesses", raid.failed_accesses},
      {"raid.rebuild_bytes", raid.rebuild_bytes},
  };
}

/// Empty when `alt` matches `base`, else the first differing counter.
std::string first_ledger_diff(const Ledger& base, const Ledger& alt) {
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i].second == alt[i].second) continue;
    std::ostringstream out;
    out << base[i].first << ": baseline " << base[i].second << " vs "
        << alt[i].second;
    return out.str();
  }
  return {};
}

struct RunDigests {
  std::uint64_t signature = 0;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  pablo::Trace trace;
  Ledger ledger;
  bool ledger_balanced = true;  // acked == drained + resident + lost
};

RunDigests run_once(core::ExperimentConfig config, std::uint64_t seed) {
  config.tie_break_seed = seed;
  core::ExperimentResult result = core::run_experiment(config);
  RunDigests d;
  d.signature = logical_signature(result.trace);
  d.hash = hash_trace(result.trace);
  d.events = result.kernel_events;
  d.trace = std::move(result.trace);
  d.ledger = side_ledger(result);
  const ckpt::AbsorberStats& a = result.absorber;
  d.ledger_balanced = a.acked_bytes == a.drained_bytes +
                                           a.log_resident_bytes +
                                           a.dirty_bytes_lost;
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
  // Every perturbed run must match the baseline's ledger, so the
  // baseline's balance stands for all of them.
  if (!baseline.ledger_balanced) {
    out.divergences.push_back(
        {0, "ledger",
         "absorber acked bytes != drained + resident + lost in the baseline"});
  }

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
    const std::string ledger_diff =
        first_ledger_diff(baseline.ledger, alt.ledger);
    if (!ledger_diff.empty()) {
      Divergence d;
      d.seed = seed;
      d.what = "ledger";
      d.detail = ledger_diff +
                 "; reproduce with ExperimentConfig::tie_break_seed = " +
                 std::to_string(seed);
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
