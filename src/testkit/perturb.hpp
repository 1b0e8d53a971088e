// Schedule-perturbation checking: re-run an experiment under permuted
// same-instant event tie-breaks and assert the result is schedule-invariant.
//
// The event queue breaks ties between events scheduled for the same
// simulated instant by insertion order (FIFO).  That order is an accident of
// code layout: any permutation of same-instant events is an equally valid
// causal schedule, so behavior that changes under a permutation is a hidden
// scheduling dependency — exactly the bug class the golden traces would
// otherwise bake in as "expected".
//
// Two invariance levels:
//
//   kLogical  (default) — the timing-free logical_signature() must be
//       identical under every seed.  This is the paper's characterization
//       contract (which I/O, in what per-node order) and holds for every
//       correct workload, including contended ones.
//   kBitExact — hash_trace() must be identical under every seed.  Strictly
//       stronger, and *expected to fail* for workloads where simultaneous
//       requests contend for a shared resource: the tie-break then decides
//       which request wins the queue, so durations (not just ordering)
//       legitimately shift.  Use it for workloads designed to be
//       contention-free, or to demonstrate that a divergence is caught.
//
// Under kLogical the checker still computes bit-exact digests and reports
// timing-only divergences informationally (timing_only_seeds) without
// failing the run.
//
// At both levels each run's side ledgers must match the baseline too, since
// the logical signature covers only the application trace: the checkpoint
// absorber's byte ledger (which must also balance, acked == drained +
// resident + lost), appends, commits and committed digest, and the fault
// path's counters.
//
// Seeds permute via a splitmix64 key (see EventQueue::set_tie_break_seed);
// for tiny runs exhaustive_event_limit can instead sweep a contiguous seed
// range as a bounded approximation of all interleavings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace paraio::testkit {

enum class Invariance : std::uint8_t {
  kLogical,   // logical_signature() invariant (default contract)
  kBitExact,  // hash_trace() invariant (contention-free workloads only)
};

struct PerturbConfig {
  /// Number of perturbed runs (seeds base_seed .. base_seed + shuffles - 1)
  /// compared against the baseline FIFO run (seed 0).
  int shuffles = 16;
  std::uint64_t base_seed = 1;
  /// When > 0 and the baseline run executes at most this many kernel events,
  /// the checker upgrades to a bounded exhaustive sweep of
  /// `exhaustive_budget` consecutive seeds instead of `shuffles`.
  std::uint64_t exhaustive_event_limit = 0;
  int exhaustive_budget = 64;
  Invariance level = Invariance::kLogical;
};

/// One seed whose run broke the invariance contract.
struct Divergence {
  std::uint64_t seed = 0;
  /// "logical-signature", "ledger" or "bit-exact-hash"
  std::string what;
  std::string detail;  // digests, first differing event, repro instructions
};

struct PerturbResult {
  int runs = 0;                  // perturbed runs executed (excl. baseline)
  bool exhaustive = false;       // the bounded exhaustive sweep was used
  std::uint64_t baseline_events = 0;
  std::string baseline_signature;  // hash_hex of the seed-0 logical signature
  std::string baseline_hash;       // hash_hex of the seed-0 bit-exact hash
  std::vector<Divergence> divergences;
  /// Seeds where the bit-exact hash moved but the logical signature held —
  /// informational under kLogical, already in `divergences` under kBitExact.
  std::vector<std::uint64_t> timing_only_seeds;

  [[nodiscard]] bool ok() const { return divergences.empty(); }
  /// Human-readable summary ("ok (N shuffles, ...)" when clean).
  [[nodiscard]] std::string report() const;
};

/// Runs `config` once at seed 0, then under perturbed tie-break seeds, and
/// checks the selected invariance level.  `config.tie_break_seed` is
/// overridden per run; everything else is used as given.
[[nodiscard]] PerturbResult check_schedule_invariance(
    const core::ExperimentConfig& config, const PerturbConfig& perturb = {});

}  // namespace paraio::testkit
