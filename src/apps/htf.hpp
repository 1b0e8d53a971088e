// HTF — Hartree-Fock quantum-chemistry I/O skeleton (§4.3, §7).
//
// Three programs forming a logical pipeline over files, all using M_UNIX:
//   * psetup — serial initialization on node 0: small/medium reads of the
//     basis-set input, transformed and written back for the later phases;
//   * pargos — integral calculation: every node computes two-electron
//     integrals and appends ~80 KB quadrature records to its own integral
//     file (one file per node, Figure 16), flushing after every record
//     (Table 5's 8,657 Forflush calls) — the write-intensive phase;
//   * pscf — self-consistent-field iterations: every node rereads its whole
//     integral file once per SCF iteration (the files are too large for
//     memory), making the phase overwhelmingly read-bound (98 % of I/O
//     time in Table 5).
//
// Default parameters reproduce the three sections of Tables 5-6 exactly in
// operation counts (see htf_test.cpp for the pinned arithmetic) and byte
// volumes to within 0.01 %.
#pragma once

#include <cstdint>
#include <string>

#include "apps/workload.hpp"
#include "io/file.hpp"

namespace paraio::apps {

struct HtfConfig {
  std::uint32_t nodes = 128;

  // --- psetup (serial, node 0) ---
  std::uint32_t setup_small_reads = 151;
  std::uint64_t setup_small_read_size = 2048;
  std::uint32_t setup_medium_reads = 220;
  std::uint64_t setup_medium_read_size = 14605;
  std::uint32_t setup_small_writes = 218;
  std::uint64_t setup_small_write_size = 2048;
  std::uint32_t setup_medium_writes = 234;
  std::uint64_t setup_medium_write_size = 14095;
  double setup_compute = 70.0;

  // --- pargos (integral calculation) ---
  /// Integral record size: ~80 KB, just above the < 64 KB class and four
  /// PFS stripe units short of the paper's "four times the striping factor"
  /// ceiling.
  std::uint64_t integral_record = 81918;
  /// Total large integral writes (8,532 in the paper).  Distributed as
  /// evenly as possible over the nodes: the first (total % nodes) nodes
  /// write one extra record.
  std::uint32_t integral_writes_total = 8532;
  std::uint32_t integral_small_reads = 143;
  std::uint64_t integral_small_read_size = 68;
  std::uint32_t integral_medium_reads = 2;
  std::uint64_t integral_medium_read_size = 12288;
  /// Extra node-0 flushes beyond the per-record ones (8,657 - 8,532).
  std::uint32_t integral_extra_flushes = 125;
  double integral_compute_per_record = 12.0;

  // --- pscf (self-consistent field) ---
  std::uint32_t scf_iterations = 6;
  /// Extra whole-record reads by node 0 in the final iteration, bringing
  /// large reads to the paper's 51,225 (6 x 8,532 = 51,192 + 33).
  std::uint32_t scf_extra_large_reads = 33;
  std::uint32_t scf_small_reads_initial = 3;
  std::uint32_t scf_small_reads_per_iter = 27;
  std::uint64_t scf_small_read_size = 2048;
  std::uint32_t scf_medium_reads_initial = 1;
  std::uint32_t scf_medium_reads_per_iter = 18;
  std::uint64_t scf_medium_read_size = 16384;
  std::uint32_t scf_small_writes_initial = 1;
  std::uint32_t scf_small_writes_per_iter = 7;
  std::uint64_t scf_small_write_size = 2048;
  std::uint32_t scf_medium_writes_initial = 2;
  std::uint32_t scf_medium_writes_per_iter = 26;
  std::uint64_t scf_medium_write_size = 20072;
  std::uint32_t scf_large_writes_per_iter = 1;
  std::uint64_t scf_large_write_size = 98304;
  /// Node-0 seeks per iteration in its auxiliary files, plus 2 initial,
  /// plus one rewind before the extra rereads; with the per-node rewind
  /// seeks (128 x 6) this reaches the paper's 813.
  std::uint32_t scf_aux_seeks_per_iter = 7;
  std::uint32_t scf_aux_seeks_initial = 2;
  /// Node-0 auxiliary file opens: 5 up front + 4 per iteration = 29, for
  /// the paper's 157 total opens (128 integral + 29).
  std::uint32_t scf_aux_opens_initial = 5;
  std::uint32_t scf_aux_opens_per_iter = 4;
  double scf_compute_per_iteration = 120.0;

  std::uint64_t seed = 0x47F;

  [[nodiscard]] std::uint32_t integral_writes_of(std::uint32_t node) const {
    const std::uint32_t base = integral_writes_total / nodes;
    const std::uint32_t extra = integral_writes_total % nodes;
    return base + (node < extra ? 1 : 0);
  }
};

class Htf {
 public:
  /// Throws std::invalid_argument unless 1 <= nodes <= compute nodes.
  Htf(hw::Machine& machine, io::FileSystem& fs, HtfConfig config = {});

  /// Creates the basis-set input file (uninstrumented).
  sim::Task<> stage(io::FileSystem& bare_fs);

  /// Runs psetup, pargos, and pscf back to back; phase boundaries are
  /// recorded as "psetup", "pargos", "pscf".
  sim::Task<> run();

  [[nodiscard]] const PhaseLog& phases() const noexcept { return phases_; }
  [[nodiscard]] const HtfConfig& config() const noexcept { return config_; }

  /// Installs a collective checkpoint hook, invoked by every node at each
  /// SCF-iteration boundary (uniform trip count across nodes; the uneven
  /// pargos record loop is not a boundary).  Null detaches.
  void set_checkpoint(CheckpointHook* hook) noexcept { checkpoint_ = hook; }

  static constexpr const char* kInput = "/htf/basis.in";
  static constexpr const char* kTransformed = "/htf/transformed.dat";
  static constexpr const char* kGeometry = "/htf/geometry.dat";
  static constexpr const char* kIntegralPrefix = "/htf/integrals.";
  static constexpr const char* kAuxPrefix = "/htf/scf_aux.";

 private:
  sim::Task<> psetup();
  sim::Task<> pargos_node(std::uint32_t node);
  sim::Task<> pscf_node(std::uint32_t node);

  hw::Machine& machine_;
  io::FileSystem& fs_;
  HtfConfig config_;
  PhaseLog phases_;
  sim::Rng rng_;
  CheckpointHook* checkpoint_ = nullptr;
};

}  // namespace paraio::apps
