// ESCAT — electron-scattering (Schwinger multichannel) I/O skeleton (§4.1,
// §5 of the paper).
//
// Four phases, as published:
//   1. node 0 reads the problem definition from three input files (bimodal
//      sizes, Figure 3) and broadcasts it;
//   2. all nodes run synchronized compute/write cycles, each cycle seeking
//      (M_UNIX) and appending one small quadrature record per outcome file —
//      the paper's Figure 4 write clusters, whose spacing shrinks as the
//      quadrature calculation speeds up toward the end of the phase;
//   3. the staging files are switched to M_RECORD (setiomode) and every node
//      rereads exactly the data it wrote as one large record;
//   4. results funnel to node 0, which writes three small output files.
//
// Default parameters reproduce Tables 1-2 exactly in operation counts
// (26,418 ops: 560 reads / 13,330 writes / 12,034 seeks / 262 opens /
// 262 closes) and write volume to within bytes; see escat_test.cpp for the
// pinned arithmetic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "apps/workload.hpp"
#include "io/file.hpp"
#include "sim/sync.hpp"

namespace paraio::apps {

struct EscatConfig {
  std::uint32_t nodes = 128;

  // Phase 1: initial problem input, read by node 0 only.
  std::uint32_t small_reads = 297;
  std::uint64_t small_read_size = 2048;
  std::uint32_t medium_reads = 3;
  std::uint64_t medium_read_size = 32 * 1024;

  // Phase 2: quadrature compute/write cycles.
  std::uint32_t iterations = 52;
  /// The last cycles continue sequentially from the previous write and
  /// skip the (redundant) explicit seek; 52-5 = 47 seeking iterations x
  /// 2 files x 128 nodes + 2 init seeks = the paper's 12,034 seeks.
  std::uint32_t seek_free_iterations = 5;
  std::uint64_t quad_record = 2008;
  std::uint32_t outcome_files = 2;
  /// Compute time per cycle shrinks linearly across the phase — the paper's
  /// Figure 4 observation (~160 s between write groups early, ~80 s late).
  double first_cycle_compute = 160.0;
  double last_cycle_compute = 80.0;

  // Phase 3: M_RECORD staging reread (each node reads back its own block).
  /// Extra whole-record verification rereads by node 0 (2 per outcome file),
  /// bringing phase-3 reads to the paper's 260.
  std::uint32_t verify_rereads_per_file = 2;

  // Phase 4: final linear-system output via node 0.
  std::uint32_t final_writes = 18;
  std::uint64_t final_write_size = 1477;
  std::uint32_t output_files = 3;

  double energy_phase_compute = 120.0;  ///< phase-3 setup computation
  std::uint64_t seed = 0xE5CA7;

  /// Per-node staging-file block: all of one node's quadrature data,
  /// contiguous so phase 3 can reread it with a single record access (the
  /// layout choice §5.2 explains).
  [[nodiscard]] std::uint64_t node_block() const {
    return static_cast<std::uint64_t>(iterations) * quad_record;
  }
};

class Escat {
 public:
  /// Throws std::invalid_argument unless 1 <= nodes <= compute nodes.
  Escat(hw::Machine& machine, io::FileSystem& fs, EscatConfig config = {});

  /// Creates the three input files (sized to satisfy phase 1's reads).
  /// Run this against the *uninstrumented* file system so staging does not
  /// pollute the trace.
  sim::Task<> stage(io::FileSystem& bare_fs);

  /// Runs the four-phase application to completion.
  sim::Task<> run();

  [[nodiscard]] const PhaseLog& phases() const noexcept { return phases_; }
  [[nodiscard]] const EscatConfig& config() const noexcept { return config_; }

  /// Installs a collective checkpoint hook, invoked by every node at each
  /// quadrature-cycle boundary (a uniform per-node loop).  Null detaches.
  void set_checkpoint(CheckpointHook* hook) noexcept { checkpoint_ = hook; }

  // File names (exposed for tests and benches).
  static constexpr const char* kInput[3] = {"/escat/geometry.in",
                                            "/escat/basis.in",
                                            "/escat/potential.in"};
  static constexpr const char* kStagingPrefix = "/escat/quad.";
  static constexpr const char* kOutput[3] = {"/escat/amatrix.out",
                                             "/escat/bmatrix.out",
                                             "/escat/energies.out"};

 private:
  sim::Task<> node_main(std::uint32_t node);
  sim::Task<> root_initial_read();
  sim::Task<> root_final_write();

  hw::Machine& machine_;
  io::FileSystem& fs_;
  EscatConfig config_;
  PhaseLog phases_;
  sim::Rng rng_;
  std::unique_ptr<sim::Barrier> cycle_barrier_;
  CheckpointHook* checkpoint_ = nullptr;
};

}  // namespace paraio::apps
