#include "apps/escat.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "sim/task_group.hpp"

namespace paraio::apps {

namespace {

io::OpenOptions unix_create() {
  io::OpenOptions o;
  o.mode = io::AccessMode::kUnix;
  o.create = true;
  return o;
}

io::OpenOptions unix_read() {
  io::OpenOptions o;
  o.mode = io::AccessMode::kUnix;
  return o;
}

}  // namespace

Escat::Escat(hw::Machine& machine, io::FileSystem& fs, EscatConfig config)
    : machine_(machine),
      fs_(fs),
      config_(config),
      rng_(config.seed) {
  require_nodes("ESCAT", config.nodes, machine);
  cycle_barrier_ =
      std::make_unique<sim::Barrier>(machine.engine(), config.nodes);
}

sim::Task<> Escat::stage(io::FileSystem& bare_fs) {
  // Build input files large enough that every phase-1 read is satisfied.
  // File 0 carries the bulk of the small records; 1 and 2 hold matrices.
  const std::uint64_t total =
      config_.small_reads * config_.small_read_size +
      config_.medium_reads * config_.medium_read_size;
  const std::uint64_t per_file = total / 3 + config_.medium_read_size;
  for (const char* path : kInput) {
    auto f = co_await bare_fs.open(0, path, unix_create());
    co_await f->write(per_file);
    co_await f->close();
  }
}

sim::Task<> Escat::root_initial_read() {
  // Bimodal read sizes with irregular temporal spacing (paper Figure 3):
  // many small record reads plus a few medium matrix reads, spread over the
  // three input files.
  sim::Rng rng = rng_.fork(1);
  std::array<io::FilePtr, 3> inputs;
  for (std::size_t i = 0; i < 3; ++i) {
    inputs[i] = co_await fs_.open(0, kInput[i], unix_read());
  }
  // Two header seeks (part of the paper's 12,034 total).
  co_await inputs[1]->seek(config_.small_read_size);
  co_await inputs[2]->seek(config_.small_read_size);

  for (std::uint32_t r = 0; r < config_.small_reads; ++r) {
    (void)co_await inputs[r % 3]->read(config_.small_read_size);
    if (r % 16 == 0) {
      co_await machine_.engine().delay(jittered(rng, 0.4, 0.5));
    }
  }
  for (std::uint32_t r = 0; r < config_.medium_reads; ++r) {
    (void)co_await inputs[r % 3]->read(config_.medium_read_size);
  }
  for (auto& f : inputs) co_await f->close();

  // Broadcast the problem definition to the other nodes — the workaround
  // the developers adopted after finding parallel reads slower (§5.2).
  const std::uint64_t broadcast_bytes =
      config_.small_reads * config_.small_read_size +
      config_.medium_reads * config_.medium_read_size;
  co_await machine_.net().broadcast(0, broadcast_bytes, config_.nodes);
}

sim::Task<> Escat::node_main(std::uint32_t node) {
  sim::Rng rng = rng_.fork(100 + node);

  // Phase 2: open the staging files and run the compute/write cycles.
  std::vector<io::FilePtr> staging;
  for (std::uint32_t f = 0; f < config_.outcome_files; ++f) {
    io::OpenOptions o = unix_create();
    auto file = co_await fs_.open(node, kStagingPrefix + std::to_string(f), o);
    staging.push_back(std::move(file));
  }

  const std::uint64_t block = config_.node_block();
  for (std::uint32_t iter = 0; iter < config_.iterations; ++iter) {
    // Quadrature computation; cycle time shrinks linearly across the phase.
    const double frac =
        config_.iterations > 1
            ? static_cast<double>(iter) /
                  static_cast<double>(config_.iterations - 1)
            : 0.0;
    const double base = config_.first_cycle_compute +
                        frac * (config_.last_cycle_compute -
                                config_.first_cycle_compute);
    co_await machine_.engine().delay(jittered(rng, base, 0.04));
    // Writes are synchronized among the nodes (§4.1).
    co_await cycle_barrier_->arrive_and_wait();

    for (std::uint32_t f = 0; f < config_.outcome_files; ++f) {
      const std::uint64_t offset =
          static_cast<std::uint64_t>(node) * block +
          static_cast<std::uint64_t>(iter) * config_.quad_record;
      // A node's records are contiguous, so after a write the pointer is
      // already at the next record; the code stops issuing the (redundant)
      // explicit seek for the last few cycles.  Every record still lands
      // at its calculated offset.
      if (iter < config_.iterations - config_.seek_free_iterations) {
        co_await staging[f]->seek(offset);
      }
      co_await staging[f]->write(config_.quad_record);
    }
    if (checkpoint_ != nullptr) co_await checkpoint_->at_boundary(node);
  }
  if (node == 0) phases_.mark("quadrature", machine_.engine().now());

  // Phase 3: energy-dependent computation, then reload the staged data.
  co_await machine_.engine().delay(
      jittered(rng, config_.energy_phase_compute, 0.05));
  io::OpenOptions record;
  record.mode = io::AccessMode::kRecord;
  record.parties = config_.nodes;
  record.rank = node;
  record.record_size = block;
  for (auto& f : staging) co_await f->set_mode(record);

  for (auto& f : staging) {
    (void)co_await f->read(block);  // exactly the node's own data
  }
  // Node 0 validates the staging files: each verification round resets the
  // record discipline (a collective setiomode) and rereads the first record.
  for (std::uint32_t k = 0; k < config_.verify_rereads_per_file; ++k) {
    for (auto& f : staging) co_await f->set_mode(record);
    if (node == 0) {
      for (auto& f : staging) (void)co_await f->read(block);
    }
  }
  for (auto& f : staging) co_await f->close();
  if (node == 0) phases_.mark("reload", machine_.engine().now());

  // Phase 4: funnel the linear-system pieces to node 0.
  if (node != 0) {
    co_await machine_.net().send(node, 0, 64 * 1024);
  }
}

sim::Task<> Escat::root_final_write() {
  for (std::uint32_t f = 0; f < config_.output_files; ++f) {
    auto out = co_await fs_.open(0, kOutput[f], unix_create());
    const std::uint32_t writes = config_.final_writes / config_.output_files;
    for (std::uint32_t w = 0; w < writes; ++w) {
      co_await out->write(config_.final_write_size);
    }
    co_await out->close();
  }
  phases_.mark("output", machine_.engine().now());
}

sim::Task<> Escat::run() {
  co_await root_initial_read();
  phases_.mark("initialization", machine_.engine().now());

  sim::TaskGroup group(machine_.engine());
  for (std::uint32_t node = 0; node < config_.nodes; ++node) {
    group.spawn(node_main(node));
  }
  co_await group.join();

  co_await root_final_write();
}

}  // namespace paraio::apps
