#include "apps/htf.hpp"

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

Htf::Htf(hw::Machine& machine, io::FileSystem& fs, HtfConfig config)
    : machine_(machine), fs_(fs), config_(config), rng_(config.seed) {
  require_nodes("HTF", config.nodes, machine);
}

sim::Task<> Htf::stage(io::FileSystem& bare_fs) {
  const std::uint64_t input_bytes =
      config_.setup_small_reads * config_.setup_small_read_size +
      config_.setup_medium_reads * config_.setup_medium_read_size +
      config_.integral_small_reads * config_.integral_small_read_size +
      config_.integral_medium_reads * config_.integral_medium_read_size;
  auto f = co_await bare_fs.open(0, kInput, unix_create());
  co_await f->write(input_bytes);
  co_await f->close();
}

// --- psetup ----------------------------------------------------------------
// Serial initialization: read the basis-set input, transform, write the
// files the later phases consume.  4 opens, 3 closes, 2 seeks.

sim::Task<> Htf::psetup() {
  sim::Rng rng = rng_.fork(1);
  auto input = co_await fs_.open(0, kInput, unix_read());
  auto transformed = co_await fs_.open(0, kTransformed, unix_create());
  auto geometry = co_await fs_.open(0, kGeometry, unix_create());
  // The scratch handle the code leaks (4 opens, 3 closes in Table 5).
  auto scratch = co_await fs_.open(0, "/htf/psetup_scratch", unix_create());

  // Interleaved read/transform/write passes: reads and writes alternate in
  // small and medium granularity (Figures 9-10 show both streams active
  // through the whole program).
  const std::uint32_t rounds = 10;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    auto share = [&](std::uint32_t total) {
      return total / rounds + (round < total % rounds ? 1 : 0);
    };
    for (std::uint32_t i = 0; i < share(config_.setup_small_reads); ++i) {
      (void)co_await input->read(config_.setup_small_read_size);
    }
    for (std::uint32_t i = 0; i < share(config_.setup_medium_reads); ++i) {
      (void)co_await input->read(config_.setup_medium_read_size);
    }
    co_await machine_.engine().delay(
        jittered(rng, config_.setup_compute / rounds, 0.1));
    for (std::uint32_t i = 0; i < share(config_.setup_small_writes); ++i) {
      co_await ((round % 2 == 0) ? transformed : geometry)
          ->write(config_.setup_small_write_size);
    }
    for (std::uint32_t i = 0; i < share(config_.setup_medium_writes); ++i) {
      co_await ((round % 2 == 0) ? geometry : transformed)
          ->write(config_.setup_medium_write_size);
    }
  }
  // Rewind the outputs for verification passes by the next program.
  co_await transformed->seek(0);
  co_await geometry->seek(0);

  co_await input->close();
  co_await transformed->close();
  co_await geometry->close();
}

// --- pargos ------------------------------------------------------------
// Integral calculation: one integral file per node, ~80 KB appends with a
// Fortran flush after every record.  130 opens (128 + 2 aux by node 0),
// 129 closes, 128 lsize calls, 130 seeks.

sim::Task<> Htf::pargos_node(std::uint32_t node) {
  sim::Rng rng = rng_.fork(1000 + node);
  io::FilePtr aux_a;  // node 0: transformed data (closed)
  io::FilePtr aux_b;  // node 0: geometry (left open -> 129 closes)
  if (node == 0) {
    aux_a = co_await fs_.open(0, kTransformed, unix_read());
    aux_b = co_await fs_.open(0, kGeometry, unix_read());
    co_await aux_a->seek(0);
    co_await aux_b->seek(0);
    for (std::uint32_t i = 0; i < config_.integral_small_reads; ++i) {
      (void)co_await ((i % 2 == 0) ? aux_a : aux_b)
          ->read(config_.integral_small_read_size);
    }
    for (std::uint32_t i = 0; i < config_.integral_medium_reads; ++i) {
      (void)co_await aux_a->read(config_.integral_medium_read_size);
    }
  }

  auto integrals = co_await fs_.open(
      node, kIntegralPrefix + std::to_string(node), unix_create());
  (void)co_await integrals->size();  // lsize: restart-file check
  co_await integrals->seek(0);

  const std::uint32_t records = config_.integral_writes_of(node);
  for (std::uint32_t r = 0; r < records; ++r) {
    co_await machine_.engine().delay(
        jittered(rng, config_.integral_compute_per_record, 0.1));
    co_await integrals->write(config_.integral_record);
    co_await integrals->flush();
  }
  if (node == 0) {
    // Node 0 writes the tiny bookkeeping records (Table 6's 2 small + 1
    // medium integral-phase writes) and issues the extra flushes.
    co_await integrals->write(2048);
    co_await integrals->write(2048);
    co_await integrals->write(32768);
    for (std::uint32_t i = 0; i < config_.integral_extra_flushes; ++i) {
      co_await integrals->flush();
    }
    co_await aux_a->close();
    aux_b.reset();  // leaked handle: never closed
  }
  co_await integrals->close();
}

// --- pscf --------------------------------------------------------------
// Self-consistent field: every node rereads its integral file once per
// iteration; node 0 additionally works a set of small auxiliary files.

sim::Task<> Htf::pscf_node(std::uint32_t node) {
  sim::Rng rng = rng_.fork(2000 + node);
  auto integrals = co_await fs_.open(
      node, kIntegralPrefix + std::to_string(node), unix_read());
  const std::uint32_t records = config_.integral_writes_of(node);

  // Node 0's auxiliary working set.
  std::vector<io::FilePtr> aux;
  std::uint32_t aux_created = 0;
  io::FilePtr series_a;  // transformed: read source
  io::FilePtr series_b;  // geometry: read source
  if (node == 0) {
    series_a = co_await fs_.open(0, kTransformed, unix_read());
    series_b = co_await fs_.open(0, kGeometry, unix_read());
    for (std::uint32_t i = 2; i < config_.scf_aux_opens_initial; ++i) {
      aux.push_back(co_await fs_.open(
          0, kAuxPrefix + std::to_string(aux_created++), unix_create()));
    }
    for (std::uint32_t i = 0; i < config_.scf_aux_seeks_initial; ++i) {
      co_await ((i % 2 == 0) ? series_a : series_b)->seek(0);
    }
    for (std::uint32_t i = 0; i < config_.scf_small_reads_initial; ++i) {
      (void)co_await series_a->read(config_.scf_small_read_size);
    }
    for (std::uint32_t i = 0; i < config_.scf_medium_reads_initial; ++i) {
      (void)co_await series_b->read(config_.scf_medium_read_size);
    }
    for (std::uint32_t i = 0; i < config_.scf_small_writes_initial; ++i) {
      co_await aux[0]->write(config_.scf_small_write_size);
    }
    for (std::uint32_t i = 0; i < config_.scf_medium_writes_initial; ++i) {
      co_await aux[i % aux.size()]->write(config_.scf_medium_write_size);
    }
  }

  for (std::uint32_t iter = 0; iter < config_.scf_iterations; ++iter) {
    // Rewind and stream the whole integral file (too large for memory).
    co_await integrals->seek(0);
    for (std::uint32_t r = 0; r < records; ++r) {
      (void)co_await integrals->read(config_.integral_record);
    }
    co_await machine_.engine().delay(
        jittered(rng, config_.scf_compute_per_iteration, 0.1));

    if (node == 0) {
      for (std::uint32_t i = 0; i < config_.scf_aux_opens_per_iter; ++i) {
        aux.push_back(co_await fs_.open(
            0, kAuxPrefix + std::to_string(aux_created++), unix_create()));
      }
      // Two of the per-iteration seeks rewind the data sources so the read
      // streams never hit end-of-file; the rest reposition scratch files.
      std::uint32_t seeks_done = 0;
      co_await series_a->seek(0);
      co_await series_b->seek(0);
      seeks_done += 2;
      for (; seeks_done < config_.scf_aux_seeks_per_iter; ++seeks_done) {
        co_await aux[seeks_done % aux.size()]->seek(0);
      }
      for (std::uint32_t i = 0; i < config_.scf_small_reads_per_iter; ++i) {
        (void)co_await ((i % 2 == 0) ? series_a : series_b)
            ->read(config_.scf_small_read_size);
      }
      for (std::uint32_t i = 0; i < config_.scf_medium_reads_per_iter; ++i) {
        (void)co_await ((i % 2 == 0) ? series_b : series_a)
            ->read(config_.scf_medium_read_size);
      }
      for (std::uint32_t i = 0; i < config_.scf_small_writes_per_iter; ++i) {
        co_await aux[i % aux.size()]->write(config_.scf_small_write_size);
      }
      for (std::uint32_t i = 0; i < config_.scf_medium_writes_per_iter; ++i) {
        co_await aux[i % aux.size()]->write(config_.scf_medium_write_size);
      }
      for (std::uint32_t i = 0; i < config_.scf_large_writes_per_iter; ++i) {
        co_await aux[i % aux.size()]->write(config_.scf_large_write_size);
      }
    }
    if (checkpoint_ != nullptr) co_await checkpoint_->at_boundary(node);
  }

  if (node == 0 && config_.scf_extra_large_reads > 0) {
    // Final-iteration rereads of the leading integral records (the paper's
    // 51,225 = 6 x 8,532 + 33).
    co_await integrals->seek(0);
    const std::uint32_t rereads =
        std::min(config_.scf_extra_large_reads, records);
    for (std::uint32_t r = 0; r < rereads; ++r) {
      (void)co_await integrals->read(config_.integral_record);
    }
  }

  co_await integrals->close();
  if (node == 0) {
    // Close all but one auxiliary handle (157 opens vs 156 closes).
    co_await series_a->close();
    co_await series_b->close();
    for (std::size_t i = 0; i + 1 < aux.size(); ++i) {
      co_await aux[i]->close();
    }
  }
}

sim::Task<> Htf::run() {
  co_await psetup();
  phases_.mark("psetup", machine_.engine().now());

  sim::TaskGroup pargos_group(machine_.engine());
  for (std::uint32_t node = 0; node < config_.nodes; ++node) {
    pargos_group.spawn(pargos_node(node));
  }
  co_await pargos_group.join();
  phases_.mark("pargos", machine_.engine().now());

  sim::TaskGroup pscf_group(machine_.engine());
  for (std::uint32_t node = 0; node < config_.nodes; ++node) {
    pscf_group.spawn(pscf_node(node));
  }
  co_await pscf_group.join();
  phases_.mark("pscf", machine_.engine().now());
}

}  // namespace paraio::apps
