#include "pfs/pfs.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/deadlock.hpp"
#include "sim/race.hpp"
#include "sim/task_group.hpp"

namespace paraio::pfs {

namespace detail {

FileObject::FileObject(sim::Engine& engine, io::FileId id_, std::string name_,
                       const StripeParams& stripe_params,
                       const io::OpenOptions& opts)
    : id(id_),
      name(std::move(name_)),
      mode(opts.mode),
      parties(opts.parties),
      record_size(opts.record_size),
      stripes(stripe_params) {
  switch (mode) {
    case io::AccessMode::kLog:
      token = std::make_unique<sim::Mutex>(engine);
      break;
    case io::AccessMode::kSync:
      turns = std::make_unique<TurnGate>(engine, parties);
      break;
    case io::AccessMode::kGlobal:
      round = std::make_shared<GlobalRound>(engine);
      break;
    default:
      break;
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Pfs

Pfs::Pfs(hw::Machine& machine, PfsParams params)
    : machine_(machine), params_(std::move(params)) {
  StripeMap::check(stripe_params());
  counters_.ions.resize(machine_.io_nodes());
  ion_control_.reserve(machine_.io_nodes());
  ion_dir_.reserve(machine_.io_nodes());
  for (std::size_t i = 0; i < machine_.io_nodes(); ++i) {
    ion_control_.push_back(
        std::make_unique<sim::Semaphore>(machine_.engine(), 1));
    ion_dir_.push_back(std::make_unique<sim::Semaphore>(machine_.engine(), 1));
  }
}

StripeParams Pfs::stripe_params() const {
  StripeParams sp;
  sp.unit = params_.stripe_unit;
  sp.io_nodes = static_cast<std::uint32_t>(machine_.io_nodes());
  return sp;
}

void Pfs::attach_observability(obs::Registry* registry, obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer != nullptr) {
    transfer_span_[0] = tracer->intern("pfs.read");
    transfer_span_[1] = tracer->intern("pfs.write");
    piece_span_[0] = tracer->intern("pfs.piece.read");
    piece_span_[1] = tracer->intern("pfs.piece.write");
    category_ = tracer->intern("pfs");
  }
  if (registry == nullptr) return;
  for (std::size_t i = 0; i < counters_.ions.size(); ++i) {
    const std::string prefix = "pfs.ion" + std::to_string(i);
    registry->bind(prefix + ".requests", counters_.ions[i].requests);
    registry->bind(prefix + ".bytes", counters_.ions[i].bytes);
  }
  registry->bind("pfs.mode_wait_us", counters_.mode_wait_us);
  registry->bind("pfs.mode_wait_s", counters_.mode_wait_time);
}

void Pfs::note_mode_wait(sim::SimDuration waited) {
  counters_.mode_wait_us.record(static_cast<std::uint64_t>(waited * 1e6));
  counters_.mode_wait_time += waited;
}

sim::Task<> Pfs::control_rpc(io::NodeId node, std::uint32_t ion,
                             sim::SimDuration service) {
  const io::NodeId ion_node = machine_.ion_node_id(ion);
  co_await machine_.net().send(node, ion_node, params_.control_bytes);
  co_await ion_control_[ion]->acquire();
  co_await machine_.engine().delay(service);
  ion_control_[ion]->release();
  co_await machine_.net().send(ion_node, node, params_.control_bytes);
}

sim::Task<> Pfs::dir_rpc(io::NodeId node, std::uint32_t ion,
                         sim::SimDuration service) {
  const io::NodeId ion_node = machine_.ion_node_id(ion);
  co_await machine_.net().send(node, ion_node, params_.control_bytes);
  co_await ion_dir_[ion]->acquire();
  co_await machine_.engine().delay(service);
  ion_dir_[ion]->release();
  co_await machine_.net().send(ion_node, node, params_.control_bytes);
}

sim::Task<std::uint64_t> Pfs::transfer(io::NodeId node,
                                       detail::FileObject& file,
                                       std::uint64_t offset,
                                       std::uint64_t bytes, bool is_write) {
  if (!is_write) {
    const std::uint64_t avail =
        file.size > offset ? file.size - offset : 0;
    bytes = std::min(bytes, avail);
  }
  if (bytes == 0) co_return 0;

  const auto segments = file.stripes.decompose(offset, bytes);
  obs::Tracer::SpanId span = 0;
  if (tracer_ != nullptr) {
    span = tracer_->begin({node, 0}, transfer_span_[is_write], category_);
  }
  sim::TaskGroup group(machine_.engine());
  for (const Segment& seg : segments) {
    ++counters_.ions[seg.ion].requests;
    counters_.ions[seg.ion].bytes += seg.length;
    auto piece = [](Pfs& fs, io::NodeId src, detail::FileObject& f,
                    Segment s, bool write,
                    obs::Tracer::SpanId parent) -> sim::Task<> {
      const io::NodeId ion_node = fs.machine_.ion_node_id(s.ion);
      obs::Tracer::SpanId piece_span = 0;
      if (fs.tracer_ != nullptr) {
        piece_span = fs.tracer_->begin_child({ion_node, 1},
                                             fs.piece_span_[write], parent,
                                             fs.category_);
      }
      // Ship data (write) or the request (read) to the I/O node.
      co_await fs.machine_.net().send(
          src, ion_node, write ? s.length : fs.params_.control_bytes);
      if (fs.params_.data_service > 0.0) {
        co_await fs.ion_control_[s.ion]->acquire();
        co_await fs.machine_.engine().delay(fs.params_.data_service);
        fs.ion_control_[s.ion]->release();
      }
      const hw::DiskOutcome disk = co_await fs.machine_.ion_array(s.ion).access(
          f.disk_base() + s.local_offset, s.length, write);
      if (disk.failed) {
        // PFS has no recovery path: a dead array is fatal to the run (the
        // property generator constrains PFS fault plans to recoverable
        // faults; degraded mode is transparent, just slower).
        throw std::runtime_error("PFS: RAID-3 array on I/O node " +
                                 std::to_string(s.ion) +
                                 " has failed and PFS cannot recover");
      }
      // Ack (write) or data (read) back to the compute node.
      co_await fs.machine_.net().send(
          ion_node, src, write ? fs.params_.control_bytes : s.length);
      if (fs.tracer_ != nullptr) fs.tracer_->end(piece_span);
    };
    group.spawn(piece(*this, node, file, seg, is_write, span));
  }
  co_await group.join();
  if (tracer_ != nullptr) tracer_->end(span);

  if (is_write) {
    file.size = std::max(file.size, offset + bytes);
    ++counters_.writes;
    counters_.bytes_written += bytes;
  } else {
    ++counters_.reads;
    counters_.bytes_read += bytes;
  }
  co_return bytes;
}

sim::Task<io::FilePtr> Pfs::open(io::NodeId node, const std::string& path,
                                 const io::OpenOptions& options) {
  if (options.mode == io::AccessMode::kRecord && options.record_size == 0) {
    throw std::invalid_argument("M_RECORD open requires a record size");
  }
  if ((options.mode == io::AccessMode::kSync ||
       options.mode == io::AccessMode::kRecord ||
       options.mode == io::AccessMode::kGlobal) &&
      options.parties == 0) {
    throw std::invalid_argument("collective open requires parties > 0");
  }
  if (options.rank >= std::max<std::uint32_t>(options.parties, 1)) {
    throw std::invalid_argument("rank out of range for open");
  }

  const bool creating = options.create && !files_.contains(path);
  co_await dir_rpc(node, meta_ion_of(path),
                   creating ? params_.effective_create_service()
                            : params_.open_service);

  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!options.create) {
      throw std::invalid_argument("open of missing file without create: " +
                                  path);
    }
    auto object = std::make_shared<detail::FileObject>(
        machine_.engine(), next_file_id_++, path, stripe_params(), options);
    it = files_.emplace(path, std::move(object)).first;
  } else if (options.truncate) {
    it->second->size = 0;
  }

  // All handles of one file must agree on the access mode; PFS setiomode is
  // a collective that switches everyone at once, which our open subsumes.
  detail::FileObject& object = *it->second;
  if (object.open_handles > 0 && object.mode != options.mode) {
    throw std::logic_error("conflicting access modes for " + path);
  }
  if (object.open_handles == 0 && object.mode != options.mode) {
    // Re-opening a file in a different mode: rebuild mode machinery.
    detail::FileObject rebuilt(machine_.engine(), object.id, object.name,
                               object.stripes.params(), options);
    rebuilt.size = options.truncate ? 0 : object.size;
    object.mode = rebuilt.mode;
    object.parties = rebuilt.parties;
    object.record_size = rebuilt.record_size;
    object.shared_offset = 0;
    object.token = std::move(rebuilt.token);
    object.turns = std::move(rebuilt.turns);
    object.arrived = 0;
    object.round = std::move(rebuilt.round);
  }

  ++object.open_handles;
  ++counters_.opens;
  co_return std::make_shared<PfsFile>(*this, it->second, node, options.rank);
}

bool Pfs::exists(const std::string& path) const {
  return files_.contains(path);
}

std::uint64_t Pfs::file_size(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second->size;
}

// ---------------------------------------------------------------------------
// PfsFile

PfsFile::PfsFile(Pfs& fs, std::shared_ptr<detail::FileObject> object,
                 io::NodeId node, std::uint32_t rank)
    : fs_(fs), object_(std::move(object)), node_(node), rank_(rank) {}

std::uint64_t PfsFile::position() const {
  switch (object_->mode) {
    case io::AccessMode::kLog:
    case io::AccessMode::kSync:
    case io::AccessMode::kGlobal:
      return object_->shared_offset;
    case io::AccessMode::kRecord:
      return (records_done_ * object_->parties + rank_) * object_->record_size;
    default:
      return offset_;
  }
}

void PfsFile::require_open(const char* op) const {
  if (closed_) {
    throw std::logic_error(std::string(op) + " on closed file " +
                           object_->name);
  }
}

sim::Task<std::uint64_t> PfsFile::transfer_mode_dispatch(std::uint64_t bytes,
                                                         bool is_write) {
  detail::FileObject& f = *object_;
  switch (f.mode) {
    case io::AccessMode::kUnix:
    case io::AccessMode::kAsync: {
      const std::uint64_t off = offset_;
      // M_ASYNC does not preserve operation atomicity (§3.2), so it skips
      // the per-write offset-registration RPC M_UNIX pays.
      if (is_write && f.mode == io::AccessMode::kUnix &&
          fs_.params().write_control_rpc) {
        // The write-path metadata update happens at the I/O node owning the
        // write's first stripe (offset registration + commit scheduling).
        co_await fs_.control_rpc(node_, f.stripes.ion_of(off),
                                 fs_.params().effective_write_meta_service());
      }
      const std::uint64_t n = co_await fs_.transfer(node_, f, off, bytes,
                                                    is_write);
      offset_ = off + n;
      co_return n;
    }
    case io::AccessMode::kLog: {
      // Reserve a region under the pointer token (one metadata RPC), then
      // transfer outside the critical section: M_LOG operations from
      // different nodes overlap physically, only the pointer is atomic.
      co_await fs_.control_rpc(node_, fs_.meta_ion_of(f),
                               fs_.params().meta_service);
      const sim::SimTime gate_arrival = fs_.machine().engine().now();
      auto* deadlocks = fs_.machine().engine().deadlock_detector();
      if (deadlocks) {
        deadlocks->lock_wait(deadlocks->task_for_key(node_, "node"),
                             f.token.get(), "pfs:" + f.name + ":token");
      }
      co_await f.token->lock();
      if (deadlocks) {
        deadlocks->lock_acquired(deadlocks->task_for_key(node_, "node"),
                                 f.token.get(), "pfs:" + f.name + ":token");
      }
      fs_.note_mode_wait(fs_.machine().engine().now() - gate_arrival);
      auto* races = fs_.machine().engine().race_detector();
      if (races) {
        const auto task = races->task_for_key(node_, "node");
        races->acquire(task, f.token.get());
        races->write(task, "pfs:" + f.name + ":shared_offset");
      }
      const std::uint64_t off = f.shared_offset;
      std::uint64_t reserve = bytes;
      if (!is_write) {
        reserve = std::min(bytes, f.size > off ? f.size - off : 0);
      }
      f.shared_offset = off + reserve;
      if (races) races->release(races->task_for_key(node_, "node"), f.token.get());
      if (deadlocks) {
        deadlocks->lock_released(deadlocks->task_for_key(node_, "node"),
                                 f.token.get());
      }
      f.token->unlock();
      const std::uint64_t n = co_await fs_.transfer(node_, f, off, reserve,
                                                    is_write);
      co_return n;
    }
    case io::AccessMode::kSync: {
      // Accesses proceed in node-number order; the transfer itself is part
      // of the ordered critical section.
      const sim::SimTime gate_arrival = fs_.machine().engine().now();
      co_await f.turns->await_turn(rank_);
      fs_.note_mode_wait(fs_.machine().engine().now() - gate_arrival);
      auto* races = fs_.machine().engine().race_detector();
      if (races) {
        const auto task = races->task_for_key(node_, "node");
        races->acquire(task, f.turns.get());
        races->write(task, "pfs:" + f.name + ":shared_offset");
      }
      const std::uint64_t off = f.shared_offset;
      const std::uint64_t n = co_await fs_.transfer(node_, f, off, bytes,
                                                    is_write);
      f.shared_offset = off + n;
      if (races) races->release(races->task_for_key(node_, "node"), f.turns.get());
      f.turns->advance();
      co_return n;
    }
    case io::AccessMode::kRecord: {
      if (bytes != f.record_size) {
        throw std::invalid_argument(
            "M_RECORD operations must move exactly one record");
      }
      const std::uint64_t off =
          (records_done_ * f.parties + rank_) * f.record_size;
      ++records_done_;
      if (is_write && fs_.params().write_control_rpc) {
        co_await fs_.control_rpc(node_, f.stripes.ion_of(off),
                                 fs_.params().effective_write_meta_service());
      }
      co_return co_await fs_.transfer(node_, f, off, bytes, is_write);
    }
    case io::AccessMode::kGlobal: {
      // Rendezvous of all parties; the last arrival performs one physical
      // access on behalf of everyone, then (for reads) broadcasts the data.
      auto round = f.round;
      if (++f.arrived < f.parties) {
        const sim::SimTime gate_arrival = fs_.machine().engine().now();
        co_await round->done.wait();
        fs_.note_mode_wait(fs_.machine().engine().now() - gate_arrival);
        co_return round->result;
      }
      f.arrived = 0;
      f.round = std::make_shared<detail::GlobalRound>(fs_.machine().engine());
      const std::uint64_t off = f.shared_offset;
      const std::uint64_t n = co_await fs_.transfer(node_, f, off, bytes,
                                                    is_write);
      f.shared_offset = off + n;
      if (!is_write && n > 0) {
        co_await fs_.machine().net().broadcast(node_, n, f.parties);
      }
      round->result = n;
      round->done.set();
      co_return n;
    }
  }
  co_return 0;  // unreachable
}

sim::Task<std::uint64_t> PfsFile::read(std::uint64_t bytes) {
  require_open("read");
  co_return co_await transfer_mode_dispatch(bytes, /*is_write=*/false);
}

sim::Task<std::uint64_t> PfsFile::write(std::uint64_t bytes) {
  require_open("write");
  co_return co_await transfer_mode_dispatch(bytes, /*is_write=*/true);
}

sim::Task<> PfsFile::seek(std::uint64_t offset) {
  require_open("seek");
  const io::AccessMode m = object_->mode;
  if (m != io::AccessMode::kUnix && m != io::AccessMode::kAsync) {
    throw std::logic_error("seek is only valid on independent-pointer modes");
  }
  // PFS eseek is a synchronous metadata RPC to the file's I/O node — the
  // behaviour behind the paper's dominant seek cost in Table 1.
  co_await fs_.control_rpc(node_, fs_.meta_ion_of(*object_),
                           fs_.params().meta_service);
  offset_ = offset;
  ++fs_.counters_.seeks;
}

sim::Task<std::uint64_t> PfsFile::size() {
  require_open("size");
  co_await fs_.control_rpc(node_, fs_.meta_ion_of(*object_),
                           fs_.params().meta_service);
  co_return object_->size;
}

sim::Task<> PfsFile::flush() {
  require_open("flush");
  co_await fs_.control_rpc(node_, fs_.meta_ion_of(*object_),
                           fs_.params().flush_service);
}

sim::Task<> PfsFile::close() {
  require_open("close");
  closed_ = true;
  assert(object_->open_handles > 0);
  --object_->open_handles;
  ++fs_.counters_.closes;
  co_await fs_.dir_rpc(node_, fs_.meta_ion_of(*object_),
                       fs_.params().close_service);
}

sim::Task<io::AsyncOp> PfsFile::submit_async(std::uint64_t bytes,
                                             bool is_write) {
  const io::AccessMode m = object_->mode;
  if (m != io::AccessMode::kUnix && m != io::AccessMode::kAsync) {
    throw std::logic_error("async I/O requires an independent file pointer");
  }
  auto state = std::make_shared<io::AsyncOp::State>(fs_.machine().engine());
  const std::uint64_t off = offset_;
  // The pointer advances at issue time by the requested size (clipped for
  // reads), as with Paragon iread/iwrite.
  std::uint64_t advance = bytes;
  if (!is_write) {
    advance = std::min(bytes, object_->size > off ? object_->size - off : 0);
  }
  offset_ = off + advance;

  auto background = [](Pfs& fs, std::shared_ptr<detail::FileObject> object,
                       io::NodeId node, std::uint64_t offset,
                       std::uint64_t len, bool write,
                       std::shared_ptr<io::AsyncOp::State> st) -> sim::Task<> {
    if (write && fs.params().write_control_rpc) {
      co_await fs.control_rpc(node, object->stripes.ion_of(offset),
                              fs.params().effective_write_meta_service());
    }
    st->transferred = co_await fs.transfer(node, *object, offset, len, write);
    st->done.set();
  };
  fs_.machine().engine().spawn(
      background(fs_, object_, node_, off, bytes, is_write, state));

  co_await fs_.machine().engine().delay(fs_.params().async_issue);
  co_return io::AsyncOp(state);
}

sim::Task<> PfsFile::set_mode(const io::OpenOptions& options) {
  require_open("set_mode");
  if (options.mode == io::AccessMode::kRecord && options.record_size == 0) {
    throw std::invalid_argument("M_RECORD set_mode requires a record size");
  }
  detail::FileObject& f = *object_;
  const std::uint32_t parties = std::max<std::uint32_t>(options.parties, 1);
  if (options.rank >= parties) {
    throw std::invalid_argument("rank out of range for set_mode");
  }
  // The collective synchronizes through the file's metadata server.
  co_await fs_.control_rpc(node_, fs_.meta_ion_of(f),
                           fs_.params().meta_service);

  rank_ = options.rank;
  records_done_ = 0;
  offset_ = 0;
  if (!f.mode_round) {
    f.mode_round = std::make_shared<sim::Event>(fs_.machine().engine());
  }
  auto round = f.mode_round;
  if (++f.mode_arrivals < parties) {
    co_await round->wait();
    co_return;
  }
  // Last arrival rebuilds the shared mode machinery and releases everyone.
  f.mode_arrivals = 0;
  f.mode_round.reset();
  detail::FileObject rebuilt(fs_.machine().engine(), f.id, f.name,
                             f.stripes.params(), options);
  f.mode = options.mode;
  f.parties = parties;
  f.record_size = options.record_size;
  f.shared_offset = 0;
  f.token = std::move(rebuilt.token);
  f.turns = std::move(rebuilt.turns);
  f.arrived = 0;
  f.round = std::move(rebuilt.round);
  round->set();
}

sim::Task<io::AsyncOp> PfsFile::read_async(std::uint64_t bytes) {
  require_open("read_async");
  co_return co_await submit_async(bytes, /*is_write=*/false);
}

sim::Task<io::AsyncOp> PfsFile::write_async(std::uint64_t bytes) {
  require_open("write_async");
  co_return co_await submit_async(bytes, /*is_write=*/true);
}

}  // namespace paraio::pfs
