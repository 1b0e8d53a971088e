#include "testkit/invariants.hpp"

#include <algorithm>
#include <sstream>

namespace paraio::testkit {

void InvariantChecker::violate(std::string message) {
  ++violation_count_;
  if (messages_.size() < options_.max_messages) {
    messages_.push_back(std::move(message));
  }
}

std::string InvariantChecker::report() const {
  if (ok()) return "ok";
  std::ostringstream out;
  out << violation_count_ << " invariant violation(s):";
  for (const std::string& m : messages_) out << "\n  - " << m;
  if (violation_count_ > messages_.size()) {
    out << "\n  ... (" << violation_count_ - messages_.size() << " more)";
  }
  return out.str();
}

// --- sim::EngineObserver -----------------------------------------------------

void InvariantChecker::on_event(sim::SimTime when) {
  if (when < last_event_time_) {
    std::ostringstream out;
    out << "simulated time ran backwards: event at " << when
        << " after event at " << last_event_time_;
    violate(out.str());
  }
  last_event_time_ = std::max(last_event_time_, when);
}

void InvariantChecker::on_run_complete(sim::SimTime now,
                                       std::size_t pending_events,
                                       std::size_t live_tasks) {
  if (pending_events != 0) {
    std::ostringstream out;
    out << "run() returned with " << pending_events
        << " pending event(s) at t=" << now;
    violate(out.str());
  }
  if (live_tasks != 0) {
    std::ostringstream out;
    out << live_tasks << " task(s) still blocked after the queue drained"
        << " (deadlocked process?) at t=" << now;
    violate(out.str());
  }
}

// --- pablo::TraceSink --------------------------------------------------------

void InvariantChecker::on_event(const pablo::IoEvent& event) {
  if (event.duration < 0.0) {
    std::ostringstream out;
    out << "negative duration " << event.duration << " on "
        << pablo::to_string(event.op) << " at t=" << event.timestamp;
    violate(out.str());
  }
  if (event.timestamp < 0.0) {
    std::ostringstream out;
    out << "negative timestamp " << event.timestamp << " on "
        << pablo::to_string(event.op);
    violate(out.str());
  }
  if (event.is_data_op() && event.transferred > event.requested) {
    std::ostringstream out;
    out << pablo::to_string(event.op) << " transferred " << event.transferred
        << " bytes, more than the " << event.requested << " requested";
    violate(out.str());
  }
  if (event.mode == io::AccessMode::kGlobal) saw_global_ = true;
  if (event.moves_data_to_app()) app_read_ += event.transferred;
  if (event.moves_data_to_storage()) app_written_ += event.transferred;
}

// --- end-of-run checks -------------------------------------------------------

void InvariantChecker::observe_disk(const pfs::PfsCounters& counters,
                                    core::DiskBytes staged) {
  disk_read_ = counters.bytes_read - staged.read;
  disk_written_ = counters.bytes_written - staged.written;
}

void InvariantChecker::observe_disk(const ppfs::PpfsCounters& counters,
                                    core::DiskBytes staged) {
  disk_read_ = counters.disk_bytes_read - staged.read;
  disk_written_ = counters.disk_bytes_written - staged.written;
  buffered_ = counters.bytes_buffered;
  flushed_ = counters.flush_bytes.sum();
}

void InvariantChecker::observe_recovery(const fault::RecoveryStats& stats) {
  have_recovery_ = true;
  recovery_ = stats;
}

void InvariantChecker::observe_absorber(const ckpt::AbsorberStats& stats) {
  have_absorber_ = true;
  absorber_ = stats;
}

void InvariantChecker::finish() {
  if (options_.exact_conservation) {
    // PFS: every application byte crosses the wire exactly once — except in
    // M_GLOBAL, where one physical access serves all parties.
    const bool reads_ok = saw_global_ ? disk_read_ <= app_read_
                                      : disk_read_ == app_read_;
    if (!reads_ok) {
      std::ostringstream out;
      out << "read bytes not conserved: app layer " << app_read_
          << ", disk layer " << disk_read_;
      violate(out.str());
    }
    const bool writes_ok = saw_global_ ? disk_written_ <= app_written_
                                       : disk_written_ == app_written_;
    if (!writes_ok) {
      std::ostringstream out;
      out << "written bytes not conserved: app layer " << app_written_
          << ", disk layer " << disk_written_;
      violate(out.str());
    }
  } else {
    // PPFS: write-behind coalesces overlap, so the disk sees at most what
    // the application wrote; client caching and block-granular fetch mean
    // no exact relation holds for reads.
    if (disk_written_ > app_written_) {
      std::ostringstream out;
      out << "disk wrote " << disk_written_
          << " bytes, more than the application's " << app_written_;
      violate(out.str());
    }
  }
  if (buffered_ != flushed_) {
    std::ostringstream out;
    out << "write-behind ledger out of balance: " << buffered_
        << " bytes buffered, " << flushed_ << " flushed";
    violate(out.str());
  }
  if (have_recovery_ && recovery_.requests != recovery_.ok + recovery_.failed) {
    std::ostringstream out;
    out << "recovery accounting out of balance: " << recovery_.requests
        << " requests != " << recovery_.ok << " ok + " << recovery_.failed
        << " failed";
    violate(out.str());
  }
  if (have_absorber_) {
    const std::uint64_t accounted = absorber_.drained_bytes +
                                    absorber_.log_resident_bytes +
                                    absorber_.dirty_bytes_lost;
    if (absorber_.acked_bytes != accounted) {
      std::ostringstream out;
      out << "absorber ledger out of balance: " << absorber_.acked_bytes
          << " bytes acked != " << absorber_.drained_bytes << " drained + "
          << absorber_.log_resident_bytes << " resident + "
          << absorber_.dirty_bytes_lost << " lost";
      violate(out.str());
    }
  }
}

}  // namespace paraio::testkit
