#include "hw/raid.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

namespace paraio::hw {

sim::SimDuration Raid3Array::service_time(std::uint64_t offset,
                                          std::uint64_t bytes) const {
  const bool sequential = offset == head_pos_;
  const DiskParams& d = params_.disk;
  sim::SimDuration positioning;
  if (sequential) {
    positioning = d.settle;
  } else if (d.distance_seek) {
    const std::uint64_t distance =
        offset > head_pos_ ? offset - head_pos_ : head_pos_ - offset;
    positioning = d.seek_time(distance) + d.half_rotation();
  } else {
    positioning = d.avg_seek + d.half_rotation();
  }
  return positioning + static_cast<double>(bytes) / params_.streaming_rate();
}

void Raid3Array::check_disk(std::size_t disk, const char* op) const {
  if (disk >= disk_state_.size()) {
    throw std::out_of_range(std::string("Raid3Array::") + op + ": disk index " +
                            std::to_string(disk) + " out of range (array has " +
                            std::to_string(disk_state_.size()) + " disks)");
  }
}

std::size_t Raid3Array::missing_disks() const noexcept {
  std::size_t n = 0;
  for (const DiskHealth s : disk_state_) {
    if (s != DiskHealth::kHealthy) ++n;
  }
  return n;
}

DiskHealth Raid3Array::disk_health(std::size_t disk) const {
  check_disk(disk, "disk_health");
  return disk_state_[disk];
}

void Raid3Array::fail_disk(std::size_t disk) {
  check_disk(disk, "fail_disk");
  if (disk_state_[disk] == DiskHealth::kFailed) return;
  // A disk mid-rebuild can fail again; the rebuild task notices the state
  // change at its next chunk and aborts.
  disk_state_[disk] = DiskHealth::kFailed;
  ++fault_stats_.disk_failures;
}

void Raid3Array::repair_disk(std::size_t disk) {
  check_disk(disk, "repair_disk");
  if (disk_state_[disk] != DiskHealth::kFailed) return;
  disk_state_[disk] = DiskHealth::kRebuilding;
  ++fault_stats_.repairs;
  // The chunks written so far; later writes reach the new disk directly.
  engine_.spawn(rebuild(disk, std::vector<std::uint64_t>(
                                  written_chunks_.begin(),
                                  written_chunks_.end())));
}

void Raid3Array::note_written(std::uint64_t offset, std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t first = offset / chunk_bytes();
  const std::uint64_t last = (offset + bytes - 1) / chunk_bytes();
  if (first == last && first == last_written_chunk_) return;
  // Hinted inserts: each lands right after the previous one.
  auto hint = written_chunks_.lower_bound(first);
  for (std::uint64_t c = first; c <= last; ++c) {
    hint = std::next(written_chunks_.insert(hint, c));
  }
  last_written_chunk_ = last;
}

sim::Task<> Raid3Array::rebuild(std::size_t disk,
                                std::vector<std::uint64_t> chunks) {
  // Reconstruct the written chunks in address order through the same gate
  // the foreground requests use, so rebuild traffic visibly contends with
  // them.
  const std::uint64_t n = chunk_bytes();
  for (const std::uint64_t index : chunks) {
    if (disk_state_[disk] != DiskHealth::kRebuilding) co_return;  // re-failed
    co_await gate_.acquire();
    if (disk_state_[disk] != DiskHealth::kRebuilding) {
      gate_.release();
      co_return;
    }
    // Reconstruction reads every survivor and writes the replacement — one
    // pass over the stripe at the aggregate rate.
    const std::uint64_t pos = index * n;
    const sim::SimDuration service = service_time(pos, n);
    head_pos_ = pos + n;
    stats_.busy_time += service;
    ++fault_stats_.rebuild_chunks;
    fault_stats_.rebuild_bytes += n;
    co_await engine_.delay(service);
    gate_.release();
  }
  if (disk_state_[disk] == DiskHealth::kRebuilding) {
    disk_state_[disk] = DiskHealth::kHealthy;
  }
}

sim::Task<DiskOutcome> Raid3Array::access(std::uint64_t offset,
                                          std::uint64_t bytes, bool is_write) {
  if (failed()) {
    // Data is unavailable; refuse without consuming spindle time so the
    // failure is detected at controller speed.
    ++fault_stats_.failed_accesses;
    co_return DiskOutcome{.failed = true, .degraded = false};
  }
  const sim::SimTime arrival = engine_.now();
  stats_.qdepth.record(gate_.waiters());
  co_await gate_.acquire();
  stats_.queue_time += engine_.now() - arrival;
  // The array may have failed while this request queued.
  if (failed()) {
    gate_.release();
    ++fault_stats_.failed_accesses;
    co_return DiskOutcome{.failed = true, .degraded = false};
  }
  const bool was_degraded = degraded();
  if (offset != head_pos_) ++stats_.seeks;
  sim::SimDuration service = service_time(offset, bytes);
  if (was_degraded && !is_write) service += degraded_read_extra(bytes);
  head_pos_ = offset + bytes;
  if (is_write) note_written(offset, bytes);
  ++stats_.requests;
  stats_.bytes += bytes;
  stats_.busy_time += service;
  if (was_degraded) ++fault_stats_.degraded_accesses;
  co_await engine_.delay(service);
  gate_.release();
  co_return DiskOutcome{.failed = false, .degraded = was_degraded};
}

}  // namespace paraio::hw
