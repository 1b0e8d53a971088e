#include "hw/disk.hpp"

namespace paraio::hw {

void DeviceStats::attach_metrics(obs::Registry& registry,
                                 const std::string& prefix) const {
  registry.bind(prefix + ".requests", requests);
  registry.bind(prefix + ".bytes", bytes);
  registry.bind(prefix + ".seeks", seeks);
  registry.bind(prefix + ".busy_s", busy_time);
  registry.bind(prefix + ".queue_s", queue_time);
  registry.bind(prefix + ".qdepth", qdepth);
}

sim::SimDuration Disk::service_time(std::uint64_t offset,
                                    std::uint64_t bytes) const {
  const bool sequential = offset == head_pos_;
  sim::SimDuration positioning;
  if (sequential) {
    positioning = params_.settle;
  } else if (params_.distance_seek) {
    const std::uint64_t distance =
        offset > head_pos_ ? offset - head_pos_ : head_pos_ - offset;
    positioning = params_.seek_time(distance) + params_.half_rotation();
  } else {
    positioning = params_.avg_seek + params_.half_rotation();
  }
  return positioning + static_cast<double>(bytes) / params_.media_rate;
}

sim::Task<> Disk::access(std::uint64_t offset, std::uint64_t bytes) {
  const sim::SimTime arrival = engine_.now();
  stats_.qdepth.record(gate_.waiters());
  co_await gate_.acquire();
  stats_.queue_time += engine_.now() - arrival;
  if (offset != head_pos_) ++stats_.seeks;
  const sim::SimDuration service = service_time(offset, bytes);
  head_pos_ = offset + bytes;
  ++stats_.requests;
  stats_.bytes += bytes;
  stats_.busy_time += service;
  co_await engine_.delay(service);
  gate_.release();
}

}  // namespace paraio::hw
