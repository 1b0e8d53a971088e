#include "hw/network.hpp"

namespace paraio::hw {

Interconnect::Interconnect(sim::Engine& engine, std::size_t nodes,
                           const NetParams& params)
    : engine_(engine), params_(params), links_(nodes) {
  nics_.reserve(nodes);
  rx_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    nics_.push_back(std::make_unique<sim::Semaphore>(engine, 1));
    rx_.push_back(std::make_unique<sim::Semaphore>(engine, 1));
  }
}

DeviceStats Interconnect::stats() const {
  DeviceStats total;
  for (const DeviceStats& link : links_) {
    total.requests += link.requests;
    total.bytes += link.bytes;
    total.busy_time += link.busy_time;
    total.queue_time += link.queue_time;
  }
  return total;
}

void Interconnect::attach_metrics(obs::Registry& registry,
                                  const std::string& prefix) const {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].attach_metrics(registry, prefix + std::to_string(i));
  }
}

sim::Task<> Interconnect::send(NodeId src, NodeId dst, std::uint64_t bytes) {
  assert(src < nics_.size() && dst < nics_.size());
  DeviceStats& link = links_[src];
  const sim::SimTime arrival = engine_.now();
  link.qdepth.record(nics_[src]->waiters());
  co_await nics_[src]->acquire();
  co_await rx_[dst]->acquire();
  link.queue_time += engine_.now() - arrival;
  const sim::SimDuration t = transfer_time(bytes);
  ++link.requests;
  link.bytes += bytes;
  link.busy_time += t;
  co_await engine_.delay(t);
  rx_[dst]->release();
  nics_[src]->release();
}

sim::Task<> Interconnect::broadcast(NodeId root, std::uint64_t bytes,
                                    std::size_t parties) {
  assert(root < nics_.size());
  if (parties <= 1) co_return;
  // Binomial tree: the critical path is `stages` sequential transmissions.
  // We charge the root's NIC for its log2(parties) sends (it is busy the
  // whole time) and model the remaining stages as pipeline latency.
  const std::size_t stages = broadcast_stages(parties);
  DeviceStats& link = links_[root];
  const sim::SimTime arrival = engine_.now();
  link.qdepth.record(nics_[root]->waiters());
  co_await nics_[root]->acquire();
  link.queue_time += engine_.now() - arrival;
  const sim::SimDuration per_stage = transfer_time(bytes);
  const sim::SimDuration total = static_cast<double>(stages) * per_stage;
  ++link.requests;
  link.bytes += bytes * (parties - 1);
  link.busy_time += total;
  co_await engine_.delay(total);
  nics_[root]->release();
}

sim::Task<> FrameBuffer::write(std::uint64_t bytes) {
  const sim::SimTime arrival = engine_.now();
  stats_.qdepth.record(gate_.waiters());
  co_await gate_.acquire();
  stats_.queue_time += engine_.now() - arrival;
  const sim::SimDuration t = static_cast<double>(bytes) / bandwidth_;
  ++stats_.requests;
  stats_.bytes += bytes;
  stats_.busy_time += t;
  co_await engine_.delay(t);
  gate_.release();
}

}  // namespace paraio::hw
