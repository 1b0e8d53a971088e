#include "fault/fault.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace paraio::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDiskFail:
      return "disk-fail";
    case FaultKind::kDiskRepair:
      return "disk-repair";
    case FaultKind::kIonCrash:
      return "ion-crash";
    case FaultKind::kIonRestart:
      return "ion-restart";
    case FaultKind::kNetLoss:
      return "net-loss";
    case FaultKind::kNetDelay:
      return "net-delay";
  }
  return "unknown";
}

std::string describe(const FaultEvent& event) {
  std::ostringstream out;
  out << "t=" << event.at << " " << to_string(event.kind)
      << " ion=" << event.ion << " disk=" << event.disk
      << " value=" << event.value;
  return out.str();
}

std::string FaultPlan::describe() const {
  std::ostringstream out;
  out << "FaultPlan seed=" << seed << " events=" << events.size() << "\n";
  for (const FaultEvent& e : events) out << "  " << fault::describe(e) << "\n";
  return out.str();
}

namespace {

/// Why `e` cannot be applied to `machine` from time `now` on, or "".
std::string plan_entry_error(const FaultEvent& e, sim::SimTime now,
                             const hw::Machine& machine) {
  if (!(e.at >= now && e.at < sim::kTimeInfinity)) {
    return "time must be finite and no earlier than now (" +
           std::to_string(now) + ")";
  }
  const bool disk_kind =
      e.kind == FaultKind::kDiskFail || e.kind == FaultKind::kDiskRepair;
  const bool ion_kind = disk_kind || e.kind == FaultKind::kIonCrash ||
                        e.kind == FaultKind::kIonRestart;
  if (ion_kind && e.ion >= machine.io_nodes()) {
    return "ion out of range (machine has " +
           std::to_string(machine.io_nodes()) + " I/O nodes)";
  }
  if (disk_kind && e.disk >= machine.ion_array(e.ion).params().disks) {
    return "disk out of range (array has " +
           std::to_string(machine.ion_array(e.ion).params().disks) +
           " disks)";
  }
  if (e.kind == FaultKind::kNetLoss && !(e.value >= 0.0 && e.value <= 1.0)) {
    return "loss probability must lie in [0, 1]";
  }
  if (e.kind == FaultKind::kNetDelay &&
      !(e.value >= 0.0 && e.value < sim::kTimeInfinity)) {
    return "delay must be finite and non-negative";
  }
  return {};
}

}  // namespace

FaultInjector::FaultInjector(sim::Engine& engine, hw::Machine& machine,
                             const FaultPlan& plan, obs::Registry* metrics,
                             obs::Tracer* tracer)
    : machine_(machine), metrics_(metrics), tracer_(tracer) {
  // Check the whole plan before scheduling any of it: a throw must leave no
  // event behind that points at this never-constructed injector.
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const std::string error =
        plan_entry_error(plan.events[i], engine.now(), machine);
    if (!error.empty()) {
      throw std::invalid_argument("FaultInjector: plan entry " +
                                  std::to_string(i) + " (" +
                                  describe(plan.events[i]) + "): " + error);
    }
  }
  // Seeding is pure state initialization; the interconnect draws from the
  // stream only while a loss window is active.
  machine_.net().set_fault_seed(plan.seed);
  for (const FaultEvent& e : plan.events) {
    engine.call_at(e.at, [this, e] { apply(e); });
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kDiskFail:
      machine_.ion_array(event.ion).fail_disk(event.disk);
      break;
    case FaultKind::kDiskRepair:
      machine_.ion_array(event.ion).repair_disk(event.disk);
      break;
    case FaultKind::kIonCrash:
      machine_.set_ion_up(event.ion, false);
      break;
    case FaultKind::kIonRestart:
      machine_.set_ion_up(event.ion, true);
      break;
    case FaultKind::kNetLoss:
      machine_.net().set_drop_probability(event.value);
      break;
    case FaultKind::kNetDelay:
      machine_.net().set_extra_delay(event.value);
      break;
  }
  std::uint64_t& fired = fired_[static_cast<std::size_t>(event.kind)];
  if (metrics_ != nullptr) {
    if (applied_ == 0) metrics_->bind("fault.injected", applied_);
    if (fired == 0) {
      metrics_->bind(std::string("fault.") + to_string(event.kind), fired);
    }
  }
  ++fired;
  ++applied_;
  if (tracer_ != nullptr && tracer_->bound()) {
    const bool targets_ion = event.kind != FaultKind::kNetLoss &&
                             event.kind != FaultKind::kNetDelay;
    const std::uint32_t process =
        targets_ion ? machine_.ion_node_id(event.ion) : obs::kGlobalProcess;
    tracer_->instant({process, 0}, to_string(event.kind), "fault");
  }
}

}  // namespace paraio::fault
