#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>

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

std::string FaultPlan::describe() const {
  std::ostringstream out;
  out << "FaultPlan seed=" << seed << " events=" << events.size() << "\n";
  for (const FaultEvent& e : events) {
    out << "  t=" << e.at << " " << to_string(e.kind) << " ion=" << e.ion
        << " disk=" << e.disk << " value=" << e.value << "\n";
  }
  return out.str();
}

FaultInjector::FaultInjector(sim::Engine& engine, hw::Machine& machine,
                             FaultPlan plan, obs::Registry* metrics,
                             obs::Tracer* tracer)
    : engine_(engine),
      machine_(machine),
      plan_(std::move(plan)),
      metrics_(metrics),
      tracer_(tracer) {
  // Stable so same-instant plan entries keep their authored order.
  std::stable_sort(
      plan_.events.begin(), plan_.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  // Seeding is pure state initialization; the interconnect draws from the
  // stream only while a loss window is active, so an empty plan stays
  // byte-identical to an unattached injector.
  machine_.net().set_fault_seed(plan_.seed);
  engine_.attach(*this);
}

FaultInjector::~FaultInjector() { engine_.detach(*this); }

void FaultInjector::on_event(sim::SimTime when) {
  // Apply every plan entry that is due before this event executes: faults
  // land "between" events, which is the only resolution a discrete-event
  // simulation has anyway.
  while (cursor_ < plan_.events.size() && plan_.events[cursor_].at <= when) {
    apply(plan_.events[cursor_]);
    ++cursor_;
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
    if (cursor_ == 0) metrics_->bind("fault.injected", cursor_);
    if (fired == 0) {
      metrics_->bind(std::string("fault.") + to_string(event.kind), fired);
    }
  }
  ++fired;
  if (tracer_ != nullptr && tracer_->bound()) {
    const bool targets_ion = event.kind != FaultKind::kNetLoss &&
                             event.kind != FaultKind::kNetDelay;
    const std::uint32_t process =
        targets_ion ? machine_.ion_node_id(event.ion) : obs::kGlobalProcess;
    tracer_->instant({process, 0}, to_string(event.kind), "fault");
  }
}

}  // namespace paraio::fault
