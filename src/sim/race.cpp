#include "sim/race.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace paraio::sim {

RaceDetector::RaceDetector(Engine& engine)
    : engine_(engine), events_at_attach_(engine.events_executed()) {
  if (engine_.race_detector_ != nullptr) {
    throw std::logic_error(
        "sim::RaceDetector: the engine already has a race detector");
  }
  engine_.race_detector_ = this;
}

RaceDetector::~RaceDetector() { engine_.race_detector_ = nullptr; }

RaceDetector::TaskId RaceDetector::register_task(std::string name) {
  const TaskId id = static_cast<TaskId>(task_names_.size());
  task_names_.push_back(std::move(name));
  clocks_.emplace_back();
  clocks_.back()[id] = 1;
  return id;
}

RaceDetector::TaskId RaceDetector::task_for_key(std::uint64_t key,
                                                const char* label) {
  auto it = external_tasks_.find(key);
  if (it != external_tasks_.end()) return it->second;
  const TaskId id =
      register_task(std::string(label) + "#" + std::to_string(key));
  external_tasks_.emplace(key, id);
  return id;
}

void RaceDetector::record(TaskId task, AccessKind kind, std::string site) {
  Access a;
  a.time = engine_.now();
  a.seq = engine_.events_executed() - events_at_attach_;
  a.task = task;
  a.kind = kind;
  a.site = std::move(site);
  a.clock = clocks_[task];
  accesses_.push_back(std::move(a));
}

void RaceDetector::read(TaskId task, std::string site) {
  record(task, AccessKind::kRead, std::move(site));
}

void RaceDetector::write(TaskId task, std::string site) {
  record(task, AccessKind::kWrite, std::move(site));
}

void RaceDetector::merge(Clock* into, const Clock& from) {
  for (const auto& [task, t] : from) {
    auto [it, inserted] = into->emplace(task, t);
    if (!inserted) it->second = std::max(it->second, t);
  }
}

void RaceDetector::release(TaskId task, const void* token) {
  merge(&token_clocks_[token], clocks_[task]);
  tick(task);
}

void RaceDetector::acquire(TaskId task, const void* token) {
  auto it = token_clocks_.find(token);
  if (it != token_clocks_.end()) merge(&clocks_[task], it->second);
  tick(task);
}

void RaceDetector::fork(TaskId parent, TaskId child) {
  merge(&clocks_[child], clocks_[parent]);
  tick(parent);
}

bool RaceDetector::concurrent(const Access& a, const Access& b) {
  auto knows = [](const Access& of, const Access& about) {
    // `of` saw `about`'s access iff its clock entry for about.task has
    // reached the tick stamped on that access.
    const auto it = of.clock.find(about.task);
    const std::uint64_t seen = it == of.clock.end() ? 0 : it->second;
    const auto own = about.clock.find(about.task);
    const std::uint64_t stamp = own == about.clock.end() ? 0 : own->second;
    return seen >= stamp;
  };
  return !knows(a, b) && !knows(b, a);
}

void RaceDetector::finish() {
  if (finished_) return;
  finished_ = true;

  // Stable grouping by site, then by exact simulated instant.  Same-instant
  // accesses from the same task are program-ordered; different tasks with at
  // least one write race unless a clock edge orders them.
  std::map<std::string, std::vector<const Access*>> by_site;
  for (const Access& a : accesses_) by_site[a.site].push_back(&a);

  for (auto& [site, list] : by_site) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Access* a, const Access* b) {
                       if (a->time != b->time) return a->time < b->time;
                       return a->seq < b->seq;
                     });
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        const Access& a = *list[i];
        const Access& b = *list[j];
        if (b.time != a.time) break;  // sorted: later instants only
        if (a.task == b.task) continue;
        if (a.kind == AccessKind::kRead && b.kind == AccessKind::kRead) {
          continue;
        }
        if (!concurrent(a, b)) continue;
        // One report per (site, instant, task pair).
        const bool seen = std::any_of(
            races_.begin(), races_.end(), [&](const Race& r) {
              return r.site == site && r.time == a.time &&
                     ((r.first.task == a.task && r.second.task == b.task) ||
                      (r.first.task == b.task && r.second.task == a.task));
            });
        if (seen) continue;
        races_.push_back(Race{site, a.time, a, b});
      }
    }
  }
}

std::string RaceDetector::report() const {
  if (races_.empty()) return "ok";
  std::ostringstream out;
  out << races_.size() << " simulated-time race(s):";
  auto kind = [](AccessKind k) {
    return k == AccessKind::kWrite ? "write" : "read";
  };
  for (const Race& r : races_) {
    out << "\n  - site '" << r.site << "' at t=" << r.time << ": "
        << kind(r.first.kind) << " by '" << task_names_[r.first.task]
        << "' (event " << r.first.seq << ") and " << kind(r.second.kind)
        << " by '" << task_names_[r.second.task] << "' (event "
        << r.second.seq
        << ") are ordered only by event-queue tie-breaking; add "
           "synchronization or separate their timestamps";
  }
  return out.str();
}

}  // namespace paraio::sim
