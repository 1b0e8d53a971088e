#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace paraio::sim {

void Engine::reject_delay(SimDuration delay) {
  throw std::invalid_argument("sim::Engine: cannot schedule after delay " +
                              std::to_string(delay) +
                              " s (must be finite and >= 0)");
}

void Engine::reject_time(SimTime when) const {
  throw std::invalid_argument("sim::Engine: cannot schedule at t=" +
                              std::to_string(when) + " s (now is " +
                              std::to_string(now()) +
                              " s; must be finite and >= now)");
}

void Engine::detach(EngineObserver& observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), &observer);
  if (it != observers_.end()) observers_.erase(it);
}

void Engine::note_task_finished(void* process) noexcept {
  auto* p = static_cast<Process*>(process);
  p->engine->finished_.push_back(p);
  if (!p->daemon) --p->engine->live_tasks_;
}

void Engine::spawn(Task<> task) { adopt(std::move(task), false); }

void Engine::spawn_daemon(Task<> task) { adopt(std::move(task), true); }

void Engine::adopt(Task<> task, bool daemon) {
  assert(task.valid());
  Process* p = free_processes_;
  if (p != nullptr) {
    free_processes_ = p->next_free;
  } else {
    p = &processes_.emplace_back();
    p->engine = this;
  }
  p->task = std::move(task);
  p->daemon = daemon;
  if (!daemon) ++live_tasks_;
  p->task.set_on_complete(&Engine::note_task_finished, p);
  p->task.start();
  if (!finished_.empty()) reap_finished();
}

void Engine::reap_finished() {
  for (std::size_t i = 0; i < finished_.size(); ++i) {
    Process& p = *finished_[i];
    Task<> task = std::move(p.task);  // destroys the frame on scope exit
    p.next_free = free_processes_;
    free_processes_ = &p;
    if (task.failed()) {
      finished_.erase(finished_.begin(),
                      finished_.begin() + static_cast<std::ptrdiff_t>(i + 1));
      task.result();  // rethrows the detached task's exception
    }
  }
  finished_.clear();
}

bool Engine::step() {
  if (queue_.empty()) return false;
  auto [when, due] = queue_.pop();
  ++executed_;
  for (auto it = observers_.rbegin(); it != observers_.rend(); ++it) {
    (*it)->on_event(when);
  }
  due();
  // Finished tasks hand themselves over through their completion hooks;
  // failures surface from the step that finished them.
  if (!finished_.empty()) reap_finished();
  return true;
}

SimTime Engine::run() {
  while (step()) {
  }
  if (!finished_.empty()) reap_finished();
  for (auto it = observers_.rbegin(); it != observers_.rend(); ++it) {
    (*it)->on_run_complete(now(), queue_.size(), live_tasks());
  }
  return now();
}

}  // namespace paraio::sim
