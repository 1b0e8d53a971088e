// Fork/join helper for groups of concurrent simulation tasks.
//
// A TaskGroup spawns detached tasks on the engine and lets a coordinating
// task await completion of the whole group — the fork/join pattern every
// application skeleton in src/apps uses for its per-node processes.
// The group must outlive its children (keep it on the coordinating
// coroutine's frame or in the experiment driver).
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <utility>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace paraio::sim {

class TaskGroup {
 public:
  explicit TaskGroup(Engine& engine) : engine_(engine) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Starts `task` as a detached process counted by this group.
  void spawn(Task<> task) {
    ++active_;
    engine_.spawn(wrap(std::move(task)));
  }

  [[nodiscard]] std::size_t active() const noexcept { return active_; }

  /// Awaitable join: suspends until every spawned task has finished.  Ready
  /// immediately when the group is empty.  The group is reusable after a
  /// join completes.
  [[nodiscard]] auto join() {
    struct Awaiter {
      TaskGroup& group;
      bool await_ready() const noexcept { return group.active_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        group.joiners_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Task<> wrap(Task<> task) {
    co_await std::move(task);
    --active_;
    if (active_ == 0) {
      for (auto h : joiners_) {
        engine_.wake(h);
      }
      joiners_.clear();
    }
  }

  Engine& engine_;
  std::size_t active_ = 0;
  std::deque<std::coroutine_handle<>> joiners_;
};

}  // namespace paraio::sim
