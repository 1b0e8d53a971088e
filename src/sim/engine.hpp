// Discrete-event simulation engine.
//
// The engine owns simulated time and the pending-event set, and acts as the
// scheduler for coroutine processes (sim::Task).  It is strictly
// single-threaded; determinism comes from the EventQueue's FIFO tie-break.
// A scheduled event always runs: nothing in the kernel retracts one, and
// time advances only through step() and run().
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace paraio::sim {

class DeadlockDetector;
class RaceDetector;

/// Observation points on the simulation kernel, intended for debug and test
/// builds (the testkit's invariant checker implements this).  Hooks cost one
/// emptiness test per event when no observer is attached; production code
/// simply never attaches one.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// An event was scheduled for absolute time `when` while now() == `now`.
  virtual void on_schedule(SimTime now, SimTime when) {
    (void)now;
    (void)when;
  }
  /// An event is about to execute; now() has been advanced to `when`.
  virtual void on_event(SimTime when) { (void)when; }
  /// run() finished.  A drained simulation has pending_events == 0 and
  /// live_tasks == 0; anything else means a process is blocked forever.
  virtual void on_run_complete(SimTime now, std::size_t pending_events,
                               std::size_t live_tasks) {
    (void)now;
    (void)pending_events;
    (void)live_tasks;
  }
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const noexcept { return queue_.now(); }

  /// Schedules `action` after `delay` seconds of simulated time.  Throws
  /// std::invalid_argument for a negative, NaN or infinite delay.
  void call_in(SimDuration delay, EventQueue::Action action) {
    if (!(delay >= 0.0 && delay < kTimeInfinity)) reject_delay(delay);
    notify_schedule(now() + delay);
    queue_.schedule(now() + delay, std::move(action));
  }

  /// Schedules `action` at absolute simulated time `when`.  Throws
  /// std::invalid_argument unless now() <= when < infinity (NaN included).
  void call_at(SimTime when, EventQueue::Action action) {
    if (!(when >= now() && when < kTimeInfinity)) reject_time(when);
    notify_schedule(when);
    queue_.schedule(when, std::move(action));
  }

  /// Resumes `h` at now(), after every event already scheduled for this
  /// instant: the O(1) path for synchronization primitives handing a
  /// resource to a waiter.  Same order and observer hooks as a call_in(0.0)
  /// callback that resumes `h`, without the pooled action.
  void wake(std::coroutine_handle<> h) {
    notify_schedule(now());
    queue_.schedule_resume(h);
  }

  /// Starts a detached top-level process.  The engine keeps the task alive
  /// until it finishes; if the task ends with an uncaught exception the next
  /// run()/step() call rethrows it.
  void spawn(Task<> task);

  /// Starts a persistent service loop (e.g. a server draining a request
  /// channel forever).  Daemons get the same lifetime and error handling as
  /// spawn()ed tasks but are excluded from live_tasks(): being blocked when
  /// the event queue drains is their normal end state, not a deadlock.
  void spawn_daemon(Task<> task);

  /// Runs until no events remain.  Returns the final simulated time.
  SimTime run();

  /// Executes exactly one event if any is pending.  Returns false when the
  /// queue is empty.
  bool step();

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events executed so far (for microbenchmarks and sanity checks).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of detached non-daemon tasks that have not yet completed.  A
  /// non-zero value after run() returns means some process is blocked on an
  /// event that will never fire — the queue-drain invariant the testkit
  /// checks.  Daemons (spawn_daemon) are expected to outlive the queue and
  /// are not counted.
  [[nodiscard]] std::size_t live_tasks() const noexcept { return live_tasks_; }

  /// Attaches `observer` until detach(); it must not already be attached.
  /// Every hook reaches the attached observers newest first, so an observer
  /// attached later (run_experiment's Sampler) hears an event before one
  /// attached earlier (the caller's ExperimentHooks::engine).
  void attach(EngineObserver& observer) { observers_.push_back(&observer); }
  /// Detaches `observer` wherever it sits in attach order; a no-op if it is
  /// not attached.
  void detach(EngineObserver& observer);

  /// The detectors annotation sites in model code report to, or nullptr
  /// when none is attached.  Each detector claims its slot for its lifetime
  /// (see DeadlockDetector and RaceDetector).
  [[nodiscard]] DeadlockDetector* deadlock_detector() const noexcept {
    return deadlock_detector_;
  }
  [[nodiscard]] RaceDetector* race_detector() const noexcept {
    return race_detector_;
  }

  /// Seeds the same-instant tie-break permutation (see
  /// EventQueue::set_tie_break_seed).  Throws std::logic_error while any
  /// event is pending; seed 0 is the default FIFO order the golden traces
  /// are recorded under.
  void set_tie_break_seed(std::uint64_t seed) {
    queue_.set_tie_break_seed(seed);
  }
  [[nodiscard]] std::uint64_t tie_break_seed() const noexcept {
    return queue_.tie_break_seed();
  }

  /// Awaitable that suspends the current task for `delay` simulated seconds.
  /// Usage: `co_await engine.delay(sim::milliseconds(17));`  A delay that
  /// call_in() rejects throws from the co_await.
  [[nodiscard]] auto delay(SimDuration d) {
    struct Awaiter {
      Engine& engine;
      SimDuration dur;
      // Always suspends, even for a zero duration: delay(0) is a
      // deterministic yield point, not a no-op.
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        if (dur == 0.0) {
          engine.wake(h);
        } else {
          engine.call_in(dur, [h] { h.resume(); });
        }
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Awaitable that reschedules the current task at the same instant, after
  /// all events already queued for that instant.  Useful to break ties or
  /// yield to peers deterministically.
  [[nodiscard]] auto yield() { return delay(0.0); }

 private:
  /// A spawned task, owned by the engine until it finishes.  Records live
  /// in a deque (stable addresses) and are recycled through a free list.
  struct Process {
    Task<> task;
    Engine* engine = nullptr;
    Process* next_free = nullptr;
    bool daemon = false;
  };

  friend class DeadlockDetector;
  friend class RaceDetector;

  void notify_schedule(SimTime when) {
    for (auto it = observers_.rbegin(); it != observers_.rend(); ++it) {
      (*it)->on_schedule(now(), when);
    }
  }
  [[noreturn]] static void reject_delay(SimDuration delay);
  [[noreturn]] void reject_time(SimTime when) const;
  void adopt(Task<> task, bool daemon);
  void reap_finished();
  /// Completion hook installed on every spawned task (see Task's
  /// set_on_complete): hands the finished process to reap_finished(), so
  /// reaping never looks at a task that is still running.
  static void note_task_finished(void* process) noexcept;

  EventQueue queue_;
  std::uint64_t executed_ = 0;
  std::vector<EngineObserver*> observers_;  // attach order
  DeadlockDetector* deadlock_detector_ = nullptr;
  RaceDetector* race_detector_ = nullptr;
  // Declared after queue_ so unfinished tasks are destroyed first: a frame's
  // destructors may still schedule.
  std::deque<Process> processes_;
  Process* free_processes_ = nullptr;
  std::vector<Process*> finished_;
  std::size_t live_tasks_ = 0;
};

}  // namespace paraio::sim
