// Runtime deadlock detection for the coroutine simulation.
//
// The engine cannot tell a finished simulation from a wedged one: when every
// remaining task is blocked on an event that will never fire, the queue
// simply drains and run() returns with live_tasks() > 0 — the experiment
// silently loses whatever those tasks were about to do.  The testkit's
// invariant checker flags the *count*; this detector explains the *cause*.
//
// It attaches to the engine as a sim::EngineObserver (to hear when run()
// completes) and claims the engine's deadlock-detector slot, through which
// annotation sites in model code find it; it learns about blocking through
// those annotations:
//
//   sim::DeadlockDetector det(engine);          // attaches; detaches on exit
//   auto t1 = det.register_task("writer");
//   det.lock_wait(t1, &a, "mutex A");           // before co_await a.lock()
//   det.lock_acquired(t1, &a, "mutex A");       // after it resumes
//   det.lock_released(t1, &a);                  // at a.unlock()
//   ...
//   engine.run();
//   det.finish();                               // also runs automatically at
//   EXPECT_TRUE(det.ok()) << det.report();      // quiescence w/ live waiters
//
// It maintains:
//
//   * a runtime waits-for graph over mutexes/semaphores, condition waits,
//     channel sends/recvs, and joins.  At quiescence with pending waiters it
//     reports every cycle with per-task held/wanted edges, and every acyclic
//     stranded waiter with what it was waiting for;
//   * lockdep-style acquisition-order tracking: whenever a task acquires B
//     while holding A, the static order edge A -> B is recorded, and a cycle
//     in that graph is reported as a lock-order inversion even if this run
//     got lucky and never actually deadlocked.
//
// Channel waits use declared roles: a task blocked in send() waits on every
// registered receiver of that channel, a task blocked in recv() waits on
// every registered sender.  A bounded channel whose only receiver is the
// sending task itself therefore forms a one-task cycle — the classic
// channel self-deadlock.  Daemons (Engine::spawn_daemon service loops)
// should be marked with set_daemon(): being parked in recv() at drain time
// is their normal end state, not a stranding.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"

namespace paraio::sim {

class DeadlockDetector : public EngineObserver {
 public:
  using TaskId = std::uint32_t;

  enum class WaitKind : std::uint8_t {
    kLock,     // mutex / semaphore acquisition
    kCond,     // condition-style wait (Event, Latch, TurnGate)
    kSend,     // channel send on a full bounded channel
    kRecv,     // channel recv on an empty channel
    kJoin,     // waiting for another task to finish
  };

  /// One "task X waits for task Y through resource R" edge of a reported
  /// cycle, with everything X held at the time.
  struct CycleEdge {
    TaskId waiter = 0;
    TaskId provider = 0;           // the task that would have to act
    std::string resource;          // label of the wanted resource
    WaitKind kind = WaitKind::kLock;
    std::vector<std::string> held; // labels of resources `waiter` holds
  };

  struct Cycle {
    std::vector<CycleEdge> edges;  // in cycle order; edges.front().waiter ==
                                   // edges.back().provider
  };

  /// A task blocked at quiescence that is not part of any cycle (e.g. a wait
  /// on an Event nobody is left to set).
  struct Stranded {
    TaskId task = 0;
    std::string resource;
    WaitKind kind = WaitKind::kLock;
  };

  /// Acquisition-order inversion: this run saw both "A held while acquiring
  /// B" and a path B -> ... -> A, so some interleaving can deadlock.
  struct OrderInversion {
    std::string first;   // label of A
    std::string second;  // label of B
    std::string site;    // task that closed the cycle
  };

  /// Attaches to `engine` and becomes its deadlock_detector() until
  /// destroyed.  Throws std::logic_error if `engine` already has one.
  explicit DeadlockDetector(Engine& engine);
  ~DeadlockDetector() override;
  DeadlockDetector(const DeadlockDetector&) = delete;
  DeadlockDetector& operator=(const DeadlockDetector&) = delete;

  // --- sim::EngineObserver ---
  /// Runs the analysis automatically when the queue drains with pending
  /// waiters, so a wedged engine.run() produces a report instead of exiting
  /// silently with stranded coroutines.
  void on_run_complete(SimTime now, std::size_t pending_events,
                       std::size_t live_tasks) override;

  // --- task identity ---
  TaskId register_task(std::string name);
  /// Memoized external identity for annotation sites that only have a stable
  /// key (e.g. a NodeId) in hand.
  TaskId task_for_key(std::uint64_t key, const char* label);
  /// Marks a service-loop task: parked waits at drain time are expected and
  /// never reported as stranded (the task still appears as a provider).
  void set_daemon(TaskId task);
  [[nodiscard]] const std::string& task_name(TaskId task) const {
    return task_names_[task];
  }

  // --- mutexes / semaphores ---
  void lock_wait(TaskId task, const void* lock, std::string_view label);
  void lock_acquired(TaskId task, const void* lock, std::string_view label);
  void lock_released(TaskId task, const void* lock);

  // --- condition-style waits (Event, Latch, TurnGate...) ---
  void cond_wait(TaskId task, const void* cond, std::string_view label);
  void cond_woken(TaskId task, const void* cond);
  /// Declares `task` as able to satisfy waits on `cond` (it will set the
  /// event / advance the gate).
  void cond_provider(TaskId task, const void* cond, std::string_view label);

  // --- channels ---
  void channel_sender(TaskId task, const void* channel, std::string_view label);
  void channel_receiver(TaskId task, const void* channel,
                        std::string_view label);
  void send_wait(TaskId task, const void* channel, std::string_view label);
  void send_done(TaskId task, const void* channel);
  void recv_wait(TaskId task, const void* channel, std::string_view label);
  void recv_done(TaskId task, const void* channel);

  // --- joins ---
  void join_wait(TaskId waiter, TaskId target);
  void join_done(TaskId waiter, TaskId target);
  void task_done(TaskId task);

  /// Runs the waits-for analysis over the current wait set.  Idempotent per
  /// state: may be called again after more events.
  void finish();

  [[nodiscard]] bool ok() const {
    return cycles_.empty() && stranded_.empty() && inversions_.empty();
  }
  [[nodiscard]] const std::vector<Cycle>& cycles() const { return cycles_; }
  [[nodiscard]] const std::vector<Stranded>& stranded() const {
    return stranded_;
  }
  [[nodiscard]] const std::vector<OrderInversion>& inversions() const {
    return inversions_;
  }
  /// Human-readable summary ("ok" when clean): every cycle with per-task
  /// held/wanted resources, every stranded waiter, every order inversion.
  [[nodiscard]] std::string report() const;

 private:
  using ResId = std::uint32_t;

  struct Resource {
    const void* token = nullptr;
    std::string label;
    std::vector<TaskId> holders;    // kLock: current owners
    std::set<TaskId> senders;       // channels: declared roles
    std::set<TaskId> receivers;
    std::set<TaskId> providers;     // kCond: declared signalers
  };

  struct Wait {
    TaskId task = 0;
    ResId res = 0;
    WaitKind kind = WaitKind::kLock;
  };

  ResId resource(const void* token, std::string_view label);
  void add_wait(TaskId task, ResId res, WaitKind kind);
  void drop_wait(TaskId task, ResId res, WaitKind kind);
  /// Tasks whose progress could satisfy `wait`.
  [[nodiscard]] std::vector<TaskId> providers_of(const Wait& wait) const;
  void record_order_edge(TaskId task, ResId from, ResId to);
  [[nodiscard]] std::vector<std::string> held_labels(TaskId task) const;

  Engine& engine_;

  std::vector<std::string> task_names_;
  std::set<TaskId> daemons_;
  std::map<std::uint64_t, TaskId> external_tasks_;

  std::vector<Resource> resources_;
  std::map<const void*, ResId> resource_ids_;  // paraio-lint: allow(ptr-key-order)
  std::vector<std::vector<ResId>> held_;       // per task, acquisition order
  std::vector<Wait> waits_;                    // currently blocked

  // Static acquisition-order graph: (from, to) -> first task that did it.
  std::map<std::pair<ResId, ResId>, TaskId> order_edges_;
  std::set<std::pair<ResId, ResId>> reported_inversions_;

  std::vector<Cycle> cycles_;
  std::vector<Stranded> stranded_;
  std::vector<OrderInversion> inversions_;
};

}  // namespace paraio::sim
