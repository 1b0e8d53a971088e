// Simulated-time race detector.
//
// A discrete-event simulation cannot have data races in the threading sense
// (the kernel is single-threaded), but it has a logical analogue: two tasks
// touching the same shared state at the *same simulated instant*, where at
// least one touch is a write and nothing orders the pair except the event
// queue's insertion-sequence tie-break.  Such code produces one stable trace
// today — and a different, equally valid trace after any refactor that
// changes spawn or scheduling order.  That is exactly the class of bug that
// breaks the golden-trace guarantee, so it deserves a detector, not a
// post-mortem.
//
// The detector claims the engine's race-detector slot, through which
// annotation sites in model code find it, stamps each access with the
// engine's executed-event count, and learns about shared state through
// annotations:
//
//   sim::RaceDetector det(engine);             // attaches; detaches on exit
//   auto a = det.register_task("writer-a");
//   ...
//   det.write(a, "counter");                   // inside task a, at now()
//   det.release(a, &mutex);                    // happens-before edges
//   det.acquire(b, &mutex);
//   ...
//   engine.run();
//   det.finish();
//   EXPECT_TRUE(det.ok()) << det.report();
//
// Accesses carry per-task vector clocks; acquire/release/fork edges merge
// them, so a same-instant pair is only reported when it is genuinely
// unordered (the FIFO handoff of a sim::Mutex, for example, clears it).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace paraio::sim {

class RaceDetector {
 public:
  using TaskId = std::uint32_t;
  enum class AccessKind : std::uint8_t { kRead, kWrite };

  /// Vector clock: task id -> last known tick of that task.
  using Clock = std::map<TaskId, std::uint64_t>;

  struct Access {
    SimTime time = 0.0;
    std::uint64_t seq = 0;  // kernel events executed since attach
    TaskId task = 0;
    AccessKind kind = AccessKind::kRead;
    std::string site;
    Clock clock;
  };

  struct Race {
    std::string site;
    SimTime time = 0.0;
    Access first;   // in kernel order (the current tie-break winner)
    Access second;
  };

  /// Becomes `engine`'s race_detector() until destroyed.  Throws
  /// std::logic_error if `engine` already has one.
  explicit RaceDetector(Engine& engine);
  ~RaceDetector();
  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  // --- annotation API ---
  /// Registers a logical task (a coroutine process, a per-node client, ...).
  TaskId register_task(std::string name);
  /// Memoized external task identity, for annotations in production code
  /// that only have a stable key (e.g. a NodeId) in hand.
  TaskId task_for_key(std::uint64_t key, const char* label);

  void read(TaskId task, std::string site);
  void write(TaskId task, std::string site);

  /// Happens-before edges through a synchronization object (any stable
  /// address: a sim::Mutex, Event, TurnGate...).  release() publishes the
  /// task's clock into the token; acquire() merges the token's clock in.
  void release(TaskId task, const void* token);
  void acquire(TaskId task, const void* token);
  /// Parent-to-child edge at spawn time.
  void fork(TaskId parent, TaskId child);

  /// Runs the analysis over every recorded access.  Idempotent.
  void finish();

  [[nodiscard]] bool ok() const { return races_.empty(); }
  [[nodiscard]] const std::vector<Race>& races() const { return races_; }
  [[nodiscard]] std::size_t access_count() const { return accesses_.size(); }
  [[nodiscard]] const std::string& task_name(TaskId task) const {
    return task_names_[task];
  }
  /// Human-readable summary of every race ("ok" when clean).
  [[nodiscard]] std::string report() const;

 private:
  void record(TaskId task, AccessKind kind, std::string site);
  void tick(TaskId task) { ++clocks_[task][task]; }
  static void merge(Clock* into, const Clock& from);
  /// Neither access's clock dominates the other's entry for its own task.
  static bool concurrent(const Access& a, const Access& b);

  Engine& engine_;
  std::uint64_t events_at_attach_ = 0;

  std::vector<std::string> task_names_;
  std::vector<Clock> clocks_;
  std::map<std::uint64_t, TaskId> external_tasks_;
  std::map<const void*, Clock> token_clocks_;  // paraio-lint: allow(ptr-key-order)
  std::vector<Access> accesses_;
  std::vector<Race> races_;
  bool finished_ = false;
};

}  // namespace paraio::sim
