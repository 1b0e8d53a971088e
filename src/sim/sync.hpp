// Awaitable synchronization primitives for simulation processes.
//
// All primitives resume waiters through Engine::wake (an event at the
// current instant) rather than inline, so a `set()` or `release()` never
// re-enters user code synchronously and wake-up order is deterministic FIFO.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>

#include "sim/engine.hpp"

namespace paraio::sim {

/// One-shot event: tasks await until some task calls set().  After set(),
/// waits complete immediately.  reset() re-arms it.
class Event {
 public:
  explicit Event(Engine& engine) : engine_(engine) {}

  void set();
  void reset() { set_ = false; }
  [[nodiscard]] bool is_set() const noexcept { return set_; }
  [[nodiscard]] std::size_t waiters() const noexcept { return waiters_.size(); }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) {
        ev.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  std::deque<std::coroutine_handle<>> waiters_;
  bool set_ = false;
};

/// Counting semaphore with FIFO handoff: release() passes the permit
/// directly to the oldest waiter, so waiters cannot be starved by barging.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::size_t initial)
      : engine_(engine), count_(initial) {}

  void release(std::size_t n = 1);
  [[nodiscard]] std::size_t available() const noexcept { return count_; }
  [[nodiscard]] std::size_t waiters() const noexcept { return waiters_.size(); }

  [[nodiscard]] auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      // Fast path only when nobody is queued, preserving FIFO order.  A
      // queued waiter later receives a direct handoff from release()
      // without touching count_, so await_resume has nothing to do.
      bool await_ready() noexcept {
        if (sem.waiters_.empty() && sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine& engine_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Mutual exclusion: a binary FIFO semaphore with scoped-lock sugar.
class Mutex {
 public:
  explicit Mutex(Engine& engine) : sem_(engine, 1) {}
  [[nodiscard]] auto lock() { return sem_.acquire(); }
  void unlock() { sem_.release(); }
  [[nodiscard]] bool locked() const noexcept { return sem_.available() == 0; }

 private:
  Semaphore sem_;
};

/// Cyclic barrier for `parties` tasks.  The last arrival releases everyone
/// and the barrier re-arms for the next cycle.
class Barrier {
 public:
  Barrier(Engine& engine, std::size_t parties)
      : engine_(engine), parties_(parties) {
    assert(parties > 0);
  }

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  [[nodiscard]] std::size_t arrived() const noexcept { return arrived_; }
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  [[nodiscard]] auto arrive_and_wait() {
    struct Awaiter {
      Barrier& b;
      bool await_ready() noexcept {
        if (b.arrived_ + 1 == b.parties_) {
          b.release_all();
          return true;  // last arrival passes straight through
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ++b.arrived_;
        b.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  void release_all();

  Engine& engine_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Countdown latch: await until count_down() has been called `count` times.
class Latch {
 public:
  Latch(Engine& engine, std::size_t count)
      : event_(engine), remaining_(count) {
    if (remaining_ == 0) event_.set();
  }

  void count_down(std::size_t n = 1) {
    assert(remaining_ >= n);
    remaining_ -= n;
    if (remaining_ == 0) event_.set();
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] auto wait() { return event_.wait(); }

 private:
  Event event_;
  std::size_t remaining_;
};

}  // namespace paraio::sim
