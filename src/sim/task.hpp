// Coroutine task type for simulation processes.
//
// A `Task<T>` is a lazily-started coroutine: creating it allocates the frame
// but runs no user code until the task is either awaited by another task or
// started by the Engine (top-level processes).  Completion uses symmetric
// transfer to resume the awaiting parent, so arbitrarily deep await chains
// use O(1) host stack.
//
// Ownership: the Task object owns the coroutine frame and destroys it in the
// destructor.  A parent awaiting a child keeps the child Task alive in its
// own frame, giving structured concurrency for the common fork/join shapes;
// detached top-level processes are owned by the Engine until they finish.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "sim/arena.hpp"

namespace paraio::sim {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  /// Completion hook, fired once when the coroutine reaches its final
  /// suspend point (the task is done() from then on).  The Engine registers
  /// one on detached tasks so it learns which processes finished instead of
  /// scanning its whole task list (see Engine::spawn).
  void (*on_complete)(void*) noexcept = nullptr;
  void* on_complete_arg = nullptr;

  // Coroutine frames are the kernel's highest-rate allocation; route them
  // through the size-class pool.  Inherited by every Promise<T>.
  static void* operator new(std::size_t size) { return arena::allocate(size); }
  static void operator delete(void* p, std::size_t size) noexcept {
    arena::deallocate(p, size);
  }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.on_complete != nullptr) p.on_complete(p.on_complete_arg);
      auto cont = p.continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object() noexcept;
  void return_value(T v) { value.emplace(std::move(v)); }
  T take() {
    if (exception) std::rethrow_exception(exception);
    assert(value.has_value() && "task finished without a value");
    return std::move(*value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void take() {
    if (exception) std::rethrow_exception(exception);
  }
};

}  // namespace detail

/// A lazily-started coroutine returning T.  Move-only.
template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const noexcept { return !handle_ || handle_.done(); }

  /// Starts a top-level task (used by Engine::spawn).  Precondition: the
  /// task has not been started or awaited yet.
  void start() {
    assert(handle_ && !handle_.done());
    handle_.resume();
  }

  /// Rethrows any exception the finished task captured and, for non-void T,
  /// returns its value.  Precondition: done().
  T result() {
    assert(done());
    return handle_.promise().take();
  }

  /// True if the finished task ended with an uncaught exception.
  [[nodiscard]] bool failed() const noexcept {
    return handle_ && handle_.done() &&
           handle_.promise().exception != nullptr;
  }

  /// Registers a hook fired when the task reaches its final suspend point
  /// (i.e. the moment done() becomes true).  At most one hook; the Engine
  /// uses it to reap finished detached tasks.  Call before start()/awaiting.
  void set_on_complete(void (*fn)(void*) noexcept, void* arg) noexcept {
    assert(handle_);
    handle_.promise().on_complete = fn;
    handle_.promise().on_complete_arg = arg;
  }

  /// Awaiting a task starts it (if not yet started) and suspends the parent
  /// until it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        handle.promise().continuation = parent;
        return handle;  // symmetric transfer: start/continue the child
      }
      T await_resume() { return handle.promise().take(); }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace paraio::sim
