// Small-buffer move-only callable for scheduled events.
//
// Every pooled event carries a callable, and nearly all of them are a
// timer's captured coroutine handle (`[h] { h.resume(); }` — 8 bytes);
// same-instant wake-ups skip the pool (see EventQueue's lane).
// std::function is the wrong container for that hot path: it requires
// copyability, may heap-allocate, and drags in RTTI-ish dispatch machinery.
// Action stores callables up to kInlineSize bytes inline with a three-entry
// ops table (invoke / relocate / destroy) and falls back to a single heap
// allocation only for large or throwing-move callables.  Move-only by
// design: scheduled work is consumed exactly once.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace paraio::sim {

class Action {
 public:
  /// Callables at most this large (and nothrow-movable, and no more aligned
  /// than max_align_t) are stored inline.  48 bytes covers every capture
  /// list the kernel and file-system layers create today with room to grow,
  /// while keeping Action within one cache line.
  static constexpr std::size_t kInlineSize = 48;

  Action() noexcept = default;
  Action(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Action> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  Action(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Action(Action&& other) noexcept { move_from(other); }

  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  ~Action() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty Action");
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (void)(*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (void)(**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*static_cast<Fn**>(src));
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
  };

  void move_from(Action& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace paraio::sim
