// Bounded FIFO channel for message passing between simulation processes.
//
// Models the message-passing interconnect programming style (MPI-like):
// senders block when the channel is full, receivers block when it is empty.
// Delivery order is strictly FIFO for both values and blocked tasks.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "sim/engine.hpp"

namespace paraio::sim {

template <typename T>
class Channel {
 public:
  /// `capacity` of 0 is promoted to 1 (a rendezvous-like minimal buffer);
  /// use kUnbounded for an unbounded channel.
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  Channel(Engine& engine, std::size_t capacity)
      : engine_(engine), capacity_(capacity == 0 ? 1 : capacity) {}

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Awaitable send.  Usage: `co_await chan.send(std::move(msg));`
  [[nodiscard]] auto send(T value) {
    struct Awaiter {
      Channel& ch;
      T value;
      bool await_ready() noexcept {
        if (ch.senders_.empty() && ch.items_.size() < ch.capacity_) {
          ch.push_and_wake(std::move(value));
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch.senders_.push_back(PendingSend{h, &value});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, std::move(value)};
  }

  /// Awaitable receive.  Usage: `T msg = co_await chan.recv();`
  [[nodiscard]] auto recv() {
    struct Awaiter {
      Channel& ch;
      std::optional<T> slot;
      bool await_ready() noexcept {
        if (ch.receivers_.empty() && !ch.items_.empty()) {
          slot.emplace(std::move(ch.items_.front()));
          ch.items_.pop_front();
          ch.promote_sender();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch.receivers_.push_back(PendingRecv{h, &slot});
      }
      T await_resume() {
        assert(slot.has_value());
        return std::move(*slot);
      }
    };
    return Awaiter{*this, std::nullopt};
  }

  /// Non-blocking receive: returns nullopt if the channel is empty.
  [[nodiscard]] std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    promote_sender();
    return v;
  }

 private:
  struct PendingSend {
    std::coroutine_handle<> handle;
    T* value;  // lives in the suspended awaiter frame
  };
  struct PendingRecv {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;  // lives in the suspended awaiter frame
  };

  /// Adds a value; if a receiver is parked, hands the front of the buffer to
  /// it immediately (preserving FIFO: the receiver gets the oldest value).
  void push_and_wake(T value) {
    items_.push_back(std::move(value));
    wake_receiver();
  }

  void wake_receiver() {
    if (receivers_.empty() || items_.empty()) return;
    PendingRecv r = receivers_.front();
    receivers_.pop_front();
    r.slot->emplace(std::move(items_.front()));
    items_.pop_front();
    auto h = r.handle;
    engine_.wake(h);
    promote_sender();
  }

  /// Buffer space opened up: move the oldest blocked sender's value in.
  void promote_sender() {
    if (senders_.empty() || items_.size() >= capacity_) return;
    PendingSend s = senders_.front();
    senders_.pop_front();
    items_.push_back(std::move(*s.value));
    auto h = s.handle;
    engine_.wake(h);
    wake_receiver();
  }

  Engine& engine_;
  std::size_t capacity_;
  std::deque<T> items_;
  std::deque<PendingSend> senders_;
  std::deque<PendingRecv> receivers_;
};

}  // namespace paraio::sim
