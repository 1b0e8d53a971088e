// Node-order turnstile used by the M_SYNC access mode: rank r may proceed
// only when it is rank r's turn; finishing an access passes the turn to
// rank (r+1) mod parties.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <unordered_map>

#include "sim/engine.hpp"

namespace paraio::pfs {

class TurnGate {
 public:
  TurnGate(sim::Engine& engine, std::uint32_t parties)
      : engine_(engine), parties_(parties) {
    assert(parties > 0);
  }

  [[nodiscard]] std::uint32_t turn() const noexcept { return turn_; }
  [[nodiscard]] std::uint32_t parties() const noexcept { return parties_; }

  /// Awaitable: suspends until it is `rank`'s turn.  At most one task per
  /// rank may wait at a time (each node has one handle).
  [[nodiscard]] auto await_turn(std::uint32_t rank) {
    struct Awaiter {
      TurnGate& gate;
      std::uint32_t rank;
      bool await_ready() const noexcept { return gate.turn_ == rank; }
      void await_suspend(std::coroutine_handle<> h) {
        assert(!gate.waiting_.contains(rank) && "one waiter per rank");
        gate.waiting_.emplace(rank, h);
      }
      void await_resume() const noexcept {}
    };
    assert(rank < parties_);
    return Awaiter{*this, rank};
  }

  /// Passes the turn to the next rank, waking its waiter if parked.
  void advance() {
    turn_ = (turn_ + 1) % parties_;
    auto it = waiting_.find(turn_);
    if (it != waiting_.end()) {
      auto h = it->second;
      waiting_.erase(it);
      engine_.wake(h);
    }
  }

 private:
  sim::Engine& engine_;
  std::uint32_t parties_;
  std::uint32_t turn_ = 0;
  std::unordered_map<std::uint32_t, std::coroutine_handle<>> waiting_;
};

}  // namespace paraio::pfs
