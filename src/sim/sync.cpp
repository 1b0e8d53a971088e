#include "sim/sync.hpp"

namespace paraio::sim {

void Event::set() {
  set_ = true;
  // Resume through the event queue so set() never re-enters user code.
  for (auto h : waiters_) {
    engine_.wake(h);
  }
  waiters_.clear();
}

void Semaphore::release(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_.wake(h);
    } else {
      ++count_;
    }
  }
}

void Barrier::release_all() {
  ++generation_;
  arrived_ = 0;
  for (auto h : waiters_) {
    engine_.wake(h);
  }
  waiters_.clear();
}

}  // namespace paraio::sim
