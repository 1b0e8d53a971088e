#include "hw/scheduler.hpp"

#include <limits>

namespace paraio::hw {

const char* to_string(DiskSchedPolicy policy) {
  switch (policy) {
    case DiskSchedPolicy::kFifo:
      return "FIFO";
    case DiskSchedPolicy::kScan:
      return "SCAN";
  }
  return "unknown";
}

std::size_t ScheduledArray::pick_next() const {
  if (policy_ == DiskSchedPolicy::kFifo || waiting_.size() == 1) return 0;
  // SCAN: nearest request in the sweep direction; reverse at the end.
  auto best_in_direction = [&](bool up) -> std::pair<bool, std::size_t> {
    bool found = false;
    std::size_t best = 0;
    std::uint64_t best_key = up ? std::numeric_limits<std::uint64_t>::max()
                                : 0;
    for (std::size_t i = 0; i < waiting_.size(); ++i) {
      const std::uint64_t off = waiting_[i].offset;
      if (up ? off >= head_ : off <= head_) {
        const bool better = up ? off < best_key : off >= best_key;
        if (!found || better) {
          found = true;
          best = i;
          best_key = off;
        }
      }
    }
    return {found, best};
  };
  auto [found, index] = best_in_direction(sweep_up_);
  if (found) return index;
  auto [found2, index2] = best_in_direction(!sweep_up_);
  return found2 ? index2 : 0;
}

void ScheduledArray::admit_next() {
  if (waiting_.empty()) {
    busy_ = false;
    return;
  }
  const std::size_t index = pick_next();
  // Track sweep direction from the admitted request's position.
  sweep_up_ = waiting_[index].offset >= head_;
  auto handle = waiting_[index].handle;
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(index));
  // busy_ stays true: ownership passes to the admitted waiter.
  engine_.wake(handle);
}

sim::Task<DiskOutcome> ScheduledArray::access(std::uint64_t offset,
                                              std::uint64_t bytes,
                                              bool is_write) {
  if (busy_) {
    struct Enqueue {
      ScheduledArray& sched;
      std::uint64_t offset;
      std::uint64_t bytes;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sched.waiting_.push_back(Waiter{offset, bytes, h});
      }
      void await_resume() const noexcept {}
    };
    co_await Enqueue{*this, offset, bytes};
    // Resumed by admit_next(): we own the array now (busy_ is still true).
  } else {
    busy_ = true;
  }
  ++admitted_;
  const DiskOutcome outcome = co_await array_.access(offset, bytes, is_write);
  head_ = offset + bytes;
  admit_next();
  co_return outcome;
}

}  // namespace paraio::hw
