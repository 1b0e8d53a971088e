#include "pablo/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <utility>

namespace paraio::pablo {

const char* to_string(Op op) {
  switch (op) {
    case Op::kRead:
      return "Read";
    case Op::kWrite:
      return "Write";
    case Op::kSeek:
      return "Seek";
    case Op::kOpen:
      return "Open";
    case Op::kClose:
      return "Close";
    case Op::kLsize:
      return "Lsize";
    case Op::kFlush:
      return "Forflush";
    case Op::kAsyncRead:
      return "AsynchRead";
    case Op::kAsyncWrite:
      return "AsynchWrite";
    case Op::kIoWait:
      return "I/O Wait";
  }
  return "Unknown";
}

Trace::Trace(const Trace& other) : TraceSink(), names_(other.names_) {
  reserve(other.size_);
  std::ranges::copy(other.events(), events_);
  size_ = other.size_;
}

Trace::Trace(Trace&& other) noexcept
    : TraceSink(),
      events_(std::exchange(other.events_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)),
      names_(std::exchange(other.names_, {})) {}

Trace& Trace::operator=(Trace other) noexcept {
  std::swap(events_, other.events_);
  std::swap(size_, other.size_);
  std::swap(capacity_, other.capacity_);
  names_.swap(other.names_);
  return *this;
}

Trace::~Trace() { std::free(events_); }

void Trace::grow() { reserve(std::max<std::size_t>(2 * capacity_, 16)); }

void Trace::reserve(std::size_t capacity) {
  if (capacity <= capacity_) return;
  void* p = std::realloc(events_, capacity * sizeof(IoEvent));
  if (p == nullptr) throw std::bad_alloc();
  events_ = static_cast<IoEvent*>(p);
  capacity_ = capacity;
}

bool operator==(const Trace& a, const Trace& b) {
  return std::ranges::equal(a.events(), b.events()) && a.names_ == b.names_;
}

std::string Trace::file_name(io::FileId id) const {
  auto it = names_.find(id);
  if (it != names_.end()) return it->second;
  return "file" + std::to_string(id);
}

sim::SimTime Trace::start_time() const {
  return size_ == 0 ? 0.0 : events_[0].timestamp;
}

sim::SimTime Trace::end_time() const {
  sim::SimTime end = 0.0;
  for (const IoEvent& e : events()) {
    end = std::max(end, e.timestamp + e.duration);
  }
  return end;
}

}  // namespace paraio::pablo
