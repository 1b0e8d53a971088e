// Trace capture: an ordered event log plus the file-name registry.
//
// Sinks consume events as they happen ("real-time reduction" in the paper's
// terms); a Trace is itself a sink that simply retains everything for
// off-line analysis.  An experiment can attach any mix of a full Trace and
// lightweight summaries, mirroring Pablo's trade-off between trace volume
// and on-line reduction (§3.1).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "pablo/event.hpp"

namespace paraio::pablo {

/// Consumer of live instrumentation events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const IoEvent& event) = 0;
  /// Called when a file id is first associated with a path.
  virtual void on_file(io::FileId id, const std::string& path) { (void)id; (void)path; }
};

/// Full event trace retained in memory.
///
/// The events live in one malloc'd array that on_event grows by doubling
/// with realloc.  IoEvent is trivially copyable, and glibc serves a large
/// realloc with mremap, so events already captured are neither copied nor
/// faulted in again as the trace grows: a trace costs its events' bytes
/// (56 each) plus the unused tail of the last doubling.
class Trace final : public TraceSink {
 public:
  Trace() = default;
  Trace(const Trace& other);
  Trace(Trace&& other) noexcept;
  /// Copy or move assignment (the argument is copied or moved in first).
  Trace& operator=(Trace other) noexcept;
  ~Trace() override;

  void on_event(const IoEvent& event) override {
    if (size_ == capacity_) grow();
    events_[size_++] = event;
  }
  void on_file(io::FileId id, const std::string& path) override {
    names_.emplace(id, path);
  }

  /// The events in capture order.  The span is invalidated by the next
  /// on_event, clear(), assignment or destruction of this trace.
  [[nodiscard]] std::span<const IoEvent> events() const noexcept {
    return {events_, size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Path registered for `id`, or "file<id>" if unknown.
  [[nodiscard]] std::string file_name(io::FileId id) const;

  /// All (id, path) registrations in id order.
  [[nodiscard]] const std::map<io::FileId, std::string>& files() const noexcept {
    return names_;
  }

  /// Simulated time of the first / last event (0 when empty).
  [[nodiscard]] sim::SimTime start_time() const;
  [[nodiscard]] sim::SimTime end_time() const;

  /// Drops every event and registration; the event array is kept for reuse.
  void clear() noexcept {
    size_ = 0;
    names_.clear();
  }

  friend bool operator==(const Trace& a, const Trace& b);

  // Sorts its output in place (filter.hpp).
  friend Trace merge(const std::vector<const Trace*>& traces);

 private:
  void grow();
  /// Makes room for at least `capacity` events.
  void reserve(std::size_t capacity);

  IoEvent* events_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::map<io::FileId, std::string> names_;
};

}  // namespace paraio::pablo
