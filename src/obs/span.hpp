// Simulated-time span tracing.
//
// Spans bracket intervals of simulated time — a PFS transfer, a PPFS ION
// batch, an application phase — on a (process, track) pair that maps
// directly onto the Chrome trace-event (pid, tid) model: one "process" per
// machine node, one "track" per device or server within it.  Nesting is
// per-track: beginning a span while another is open on the same track
// records the open one as its parent, which is how a PFS read span encloses
// the per-stripe-server piece spans it fans out to.
//
// Like obs::Registry, recording is pure bookkeeping in wall-clock space:
// no simulated time is consumed, so an attached tracer cannot perturb
// trace digests.
//
// Storage is sized to what a span carries.  Names and categories are
// interned once each in stable storage, so a Span holds two pointers and
// is a 48-byte plain record; spans go into a ChunkedLog, which never
// copies or frees a chunk while the tracer lives.  Call sites that open
// many spans intern their names once, when observability is attached, and
// pass the handles to begin(); the string_view overloads intern on every
// call and suit names that vary (checkpoint epochs, phases, fault kinds).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/chunked_log.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace paraio::obs {

/// Where a span lives in the Chrome trace model: `process` becomes the pid
/// (one per machine node), `track` the tid (one per device/server/role).
struct Track {
  std::uint32_t process = 0;
  std::uint32_t track = 0;
};

/// Synthetic pid for machine-wide rows (application phases).
inline constexpr std::uint32_t kGlobalProcess = 0xFFFFFFFFu;

class Tracer {
 public:
  /// 1-based index into spans(); 0 means "no span" (detached call sites
  /// pass it back to end() harmlessly).
  using SpanId = std::uint64_t;

  /// An interned string: stable for the tracer's lifetime, and equal
  /// texts share one pointer.
  using Name = const std::string*;

  struct Span {
    Name name = nullptr;
    Name category = nullptr;
    std::uint32_t process = 0;
    std::uint32_t track = 0;
    sim::SimTime start = 0.0;
    sim::SimTime end = -1.0;  // -1 while open
    SpanId parent = 0;

    [[nodiscard]] bool closed() const noexcept { return end >= start; }
  };

  /// A zero-duration marker — a fault injection, an exhausted-recovery I/O
  /// error — pinned to a moment on a (process, track) pair.
  struct Instant {
    Name name = nullptr;
    Name category = nullptr;
    std::uint32_t process = 0;
    std::uint32_t track = 0;
    sim::SimTime time = 0.0;
  };

  Tracer() = default;
  // Spans point into this tracer's interned names, so a copy would
  // dangle once the original dies; moving keeps every address.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) noexcept = default;
  Tracer& operator=(Tracer&&) noexcept = default;
  ~Tracer() = default;

  /// Binds the tracer to the engine whose clock timestamps spans.  Must be
  /// called before begin()/end(); core::run_experiment does it for hooks.
  void bind(sim::Engine& engine) noexcept { engine_ = &engine; }
  [[nodiscard]] bool bound() const noexcept { return engine_ != nullptr; }

  /// The interned copy of `text`: the same text always gives the same
  /// pointer, and each distinct text is stored once.
  [[nodiscard]] Name intern(std::string_view text);
  /// Number of distinct interned strings.
  [[nodiscard]] std::size_t interned() const noexcept { return names_.size(); }

  /// Opens a span at now().  If another span is open on the same track it
  /// becomes this one's parent.
  [[nodiscard]] SpanId begin(Track at, Name name, Name category);
  [[nodiscard]] SpanId begin(Track at, std::string_view name,
                             std::string_view category = {}) {
    return begin(at, intern(name), intern(category));
  }
  /// Opens a span with an explicit parent (for child work that lands on a
  /// different process/track than its parent, e.g. the per-stripe-server
  /// pieces of one PFS transfer).  Does not join the track's open stack, so
  /// concurrent children cannot mis-nest under each other.
  [[nodiscard]] SpanId begin_child(Track at, Name name, SpanId parent,
                                   Name category);
  [[nodiscard]] SpanId begin_child(Track at, std::string_view name,
                                   SpanId parent,
                                   std::string_view category = {}) {
    return begin_child(at, intern(name), parent, intern(category));
  }
  /// Closes a span at now().  Ignores id 0.
  void end(SpanId id);
  /// Records an already-finished interval (used to synthesize application
  /// phase spans from the PhaseLog after a run).
  void complete(Track at, std::string_view name, sim::SimTime start,
                sim::SimTime end, std::string_view category = {});
  /// Drops a zero-duration marker at now() (Chrome trace "instant" event).
  void instant(Track at, Name name, Name category);
  void instant(Track at, std::string_view name,
               std::string_view category = {}) {
    instant(at, intern(name), intern(category));
  }

  void name_process(std::uint32_t process, std::string name) {
    process_names_[process] = std::move(name);
  }
  void name_track(Track at, std::string name) {
    track_names_[{at.process, at.track}] = std::move(name);
  }

  [[nodiscard]] const ChunkedLog<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<Instant>& instants() const noexcept {
    return instants_;
  }
  [[nodiscard]] const std::map<std::uint32_t, std::string>& process_names()
      const noexcept {
    return process_names_;
  }
  [[nodiscard]] const std::map<std::pair<std::uint32_t, std::uint32_t>,
                               std::string>&
  track_names() const noexcept {
    return track_names_;
  }

 private:
  sim::Engine* engine_ = nullptr;
  std::set<std::string, std::less<>> names_;  // node-based: stable addresses
  ChunkedLog<Span> spans_;
  std::vector<Instant> instants_;
  // Stack of open spans per (process, track); the top is the parent of the
  // next begin() on that track.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<SpanId>>
      open_;
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> track_names_;
};

static_assert(std::is_trivially_copyable_v<Tracer::Span>);
static_assert(sizeof(Tracer::Span) <= 48);
static_assert(std::is_trivially_copyable_v<Tracer::Instant>);

}  // namespace paraio::obs
