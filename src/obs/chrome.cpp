#include "obs/chrome.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string_view>

#include "obs/text.hpp"

namespace paraio::obs {

namespace {

bool needs_escape(char ch) {
  return static_cast<unsigned char>(ch) < 0x20 || ch == '"' || ch == '\\';
}

/// Appends the JSON escape of a character needs_escape() accepts.
void append_escape(std::string& out, char ch) {
  switch (ch) {
    case '"':
      out += "\\\"";
      return;
    case '\\':
      out += "\\\\";
      return;
    case '\n':
      out += "\\n";
      return;
    case '\t':
      out += "\\t";
      return;
    case '\r':
      out += "\\r";
      return;
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      const auto byte = static_cast<unsigned char>(ch);
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  auto plain = s.begin();  // start of the run not yet appended
  while (true) {
    const auto special = std::find_if(plain, s.end(), needs_escape);
    out.append(plain, special);
    if (special == s.end()) break;
    append_escape(out, *special);
    plain = special + 1;
  }
  out += '"';
}

/// `"name":"<name>"` plus `,"cat":"<category>"` when there is one.
void append_name(std::string& out, std::string_view name,
                 std::string_view category) {
  out += "\"name\":";
  append_quoted(out, name);
  if (!category.empty()) {
    out += ",\"cat\":";
    append_quoted(out, category);
  }
}

/// Events average about 120 bytes.  Reserving once avoids copying the
/// whole trace at every doubling, and the old copy's share of peak RSS; an
/// underestimate costs one reallocation.
constexpr std::size_t kBytesPerEvent = 128;

class EventWriter {
 public:
  explicit EventWriter(std::string& out) : out_(out) {
    out_ += "{\"traceEvents\":[";
  }
  /// Starts the next event object; the caller appends the fields.
  std::string& next() {
    out_ += first_ ? "\n{" : ",\n{";
    first_ = false;
    return out_;
  }
  void finish() { out_ += "\n]}\n"; }

 private:
  std::string& out_;
  bool first_ = true;
};

}  // namespace

std::string chrome_trace_text(const Tracer& tracer, const Registry* registry) {
  const std::size_t events_total =
      tracer.spans().size() + tracer.instants().size() +
      (registry != nullptr ? registry->samples().size() : 0);
  std::string text;
  text.reserve(kBytesPerEvent * events_total);
  EventWriter events(text);

  for (const auto& [pid, name] : tracer.process_names()) {
    std::string& o = events.next();
    append(o, "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":", pid,
           ",\"tid\":0,\"args\":{\"name\":");
    append_quoted(o, name);
    o += "}}";
  }
  for (const auto& [key, name] : tracer.track_names()) {
    std::string& o = events.next();
    append(o, "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", key.first,
           ",\"tid\":", key.second, ",\"args\":{\"name\":");
    append_quoted(o, name);
    o += "}}";
  }

  Tracer::SpanId id = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    ++id;
    if (!span.closed()) continue;  // never-ended spans have no duration
    std::string& o = events.next();
    append_name(o, *span.name, *span.category);
    append(o, ",\"ph\":\"X\",\"pid\":", span.process, ",\"tid\":", span.track,
           ",\"ts\":", Micros{span.start},
           ",\"dur\":", Micros{span.end - span.start},
           ",\"args\":{\"span\":", id, ",\"parent\":", span.parent, "}}");
  }

  for (const Tracer::Instant& mark : tracer.instants()) {
    std::string& o = events.next();
    append_name(o, *mark.name, *mark.category);
    // "s":"t" scopes the marker to its track row.
    append(o, ",\"ph\":\"i\",\"s\":\"t\",\"pid\":", mark.process,
           ",\"tid\":", mark.track, ",\"ts\":", Micros{mark.time}, '}');
  }

  if (registry != nullptr) {
    RepeatedValueText<append_micros> ts_text;
    for (const Registry::Sample& s : registry->samples()) {
      // JSON has no NaN or infinity; the metrics dump still records them.
      if (!std::isfinite(s.value)) continue;
      std::string& o = events.next();
      append_name(o, *s.name, {});
      append(o, ",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":", ts_text(s.time),
             ",\"args\":{\"value\":", G9{s.value}, "}}");
    }
  }

  events.finish();
  return text;
}

}  // namespace paraio::obs
