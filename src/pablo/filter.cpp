#include "pablo/filter.hpp"

#include <algorithm>
#include <set>

namespace paraio::pablo {

namespace {

/// Copies registry entries for the files that appear in `out`.
void carry_registry(const Trace& source, Trace& out) {
  std::set<io::FileId> seen;
  for (const auto& e : out.events()) seen.insert(e.file);
  for (const auto& [id, path] : source.files()) {
    if (seen.contains(id)) out.on_file(id, path);
  }
}

}  // namespace

Trace filter(const Trace& trace,
             const std::function<bool(const IoEvent&)>& predicate) {
  Trace out;
  for (const auto& e : trace.events()) {
    if (predicate(e)) out.on_event(e);
  }
  carry_registry(trace, out);
  return out;
}

Trace slice(const Trace& trace, double t0, double t1) {
  return filter(trace, [t0, t1](const IoEvent& e) {
    return e.timestamp >= t0 && e.timestamp < t1;
  });
}

Trace node_stream(const Trace& trace, io::NodeId node) {
  return filter(trace, [node](const IoEvent& e) { return e.node == node; });
}

Trace file_stream(const Trace& trace, io::FileId file) {
  return filter(trace, [file](const IoEvent& e) { return e.file == file; });
}

Trace merge(const std::vector<const Trace*>& traces) {
  Trace out;
  std::size_t total = 0;
  for (const Trace* t : traces) total += t->size();
  out.reserve(total);
  for (const Trace* t : traces) {
    for (const IoEvent& e : t->events()) out.on_event(e);
    for (const auto& [id, path] : t->files()) out.on_file(id, path);
  }
  std::stable_sort(out.events_, out.events_ + out.size_,
                   [](const IoEvent& a, const IoEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  return out;
}

}  // namespace paraio::pablo
