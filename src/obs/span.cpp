#include "obs/span.hpp"

#include <algorithm>
#include <cassert>

namespace paraio::obs {

Tracer::Name Tracer::intern(std::string_view text) {
  auto it = names_.find(text);
  if (it == names_.end()) it = names_.emplace(text).first;
  return &*it;
}

Tracer::SpanId Tracer::begin(Track at, Name name, Name category) {
  assert(engine_ != nullptr && "Tracer::bind must precede begin()");
  auto& stack = open_[{at.process, at.track}];
  const SpanId parent = stack.empty() ? 0 : stack.back();
  spans_.push_back(
      {name, category, at.process, at.track, engine_->now(), -1.0, parent});
  const SpanId id = spans_.size();
  stack.push_back(id);
  return id;
}

Tracer::SpanId Tracer::begin_child(Track at, Name name, SpanId parent,
                                   Name category) {
  assert(engine_ != nullptr && "Tracer::bind must precede begin_child()");
  spans_.push_back(
      {name, category, at.process, at.track, engine_->now(), -1.0, parent});
  return spans_.size();
}

void Tracer::end(SpanId id) {
  if (id == 0) return;
  assert(engine_ != nullptr && "Tracer::bind must precede end()");
  Span& span = spans_[id - 1];
  span.end = engine_->now();
  auto& stack = open_[{span.process, span.track}];
  // Usually the top of the stack; overlapping (non-nested) spans on one
  // track are tolerated by erasing from wherever the id sits.
  const auto it = std::find(stack.rbegin(), stack.rend(), id);
  if (it != stack.rend()) stack.erase(std::next(it).base());
}

void Tracer::instant(Track at, Name name, Name category) {
  assert(engine_ != nullptr && "Tracer::bind must precede instant()");
  instants_.push_back({name, category, at.process, at.track, engine_->now()});
}

void Tracer::complete(Track at, std::string_view name, sim::SimTime start,
                      sim::SimTime end, std::string_view category) {
  spans_.push_back({intern(name), intern(category), at.process, at.track,
                    start, end, 0});
}

}  // namespace paraio::obs
