#include "obs/metrics.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace paraio::obs {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void Histogram::print(std::ostream& out) const {
  out << "count=" << count_ << " sum=" << sum_ << " min=" << min_
      << " max=" << max_ << " buckets=";
  bool first = true;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (!first) out << ',';
    out << b << ':' << buckets_[b];
    first = false;
  }
  if (first) out << '-';
}

namespace {

template <typename Map>
typename Map::mapped_type& slot(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string(name)).first;
  return it->second;
}

template <typename Map>
const typename Map::mapped_type& find_series(const Map& map,
                                             std::string_view name) {
  const auto it = map.find(name);
  if (it == map.end()) {
    throw std::out_of_range("obs::Registry: no series named " +
                            std::string(name));
  }
  return it->second;
}

}  // namespace

void Registry::bind(std::string_view name, const std::uint64_t& field) {
  slot(counters_, name).bind(&field, nullptr);
}

void Registry::bind(std::string_view name, const double& field) {
  slot(gauges_, name).bind(&field, nullptr);
}

void Registry::bind(std::string_view name, const Histogram& field) {
  slot(histograms_, name).bind(&field, nullptr);
}

void Registry::bind_counter(std::string_view name, Counter::Accessor read) {
  slot(counters_, name).bind(nullptr, std::move(read));
}

void Registry::bind_gauge(std::string_view name, Gauge::Accessor read) {
  slot(gauges_, name).bind(nullptr, std::move(read));
}

void Registry::freeze() {
  for (auto& [name, c] : counters_) c.freeze();
  for (auto& [name, g] : gauges_) g.freeze();
  for (auto& [name, h] : histograms_) h.freeze();
}

const Counter& Registry::counter(std::string_view name) const {
  return find_series(counters_, name);
}

const Gauge& Registry::gauge(std::string_view name) const {
  return find_series(gauges_, name);
}

const Series<Histogram>& Registry::histogram(std::string_view name) const {
  return find_series(histograms_, name);
}

void Registry::dump(std::ostream& out) const {
  out << "# paraio metrics v1\n";
  for (const auto& [name, c] : counters_) {
    out << "counter " << name << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out << "gauge " << name << ' ' << format_double(g.value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out << "histogram " << name << ' ';
    h.value().print(out);
    out << '\n';
  }
  for (const Sample& s : samples_) {
    out << "sample " << format_double(s.time) << ' ' << *s.name << ' '
        << format_double(s.value) << '\n';
  }
}

std::string Registry::dump_text() const {
  std::ostringstream out;
  dump(out);
  return out.str();
}

Sampler::Sampler(sim::Engine& engine, Registry& registry,
                 sim::SimDuration period)
    : engine_(engine),
      registry_(registry),
      period_(period),
      next_(engine.now() + period),
      chained_(engine.observer()) {
  engine_.set_observer(this);
}

Sampler::~Sampler() {
  if (engine_.observer() == this) engine_.set_observer(chained_);
}

void Sampler::on_schedule(sim::SimTime now, sim::SimTime when) {
  if (chained_ != nullptr) chained_->on_schedule(now, when);
}

void Sampler::on_event(sim::SimTime when) {
  // Snapshot once per boundary crossed; values are as of the previous
  // event, which is exact — nothing changed in the gap.
  while (when >= next_) {
    snapshot(next_);
    next_ += period_;
  }
  if (chained_ != nullptr) chained_->on_event(when);
}

void Sampler::on_run_complete(sim::SimTime now, std::size_t pending_events,
                              std::size_t live_tasks) {
  snapshot(now);  // final values, so every series reaches the run end
  if (chained_ != nullptr) {
    chained_->on_run_complete(now, pending_events, live_tasks);
  }
}

void Sampler::snapshot(sim::SimTime at) {
  for (const auto& [name, g] : registry_.gauges_) {
    registry_.samples_.push_back({at, &name, g.value()});
  }
  for (const auto& [name, c] : registry_.counters_) {
    registry_.samples_.push_back({at, &name, static_cast<double>(c.value())});
  }
}

}  // namespace paraio::obs
