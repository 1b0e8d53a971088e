#include "obs/metrics.hpp"

#include <bit>
#include <cstddef>
#include <ostream>
#include <stdexcept>

#include "obs/text.hpp"

namespace paraio::obs {

std::string format_double(double v) {
  std::string text;
  append_g9(text, v);
  return text;
}

namespace {

/// Dump lines average under 40 bytes.  Reserving once avoids copying the
/// dump at every doubling; an underestimate costs one reallocation.
constexpr std::size_t kBytesPerLine = 48;

void append_histogram(std::string& out, const Histogram& h) {
  append(out, "count=", h.count(), " sum=", h.sum(), " min=", h.min(),
         " max=", h.max(), " buckets=");
  bool first = true;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets()[b] == 0) continue;
    if (!first) out += ',';
    append(out, b, ':', h.buckets()[b]);
    first = false;
  }
  if (first) out += '-';
}

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

void Histogram::print(std::ostream& out) const {
  std::string text;
  append_histogram(text, *this);
  out << text;
}

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

std::string Registry::dump_text() const {
  std::string out;
  out.reserve(kBytesPerLine * (counters_.size() + gauges_.size() +
                               histograms_.size() + sample_count_));
  out += "# paraio metrics v1\n";
  for (const auto& [name, c] : counters_) {
    append(out, "counter ", name, ' ', c.value(), '\n');
  }
  for (const auto& [name, g] : gauges_) {
    append(out, "gauge ", name, ' ', G9{g.value()}, '\n');
  }
  for (const auto& [name, h] : histograms_) {
    append(out, "histogram ", name, ' ');
    append_histogram(out, h.value());
    out += '\n';
  }
  RepeatedValueText<append_g9> time_text;
  for (const Sample& s : samples()) {
    append(out, "sample ", time_text(s.time), ' ', *s.name, ' ', G9{s.value},
           '\n');
  }
  return out;
}

Sampler::Sampler(sim::Engine& engine, Registry& registry,
                 sim::SimDuration period)
    : engine_(engine),
      registry_(registry),
      period_(period),
      next_(engine.now() + period) {
  // Each snapshot moves next_ forward by one period; any other period
  // would keep on_event snapshotting forever.
  if (!(period > 0.0 && period < sim::kTimeInfinity)) {
    throw std::invalid_argument("obs::Sampler: period " +
                                std::to_string(period) +
                                " s must be finite and > 0");
  }
  engine_.attach(*this);
}

Sampler::~Sampler() { engine_.detach(*this); }

void Sampler::on_event(sim::SimTime when) {
  // Snapshot once per boundary crossed; values are as of the previous
  // event, which is exact — nothing changed in the gap.
  while (when >= next_) {
    registry_.snapshot(next_);
    next_ += period_;
  }
}

void Sampler::on_run_complete(sim::SimTime now, std::size_t pending_events,
                              std::size_t live_tasks) {
  (void)pending_events;
  (void)live_tasks;
  // Final values, so every series reaches the run end.
  registry_.snapshot(now);
}

void Registry::snapshot(sim::SimTime at) {
  const auto index = static_cast<std::uint32_t>(snapshots_.size());
  const auto log = [&](auto& series, double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    std::uint32_t& slot = series.sample_slot_;
    if (slot == kNotSampled) {
      slot = static_cast<std::uint32_t>(sampled_.size());
      sampled_.push_back({bits, index});
    } else if (sampled_[slot].last_bits == bits) {
      return;
    } else {
      sampled_[slot].last_bits = bits;
    }
    changes_.push_back({slot, value});
  };
  // Newly bound series take one slot each; size the slot table once.
  const std::size_t series = gauges_.size() + counters_.size();
  if (sampled_.capacity() < series) sampled_.reserve(series);
  for (auto& [name, g] : gauges_) log(g, g.value());
  for (auto& [name, c] : counters_) log(c, static_cast<double>(c.value()));
  snapshots_.push_back({at, changes_.size()});
  sample_count_ += series;
}

Registry::SampleView::iterator::iterator(const Registry& registry)
    : registry_(&registry),
      values_(registry.sampled_.size()),
      remaining_(registry.sample_count_) {
  if (remaining_ == 0) return;
  const auto add = [this](const auto& map) {
    for (const auto& [name, series] : map) {
      const std::uint32_t slot = series.sample_slot_;
      if (slot == kNotSampled) continue;  // bound after the last snapshot
      order_.push_back(
          {&name, slot, registry_->sampled_[slot].first_snapshot});
    }
  };
  add(registry.gauges_);
  add(registry.counters_);
  settle();
}

Registry::SampleView::iterator& Registry::SampleView::iterator::operator++() {
  if (--remaining_ != 0) {
    ++pos_;
    settle();
  }
  return *this;
}

void Registry::SampleView::iterator::settle() {
  const auto& snapshots = registry_->snapshots_;
  while (true) {
    // Replay this snapshot's changes once, on arriving at its first series.
    if (pos_ == 0) {
      for (; change_ < snapshots[snapshot_].changes_end; ++change_) {
        const Change& c = registry_->changes_[change_];
        values_[c.slot] = c.value;
      }
    }
    while (pos_ < order_.size() && order_[pos_].first_snapshot > snapshot_) {
      ++pos_;
    }
    if (pos_ < order_.size()) break;
    ++snapshot_;
    pos_ = 0;
  }
  const Entry& e = order_[pos_];
  current_ = {snapshots[snapshot_].time, e.name, values_[e.slot]};
}

}  // namespace paraio::obs
