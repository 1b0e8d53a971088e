// Simulated-time metrics registry.
//
// The paper's methodology joins application-side Pablo traces with what the
// machine underneath was doing (§4-§5 timelines).  This layer is the
// "underneath" half for our reproduction: named counters, gauges, and
// log2-bucketed histograms that hardware and file-system models publish
// into, plus periodic simulated-time snapshots for utilization timelines.
//
// Design rules (all load-bearing for determinism):
//  * One home per counter — every series is stored in exactly one field of
//    the owning layer's stat struct (hw::DeviceStats, ppfs::IonServerStats,
//    ...), which the layer updates unconditionally.  Attaching binds a name
//    to that field; the registry stores nothing and reads through the
//    binding whenever it dumps or samples.
//  * Bound fields must outlive every read.  A registry read after the
//    stack it is bound to is destroyed needs freeze() first, which latches
//    every current value into the registry (core::run_experiment does this
//    before returning).
//  * Zero simulated time always — reads are pure bookkeeping; attaching a
//    registry must leave golden trace digests bit-identical.
//  * Ordered storage only — series live in std::map nodes so iteration and
//    the text dump are deterministic (and sample name pointers are stable).
//
// Snapshots are stored as changes: each snapshot logs only the series
// whose value differs, bit for bit, from that series' previous snapshot,
// and samples() replays the log into the full per-snapshot sequence.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/chunked_log.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace paraio::obs {

/// Log2-bucketed histogram of non-negative integer samples.  Bucket 0 holds
/// the value 0; bucket b >= 1 holds values in [2^(b-1), 2^b).  The paper's
/// request-size figures use exactly this bucketing, so the same shape works
/// for queue depths, batch sizes, and byte counts alike.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  /// Bucket index for a sample: 0 -> 0, otherwise floor(log2(v)) + 1.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value that lands in bucket `b`.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  /// Largest value that lands in bucket `b` (inclusive).
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
  }

  void record(std::uint64_t sample) noexcept {
    ++buckets_[bucket_of(sample)];
    ++count_;
    sum_ += sample;
    if (count_ == 1 || sample < min_) min_ = sample;
    if (sample > max_) max_ = sample;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets()
      const noexcept {
    return buckets_;
  }
  /// One-line rendering: `count=N sum=S min=m max=M buckets=0:3,1:7,...`
  /// (only non-empty buckets appear).  Used by the registry dump and the
  /// paraio_stat report; byte-stable for identical sample streams.
  void print(std::ostream& out) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Sample slot of a series the sampler has not seen yet.
inline constexpr std::uint32_t kNotSampled = ~std::uint32_t{0};

/// One published series, read through to the field that stores it (or to
/// an accessor summing lazily created owners) until Registry::freeze()
/// latches the current value.
template <typename T>
class Series {
 public:
  using Accessor = std::function<T()>;

  [[nodiscard]] T value() const {
    if (field_ != nullptr) return *field_;
    return read_ ? read_() : frozen_;
  }

 private:
  friend class Registry;

  void bind(const T* field, Accessor read) {
    field_ = field;
    read_ = std::move(read);
  }
  void freeze() {
    frozen_ = value();
    bind(nullptr, nullptr);
  }

  const T* field_ = nullptr;
  Accessor read_;
  T frozen_{};
  /// This series' index in the registry's sample log, once sampled.
  std::uint32_t sample_slot_ = kNotSampled;
};

/// Monotonically increasing event count (requests, seeks, cache hits...).
using Counter = Series<std::uint64_t>;
/// Instantaneous or accumulated real value (busy seconds, queue depth...).
using Gauge = Series<double>;

/// Named read-through view of the layers' stat structs.  Binding an
/// existing name replaces its source.
class Registry {
 public:
  using CounterMap = std::map<std::string, Counter, std::less<>>;
  using GaugeMap = std::map<std::string, Gauge, std::less<>>;
  using HistogramMap = std::map<std::string, Series<Histogram>, std::less<>>;

  /// A periodic snapshot of one gauge or counter, in simulated time.
  struct Sample {
    sim::SimTime time = 0.0;
    const std::string* name = nullptr;  // points into this registry's maps
    double value = 0.0;
  };

  /// Every snapshot value, rebuilt from the change log: snapshot by
  /// snapshot, the gauges then the counters present at that snapshot, each
  /// in name order.  size() is O(1); iteration is single-pass.
  class SampleView {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Sample;
      using difference_type = std::ptrdiff_t;
      using pointer = const Sample*;
      using reference = const Sample&;

      iterator() = default;  // the end
      reference operator*() const noexcept { return current_; }
      pointer operator->() const noexcept { return &current_; }
      iterator& operator++();
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        return a.remaining_ == b.remaining_;
      }

     private:
      friend class SampleView;
      explicit iterator(const Registry& registry);
      /// Moves to the first series at or after order_[pos_] that the
      /// current snapshot holds, replaying later snapshots as needed.
      void settle();

      struct Entry {
        const std::string* name;
        std::uint32_t slot;
        std::uint32_t first_snapshot;
      };
      const Registry* registry_ = nullptr;
      std::vector<Entry> order_;   // gauges then counters, in name order
      std::vector<double> values_;  // by slot, as of snapshot_
      std::size_t snapshot_ = 0;
      std::size_t pos_ = 0;
      std::size_t change_ = 0;
      std::size_t remaining_ = 0;  // samples not yet passed, current_ included
      Sample current_;
    };

    explicit SampleView(const Registry& registry) noexcept
        : registry_(&registry) {}
    [[nodiscard]] std::size_t size() const noexcept {
      return registry_->sample_count_;
    }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] iterator begin() const { return iterator(*registry_); }
    [[nodiscard]] iterator end() const noexcept { return {}; }

   private:
    const Registry* registry_;
  };

  void bind(std::string_view name, const std::uint64_t& field);
  void bind(std::string_view name, const double& field);
  void bind(std::string_view name, const Histogram& field);
  /// A field of any other type would bind to a converted temporary.
  template <typename T>
  void bind(std::string_view name, const T& field) = delete;
  template <typename T>
  void bind(std::string_view name, const T&& field) = delete;
  /// Accessor forms, for series that are not one field (a sum over lazily
  /// created owners, or a count published as a gauge).
  void bind_counter(std::string_view name, Counter::Accessor read);
  void bind_gauge(std::string_view name, Gauge::Accessor read);

  /// Latches every bound value into the registry, so it can be read after
  /// the bound fields are gone.
  void freeze();

  /// Lookup of a published series; throws std::out_of_range when absent.
  [[nodiscard]] const Counter& counter(std::string_view name) const;
  [[nodiscard]] const Gauge& gauge(std::string_view name) const;
  [[nodiscard]] const Series<Histogram>& histogram(std::string_view name) const;

  [[nodiscard]] const CounterMap& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const GaugeMap& gauges() const noexcept { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const noexcept {
    return histograms_;
  }
  [[nodiscard]] SampleView samples() const noexcept {
    return SampleView(*this);
  }
  /// Values the change log actually stores (<= samples().size()).
  [[nodiscard]] std::size_t stored_samples() const noexcept {
    return changes_.size();
  }

  /// Deterministic plain-text dump: metrics sorted by name, then the
  /// snapshot series in recording order.  Identical runs produce
  /// byte-identical output.
  [[nodiscard]] std::string dump_text() const;

 private:
  friend class Sampler;

  /// Reads every gauge and counter and logs those that changed.
  void snapshot(sim::SimTime at);

  /// One logged value: 16 bytes.
  struct Change {
    std::uint32_t slot = 0;
    double value = 0.0;
  };
  struct Snapshot {
    sim::SimTime time = 0.0;
    std::size_t changes_end = 0;  // this snapshot's changes end here
  };
  /// A sampled series' last logged value and the snapshot it first
  /// appeared in (series may be bound mid-run).
  struct SampledSeries {
    std::uint64_t last_bits = 0;
    std::uint32_t first_snapshot = 0;
  };

  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
  std::vector<SampledSeries> sampled_;  // by sample slot
  ChunkedLog<Snapshot> snapshots_;
  ChunkedLog<Change> changes_;
  std::size_t sample_count_ = 0;  // logical samples, changed or not
};

/// Periodic simulated-time snapshots of every gauge and counter.  A value
/// equal (bit for bit) to the series' previous one is not stored again;
/// Registry::samples() still yields it.
///
/// Deliberately NOT a spawned daemon: a coroutine looping on
/// `co_await engine.delay(period)` would keep the event queue non-empty so
/// `Engine::run()` could never drain.  Instead the sampler attaches to the
/// engine as a kernel observer (construction attaches, destruction
/// detaches) and records a snapshot whenever event execution first crosses
/// a sample boundary — it injects no events and consumes no simulated
/// time, so attaching it cannot perturb trace digests.  Values are read at
/// the first event at-or-after each boundary; with no events pending,
/// nothing changes, so nothing is missed.
class Sampler final : public sim::EngineObserver {
 public:
  /// Throws std::invalid_argument unless `period` is finite and > 0.
  Sampler(sim::Engine& engine, Registry& registry, sim::SimDuration period);
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() override;

  void on_event(sim::SimTime when) override;
  void on_run_complete(sim::SimTime now, std::size_t pending_events,
                       std::size_t live_tasks) override;

 private:
  sim::Engine& engine_;
  Registry& registry_;
  sim::SimDuration period_;
  sim::SimTime next_;
};

/// Deterministic rendering for doubles in dumps and exports: exactly what
/// printf("%.9g") writes, produced with std::to_chars.
[[nodiscard]] std::string format_double(double v);

}  // namespace paraio::obs
