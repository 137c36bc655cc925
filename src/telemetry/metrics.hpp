// MetricsRegistry: named counters, high-watermark gauges, and fixed-bucket
// histograms, one cell per metric.
//
// Concurrency model (the determinism contract, applied to metrics): a
// registry has exactly one writer. A parallel sweep never shares one: each
// trial writes its own TrialTelemetry on its lane, and the runner folds
// those into the study registry serially, in index order, after the sweep
// drains. Registration (counter/gauge/histogram) interns a name into an id
// and is the only operation that allocates. Counter and histogram folds are
// sums and gauge folds are maxima, so the folded values are identical for
// every thread count.
//
// Every value is an integer (ticks, bytes, counts); there is no floating
// point anywhere in the registry, which is what makes snapshots comparable
// byte for byte across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace faultstudy::telemetry {

struct CounterId {
  std::uint32_t index = 0;
};
struct GaugeId {
  std::uint32_t index = 0;
};
struct HistogramId {
  std::uint32_t index = 0;
};

/// Standalone fixed-bucket histogram (also usable outside a registry, e.g.
/// per-trial latency tracking folded into a registry afterwards). Bounds
/// are inclusive upper edges; one overflow bucket catches the rest.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<std::int64_t> bounds);

  /// Counts `value` in the first bucket whose bound is >= it. A linear
  /// scan: the trial event stream observes every workload item, and item
  /// latencies sit in the first few buckets.
  void observe(std::int64_t value) noexcept {
    std::size_t bucket = 0;
    while (bucket < bounds_.size() && bounds_[bucket] < value) ++bucket;
    ++counts_[bucket];
    ++count_;
    sum_ += value;
  }
  void merge(const Histogram& other);

  /// Reconstructs a histogram from pre-counted buckets (e.g. converting a
  /// util::PoolStats lane profile); `buckets` must have bounds.size() + 1
  /// entries and `sum` is the caller's total of observed values.
  static Histogram from_buckets(std::vector<std::int64_t> bounds,
                                std::vector<std::uint64_t> buckets,
                                std::int64_t sum);

  const std::vector<std::int64_t>& bounds() const noexcept { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const noexcept {
    return counts_;
  }
  std::uint64_t count() const noexcept { return count_; }
  std::int64_t sum() const noexcept { return sum_; }
  bool empty() const noexcept { return count_ == 0; }

  bool operator==(const Histogram&) const = default;

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

/// Recovery/item latencies in simulated ticks.
std::vector<std::int64_t> default_tick_bounds();

/// An immutable, name-sorted view of a registry — the unit of export and
/// of determinism comparisons (threads=1 and threads=N must produce equal
/// snapshots for sim-domain registries).
struct MetricsSnapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const Counter&) const = default;
  };
  struct Gauge {
    std::string name;
    std::int64_t value = 0;  ///< high-watermark
    bool operator==(const Gauge&) const = default;
  };
  struct Hist {
    std::string name;
    std::vector<std::int64_t> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    bool operator==(const Hist&) const = default;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Hist> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  // --- registration (returns the existing id on re-use) ---
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name,
                        const std::vector<std::int64_t>& bounds);

  // --- writers ---
  void add(CounterId id, std::uint64_t n = 1) noexcept {
    counter_values_[id.index] += n;
  }
  /// Raises the gauge's high-watermark.
  void peak(GaugeId id, std::int64_t value) noexcept {
    GaugeCell& high = gauge_cells_[id.index];
    if (!high.set || value > high.high) {
      high.high = value;
      high.set = true;
    }
  }
  void merge_histogram(HistogramId id, const Histogram& h) {
    histograms_[id.index].merge(h);
  }

  // --- export ---
  /// Every metric, sorted by name.
  MetricsSnapshot snapshot() const;

 private:
  struct GaugeCell {
    std::int64_t high = 0;
    bool set = false;
  };

  /// The names of one kind of metric, stored back to back and found
  /// through an open-addressed hash index of their ids, so registering a
  /// name allocates only when a table grows and a lookup hashes once.
  class NameTable {
   public:
    std::size_t size() const noexcept { return ends_.size(); }
    std::string_view operator[](std::size_t id) const noexcept;
    /// The id of `name`; a new name gets the next id and sets `added`.
    std::uint32_t intern(std::string_view name, bool& added);

   private:
    /// Puts `id` in the first free slot of its probe sequence.
    void place(std::uint32_t id, std::size_t hash) noexcept;

    std::string chars_;
    std::vector<std::uint32_t> ends_;  ///< name i ends at chars_[ends_[i]]
    /// id + 1 per used slot, 0 if free; a power of two, at most half full.
    std::vector<std::uint32_t> slots_;
  };

  // Metric i's cell is element i of its kind's vector.
  NameTable counter_names_;
  std::vector<std::uint64_t> counter_values_;
  NameTable gauge_names_;
  std::vector<GaugeCell> gauge_cells_;
  NameTable histogram_names_;
  std::vector<Histogram> histograms_;
};

}  // namespace faultstudy::telemetry
