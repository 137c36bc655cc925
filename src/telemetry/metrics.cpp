#include "telemetry/metrics.hpp"

#include <algorithm>

namespace faultstudy::telemetry {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(std::int64_t value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  // Mismatched bucket layouts cannot be merged losslessly; fold the other
  // histogram's overflow-safe summary into ours instead of corrupting
  // buckets (callers register shared bounds, so this is a fallback).
  if (bounds_ == other.bounds_) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  } else {
    counts_.back() += other.count_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Histogram Histogram::from_buckets(std::vector<std::int64_t> bounds,
                                  std::vector<std::uint64_t> buckets,
                                  std::int64_t sum) {
  Histogram h(std::move(bounds));
  if (buckets.size() == h.counts_.size()) {
    h.counts_ = std::move(buckets);
    for (const std::uint64_t c : h.counts_) h.count_ += c;
    h.sum_ = sum;
  }
  return h;
}

std::vector<std::int64_t> default_tick_bounds() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384};
}

std::vector<std::int64_t> default_micros_bounds() {
  return {1,    2,    5,     10,    20,    50,     100,    200,
          500,  1000, 2000,  5000,  10000, 20000,  50000,  100000};
}

MetricsRegistry::MetricsRegistry(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

CounterId MetricsRegistry::counter(std::string_view name) {
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(counter_names_.size());
  counter_names_.emplace_back(name);
  counter_cells_.resize(counter_cells_.size() + shards_);
  counter_ids_.emplace(std::string(name), index);
  return {index};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauge_ids_.find(name);
  if (it != gauge_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(gauge_names_.size());
  gauge_names_.emplace_back(name);
  gauge_cells_.resize(gauge_cells_.size() + shards_);
  gauge_ids_.emplace(std::string(name), index);
  return {index};
}

HistogramId MetricsRegistry::histogram(
    std::string_view name, const std::vector<std::int64_t>& bounds) {
  const auto it = histogram_ids_.find(name);
  if (it != histogram_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(histograms_.size());
  HistMetric metric;
  metric.name = std::string(name);
  metric.bounds = bounds;
  metric.cells.assign(shards_, Histogram(metric.bounds));
  histograms_.push_back(std::move(metric));
  histogram_ids_.emplace(std::string(name), index);
  return {index};
}

void MetricsRegistry::add(CounterId id, std::uint64_t n,
                          std::size_t shard) noexcept {
  counter_cells_[cell(id.index, shard)].value += n;
}

void MetricsRegistry::peak(GaugeId id, std::int64_t value,
                           std::size_t shard) noexcept {
  GaugeCell& high = gauge_cells_[cell(id.index, shard)];
  if (!high.set || value > high.high) {
    high.high = value;
    high.set = true;
  }
}

void MetricsRegistry::observe(HistogramId id, std::int64_t value,
                              std::size_t shard) noexcept {
  histograms_[id.index].cells[shard < shards_ ? shard : 0].observe(value);
}

void MetricsRegistry::merge_histogram(HistogramId id, const Histogram& h,
                                      std::size_t shard) {
  histograms_[id.index].cells[shard < shards_ ? shard : 0].merge(h);
}

std::uint64_t MetricsRegistry::counter_total(std::size_t index) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    total += counter_cells_[index * shards_ + s].value;
  }
  return total;
}

MetricsRegistry::GaugeCell MetricsRegistry::gauge_high(
    std::size_t index) const noexcept {
  GaugeCell high;
  for (std::size_t s = 0; s < shards_; ++s) {
    const GaugeCell& shard_high = gauge_cells_[index * shards_ + s];
    if (shard_high.set && (!high.set || shard_high.high > high.high)) {
      high = shard_high;
    }
  }
  return high;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (std::size_t i = 0; i < other.counter_names_.size(); ++i) {
    const std::uint64_t total = other.counter_total(i);
    if (total > 0) add(counter(other.counter_names_[i]), total);
  }
  for (std::size_t i = 0; i < other.gauge_names_.size(); ++i) {
    const GaugeCell high = other.gauge_high(i);
    if (high.set) peak(gauge(other.gauge_names_[i]), high.high);
  }
  for (const auto& m : other.histograms_) {
    const HistogramId id = histogram(m.name, m.bounds);
    for (const auto& cell : m.cells) merge_histogram(id, cell);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.push_back({counter_names_[i], counter_total(i)});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.push_back({gauge_names_[i], gauge_high(i).high});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& m : histograms_) {
    Histogram folded(m.bounds);
    for (const auto& cell : m.cells) folded.merge(cell);
    snap.histograms.push_back({m.name, m.bounds, folded.buckets(),
                               folded.count(), folded.sum()});
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

}  // namespace faultstudy::telemetry
