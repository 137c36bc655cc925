#include "telemetry/metrics.hpp"

#include <algorithm>

#include "telemetry/counters.hpp"

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

void MetricsRegistry::ensure_shards(std::size_t shards) {
  if (shards <= shards_) return;
  shards_ = shards;
  for (auto& m : counters_) m.cells.resize(shards_);
  for (auto& m : gauges_) m.cells.resize(shards_);
  for (auto& m : histograms_) {
    m.cells.resize(shards_, Histogram(m.bounds));
  }
}

CounterId MetricsRegistry::counter(std::string_view name) {
  const auto it = counter_ids_.find(std::string(name));
  if (it != counter_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(counters_.size());
  counters_.push_back({std::string(name), std::vector<CounterCell>(shards_)});
  counter_ids_.emplace(std::string(name), index);
  return {index};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauge_ids_.find(std::string(name));
  if (it != gauge_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(gauges_.size());
  gauges_.push_back({std::string(name), std::vector<GaugeCell>(shards_)});
  gauge_ids_.emplace(std::string(name), index);
  return {index};
}

HistogramId MetricsRegistry::histogram(std::string_view name,
                                       std::vector<std::int64_t> bounds) {
  const auto it = histogram_ids_.find(std::string(name));
  if (it != histogram_ids_.end()) return {it->second};
  const auto index = static_cast<std::uint32_t>(histograms_.size());
  HistMetric metric;
  metric.name = std::string(name);
  metric.bounds = std::move(bounds);
  metric.cells.assign(shards_, Histogram(metric.bounds));
  histograms_.push_back(std::move(metric));
  histogram_ids_.emplace(std::string(name), index);
  return {index};
}

void MetricsRegistry::add(CounterId id, std::uint64_t n,
                          std::size_t shard) noexcept {
  counters_[id.index].cells[shard < shards_ ? shard : 0].value += n;
}

void MetricsRegistry::peak(GaugeId id, std::int64_t value,
                           std::size_t shard) noexcept {
  auto& cell = gauges_[id.index].cells[shard < shards_ ? shard : 0];
  if (!cell.set || value > cell.high) {
    cell.high = value;
    cell.set = true;
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

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& m : other.counters_) {
    std::uint64_t total = 0;
    for (const auto& cell : m.cells) total += cell.value;
    if (total > 0) add(counter(m.name), total);
  }
  for (const auto& m : other.gauges_) {
    for (const auto& cell : m.cells) {
      if (cell.set) peak(gauge(m.name), cell.high);
    }
  }
  for (const auto& m : other.histograms_) {
    const HistogramId id = histogram(m.name, m.bounds);
    for (const auto& cell : m.cells) merge_histogram(id, cell);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& m : counters_) {
    std::uint64_t total = 0;
    for (const auto& cell : m.cells) total += cell.value;
    snap.counters.push_back({m.name, total});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& m : gauges_) {
    std::int64_t high = 0;
    bool set = false;
    for (const auto& cell : m.cells) {
      if (cell.set && (!set || cell.high > high)) {
        high = cell.high;
        set = true;
      }
    }
    snap.gauges.push_back({m.name, high});
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

void merge(TrialCounters& into, const TrialCounters& from) noexcept {
  for (const CounterInfo& info : kCounterInfo) {
    std::uint64_t& value = into.*info.field;
    value = info.kind == CounterKind::kPeak
                ? std::max(value, from.*info.field)
                : value + from.*info.field;
  }
}

}  // namespace faultstudy::telemetry
