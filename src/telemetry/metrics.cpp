#include "telemetry/metrics.hpp"

#include <algorithm>
#include <functional>

namespace faultstudy::telemetry {

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

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

namespace {
/// A registry registers its names in one burst (the first fold into it), a
/// few dozen of them: the first registration sizes its tables for this many
/// so the burst does not regrow them from empty.
constexpr std::size_t kFirstBurst = 32;
}  // namespace

std::string_view MetricsRegistry::NameTable::operator[](
    std::size_t id) const noexcept {
  const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
  return std::string_view(chars_).substr(begin, ends_[id] - begin);
}

void MetricsRegistry::NameTable::place(std::uint32_t id,
                                       std::size_t hash) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  while (slots_[slot] != 0) slot = (slot + 1) & mask;
  slots_[slot] = id + 1;
}

std::uint32_t MetricsRegistry::NameTable::intern(std::string_view name,
                                                 bool& added) {
  const std::size_t hash = std::hash<std::string_view>{}(name);
  if (!slots_.empty()) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = hash & mask; slots_[slot] != 0;
         slot = (slot + 1) & mask) {
      const std::uint32_t id = slots_[slot] - 1;
      if ((*this)[id] == name) {
        added = false;
        return id;
      }
    }
  }
  const auto id = static_cast<std::uint32_t>(ends_.size());
  if (id == 0) {
    chars_.reserve(kFirstBurst * 24);
    ends_.reserve(kFirstBurst);
  }
  chars_.append(name);
  ends_.push_back(static_cast<std::uint32_t>(chars_.size()));
  if (2 * ends_.size() <= slots_.size()) {
    place(id, hash);
  } else {
    slots_.assign(std::max(2 * kFirstBurst, 2 * slots_.size()), 0);
    for (std::uint32_t i = 0; i <= id; ++i) {
      place(i, std::hash<std::string_view>{}((*this)[i]));
    }
  }
  added = true;
  return id;
}

MetricsRegistry::MetricsRegistry(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

CounterId MetricsRegistry::counter(std::string_view name) {
  bool added = false;
  const std::uint32_t index = counter_names_.intern(name, added);
  if (added) {
    if (counter_cells_.empty()) counter_cells_.reserve(kFirstBurst * shards_);
    counter_cells_.resize(counter_cells_.size() + shards_);
  }
  return {index};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  bool added = false;
  const std::uint32_t index = gauge_names_.intern(name, added);
  if (added) {
    if (gauge_cells_.empty()) gauge_cells_.reserve(kFirstBurst * shards_);
    gauge_cells_.resize(gauge_cells_.size() + shards_);
  }
  return {index};
}

HistogramId MetricsRegistry::histogram(
    std::string_view name, const std::vector<std::int64_t>& bounds) {
  bool added = false;
  const std::uint32_t index = histogram_names_.intern(name, added);
  if (added) {
    std::vector<Histogram>& cells = histograms_.emplace_back();
    cells.reserve(shards_);
    for (std::size_t s = 0; s < shards_; ++s) cells.emplace_back(bounds);
  }
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
  histograms_[id.index][shard < shards_ ? shard : 0].observe(value);
}

void MetricsRegistry::merge_histogram(HistogramId id, const Histogram& h,
                                      std::size_t shard) {
  histograms_[id.index][shard < shards_ ? shard : 0].merge(h);
}

std::uint64_t MetricsRegistry::counter_total(std::size_t index) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    total += counter_cells_[cell(index, s)].value;
  }
  return total;
}

MetricsRegistry::GaugeCell MetricsRegistry::gauge_high(
    std::size_t index) const noexcept {
  GaugeCell high;
  for (std::size_t s = 0; s < shards_; ++s) {
    const GaugeCell& shard_high = gauge_cells_[cell(index, s)];
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
  for (std::size_t i = 0; i < other.histograms_.size(); ++i) {
    const std::vector<Histogram>& cells = other.histograms_[i];
    const HistogramId id =
        histogram(other.histogram_names_[i], cells.front().bounds());
    for (const auto& cell : cells) merge_histogram(id, cell);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.push_back({std::string(counter_names_[i]), counter_total(i)});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.push_back({std::string(gauge_names_[i]), gauge_high(i).high});
  }
  snap.histograms.reserve(histograms_.size());
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const std::vector<Histogram>& cells = histograms_[i];
    Histogram folded(cells.front().bounds());
    for (const auto& cell : cells) folded.merge(cell);
    snap.histograms.push_back({std::string(histogram_names_[i]),
                               folded.bounds(), folded.buckets(),
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
