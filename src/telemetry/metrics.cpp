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

CounterId MetricsRegistry::counter(std::string_view name) {
  bool added = false;
  const std::uint32_t index = counter_names_.intern(name, added);
  if (added) {
    if (counter_values_.empty()) counter_values_.reserve(kFirstBurst);
    counter_values_.push_back(0);
  }
  return {index};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  bool added = false;
  const std::uint32_t index = gauge_names_.intern(name, added);
  if (added) {
    if (gauge_cells_.empty()) gauge_cells_.reserve(kFirstBurst);
    gauge_cells_.emplace_back();
  }
  return {index};
}

HistogramId MetricsRegistry::histogram(
    std::string_view name, const std::vector<std::int64_t>& bounds) {
  bool added = false;
  const std::uint32_t index = histogram_names_.intern(name, added);
  if (added) histograms_.emplace_back(bounds);
  return {index};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters.push_back(
        {std::string(counter_names_[i]), counter_values_[i]});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    snap.gauges.push_back({std::string(gauge_names_[i]), gauge_cells_[i].high});
  }
  snap.histograms.reserve(histograms_.size());
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const Histogram& h = histograms_[i];
    snap.histograms.push_back({std::string(histogram_names_[i]), h.bounds(),
                               h.buckets(), h.count(), h.sum()});
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
