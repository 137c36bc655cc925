#include "obs/event.hpp"

#include <algorithm>
#include <string>

namespace faultstudy::obs {

namespace {

constexpr std::string_view kScopeHead = "recovery/";

/// The longest name a per-mechanism rule gives, so fold_counts sizes its
/// one name buffer once.
constexpr std::size_t kLongestScopedTail = [] {
  std::size_t longest = 0;
  for (const EventRule& r : kEventRules) {
    if (!r.per_mechanism) continue;
    longest = std::max({longest, r.count.size(), r.sum.size(), r.peak.size()});
  }
  return longest;
}();

}  // namespace

void fold_counts(const EventTally& tally, std::string_view mechanism,
                 telemetry::MetricsRegistry& registry) {
  // Per-mechanism names are assembled in one buffer: this fold runs once
  // per matrix cell.
  const std::string_view mech = mechanism.empty() ? "trial" : mechanism;
  std::string scoped;
  scoped.reserve(kScopeHead.size() + mech.size() + 1 + kLongestScopedTail);
  const auto name = [&](const EventRule& r, std::string_view tail) {
    if (!r.per_mechanism) return tail;
    scoped.assign(kScopeHead).append(mech).append("/").append(tail);
    return std::string_view(scoped);
  };
  const auto add = [&](const EventRule& r, std::string_view tail,
                       std::uint64_t n) {
    if (n > 0) registry.add(registry.counter(name(r, tail)), n);
  };

  for (std::size_t e = 0; e < kNumEvents; ++e) {
    const EventRule& r = kEventRules[e];
    const auto event = static_cast<Event>(e);
    if (!r.count.empty()) add(r, r.count, tally.count(event));
    if (!r.sum.empty()) add(r, r.sum, tally.sum(event));
    if (!r.peak.empty()) {
      registry.peak(registry.gauge(name(r, r.peak)),
                    static_cast<std::int64_t>(tally.peak(event)));
    }
  }
}

CoverageMap coverage_of(const EventTally& tally,
                        core::Trigger trigger) noexcept {
  CoverageMap map;
  for (std::size_t e = 0; e < kNumEvents; ++e) {
    const EventRule& r = kEventRules[e];
    const std::uint64_t n = tally.count(static_cast<Event>(e));
    if (r.site != Site::kCount) {
      map.sites[static_cast<std::size_t>(r.site)] += n;
    }
    if (r.inject) map.inject[static_cast<std::size_t>(trigger)] += n;
  }
  const auto first_verdict = static_cast<std::size_t>(Site::kTrialSurvived);
  for (std::size_t v = 0; v < kNumVerdicts; ++v) {
    map.sites[first_verdict + v] += tally.verdicts[v];
  }
  return map;
}

}  // namespace faultstudy::obs
