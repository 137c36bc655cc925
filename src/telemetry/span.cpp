#include "telemetry/span.hpp"

#include <mutex>
#include <set>
#include <string>

namespace faultstudy::telemetry {

std::int64_t SpanTracer::now() const noexcept {
  if (sim_ != nullptr) return sim_->now();
  if (wall_) {
    const auto elapsed = std::chrono::steady_clock::now() - wall_epoch_;
    return std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
        .count();
  }
  return 0;
}

SpanName SpanName::intern(std::string_view name) {
  static std::mutex mutex;
  static std::set<std::string, std::less<>> names;  // nodes never move
  const std::lock_guard lock(mutex);
  auto it = names.find(name);
  if (it == names.end()) it = names.emplace(name).first;
  return SpanName(*it);
}

std::size_t SpanTracer::open(SpanName name) {
  const std::size_t index = spans_.size();
  Span span;
  span.name = name.view();
  span.start = now();
  span.depth = depth_++;
  spans_.push_back(std::move(span));
  return index;
}

void SpanTracer::close(std::size_t index) noexcept {
  if (index >= spans_.size()) return;
  spans_[index].duration = now() - spans_[index].start;
  if (depth_ > 0) --depth_;
}

}  // namespace faultstudy::telemetry
