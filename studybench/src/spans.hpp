// In-memory span log for the traced run.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public API; nothing inside the library is instrumented. Each
// span has a name, a start and end on the steady clock, its parent span,
// the trial it belongs to (0 outside trials) and the allocations made while
// it was open. Threads record into their own buffers; drain() collects them
// once the measured work has finished.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace studybench::spans {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoParent = 0;
/// Parent is the calling thread's innermost open span.
inline constexpr SpanId kInherit = ~SpanId{0};

struct Span {
  SpanId id = 0;
  SpanId parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Allocations while open, children included.
  std::uint64_t allocs = 0;
  std::uint32_t trial = 0;
  std::uint32_t value = 0;  ///< span-specific outcome (recover: recovered)
  std::uint16_t name = 0;
  std::uint16_t lane = 0;  ///< recording thread, in order of first span

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Steady-clock nanoseconds since the process started.
std::int64_t now_ns() noexcept;

/// Interns a span name. Call from one thread, before the spans using it.
std::uint16_t intern(std::string_view name);
const std::string& name_of(std::uint16_t name);

/// Opens a span on the calling thread and makes it the thread's innermost
/// span (its allocation counter receives the thread's allocations). A
/// trial of 0 inherits the enclosing span's trial.
SpanId open(std::uint16_t name, SpanId parent = kInherit,
            std::uint32_t trial = 0);
/// Closes and records the calling thread's innermost span.
void close(std::uint32_t value = 0);
/// Closes the innermost span and records it under another name.
void close_as(std::uint16_t name);
/// Closes the innermost span without recording it.
void discard();

/// Every recorded span of every thread, ordered by start; clears the log.
/// Call only while no thread is recording.
std::vector<Span> drain();

/// A span around a single-threaded call; counts the calling thread's
/// allocations only.
class ThreadSpan {
 public:
  explicit ThreadSpan(std::uint16_t name) { open(name); }
  ~ThreadSpan() { close(); }
  ThreadSpan(const ThreadSpan&) = delete;
  ThreadSpan& operator=(const ThreadSpan&) = delete;
};

/// A span around one library call made by the driving thread. Nothing
/// else runs while it is open, so its allocation count is the process-wide
/// delta, which includes the call's pool workers.
class ScopedSpan {
 public:
  /// Does nothing when `enabled` is false.
  ScopedSpan(bool enabled, std::uint16_t name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const noexcept { return id_; }

 private:
  bool enabled_;
  SpanId id_ = kNoParent;
  std::uint64_t allocs_at_open_ = 0;
};

/// Per-span self time: duration minus the part of it that child spans
/// cover (children on other threads included, overlaps counted once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Writes spans as tab-separated text, one per line, with a header row.
bool write_tsv(const std::string& path, const std::vector<Span>& spans);

}  // namespace studybench::spans
