// Heap-allocation counting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete. Every operator
// new call bumps a per-thread counter (one cache line per thread, so lanes
// never contend) and, when the calling thread has a span open, that span's
// counter. Counts are exact: a single-lane pass makes the same allocations
// every time, so the count doubles as a noise-free work gate.
#pragma once

#include <cstdint>

namespace studybench {

/// Allocations made so far by every thread, including threads that have
/// exited. Exact once the threads of the measured work have been joined.
std::uint64_t total_allocs() noexcept;

/// Makes `sink` the calling thread's per-span counter (nullptr: none) and
/// returns the previous one.
std::uint64_t* exchange_alloc_sink(std::uint64_t* sink) noexcept;

/// While alive, the calling thread's allocations are not counted. Used by
/// the span log so its own bookkeeping never shows up in the counts.
class UncountedScope {
 public:
  UncountedScope() noexcept;
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;

 private:
  bool previous_;
};

}  // namespace studybench
