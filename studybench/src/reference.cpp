#include "reference.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace studybench {
namespace {

// About 2 MB of working set per thread. A 0.25 MB version followed the
// drift of the four-lane study pass less closely.
constexpr int kRounds = 10;
constexpr int kWords = 16000;

// Keeps the work observable so the compiler cannot drop it.
std::atomic<std::uint64_t> g_sink{0};

void reference_work() {
  std::uint64_t check = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(round);
    std::vector<std::string> words;
    words.reserve(kWords);
    std::unordered_map<std::string, std::uint32_t> counts;
    for (int i = 0; i < kWords; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      words.push_back("reference-word-" + std::to_string(x % 40000));
      ++counts[words.back()];
    }
    std::sort(words.begin(), words.end());
    check += counts.size() + words.front().size() + words.back().size();
  }
  g_sink.fetch_add(check, std::memory_order_relaxed);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ReferenceTime time_reference(std::size_t lanes) {
  const double c0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < lanes; ++i) helpers.emplace_back(reference_work);
  reference_work();
  for (auto& t : helpers) t.join();
  ReferenceTime out;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count();
  out.cpu_s = process_cpu_s() - c0;
  return out;
}

}  // namespace studybench
