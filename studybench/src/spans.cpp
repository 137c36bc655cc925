#include "spans.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "alloc_count.hpp"

namespace studybench::spans {

namespace {

struct OpenSpan {
  SpanId id = 0;
  SpanId parent = kNoParent;
  std::int64_t start_ns = 0;
  std::uint64_t allocs = 0;
  std::uint32_t trial = 0;
  std::uint16_t name = 0;
};

struct ThreadLog {
  std::uint16_t lane = 0;
  std::uint64_t next = 1;
  std::vector<Span> done;
  std::array<OpenSpan, 64> stack{};
  std::size_t depth = 0;
};

const auto g_epoch = std::chrono::steady_clock::now();
std::vector<std::string> g_names;
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu
thread_local ThreadLog* tl_log = nullptr;

ThreadLog& thread_log() {
  if (tl_log == nullptr) {
    const UncountedScope uncounted;
    const std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    tl_log = g_logs.back().get();
    tl_log->lane = static_cast<std::uint16_t>(g_logs.size() - 1);
  }
  return *tl_log;
}

/// Pops the innermost span; its allocations count toward its parent too.
OpenSpan pop(ThreadLog& log) {
  if (log.depth == 0) {
    std::fputs("studybench: span closed with none open\n", stderr);
    std::abort();
  }
  const OpenSpan span = log.stack[--log.depth];
  OpenSpan* parent = log.depth > 0 ? &log.stack[log.depth - 1] : nullptr;
  if (parent != nullptr) parent->allocs += span.allocs;
  exchange_alloc_sink(parent != nullptr ? &parent->allocs : nullptr);
  return span;
}

void record(ThreadLog& log, const OpenSpan& span, std::int64_t end_ns,
            std::uint16_t name, std::uint32_t value, std::uint64_t allocs) {
  const UncountedScope uncounted;
  Span s;
  s.id = span.id;
  s.parent = span.parent;
  s.start_ns = span.start_ns;
  s.end_ns = end_ns;
  s.allocs = allocs;
  s.trial = span.trial;
  s.value = value;
  s.name = name;
  s.lane = log.lane;
  log.done.push_back(s);
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

std::uint16_t intern(std::string_view name) {
  for (std::size_t i = 0; i < g_names.size(); ++i) {
    if (g_names[i] == name) return static_cast<std::uint16_t>(i);
  }
  g_names.emplace_back(name);
  return static_cast<std::uint16_t>(g_names.size() - 1);
}

const std::string& name_of(std::uint16_t name) { return g_names.at(name); }

SpanId open(std::uint16_t name, SpanId parent, std::uint32_t trial) {
  ThreadLog& log = thread_log();
  if (log.depth == log.stack.size()) {
    std::fputs("studybench: spans nested too deeply\n", stderr);
    std::abort();
  }
  const OpenSpan* enclosing =
      log.depth > 0 ? &log.stack[log.depth - 1] : nullptr;
  OpenSpan& span = log.stack[log.depth++];
  span.id = (static_cast<SpanId>(log.lane) << 40) | log.next++;
  span.parent = parent != kInherit         ? parent
                : enclosing != nullptr     ? enclosing->id
                                           : kNoParent;
  span.trial = trial != 0 ? trial : enclosing != nullptr ? enclosing->trial : 0;
  span.name = name;
  span.allocs = 0;
  exchange_alloc_sink(&span.allocs);
  span.start_ns = now_ns();
  return span.id;
}

void close(std::uint32_t value) {
  const std::int64_t end = now_ns();
  ThreadLog& log = thread_log();
  const OpenSpan span = pop(log);
  record(log, span, end, span.name, value, span.allocs);
}

void close_as(std::uint16_t name) {
  const std::int64_t end = now_ns();
  ThreadLog& log = thread_log();
  const OpenSpan span = pop(log);
  record(log, span, end, name, 0, span.allocs);
}

void discard() { (void)pop(thread_log()); }

std::vector<Span> drain() {
  const UncountedScope uncounted;
  const std::lock_guard<std::mutex> lock(g_logs_mu);
  std::vector<Span> all;
  for (auto& log : g_logs) {
    all.insert(all.end(), log->done.begin(), log->done.end());
    log->done.clear();
    log->done.shrink_to_fit();
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(bool enabled, std::uint16_t name) : enabled_(enabled) {
  if (!enabled_) return;
  allocs_at_open_ = total_allocs();
  id_ = open(name);
}

ScopedSpan::~ScopedSpan() {
  if (!enabled_) return;
  const std::int64_t end = now_ns();
  const std::uint64_t allocs = total_allocs() - allocs_at_open_;
  ThreadLog& log = thread_log();
  const OpenSpan span = pop(log);
  record(log, span, end, span.name, 0, allocs);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<SpanId, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // spans are ordered by start, so each parent's children arrive in start
  // order and their union is one sweep.
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<std::int64_t> reach(spans.size(), 0);  // end of union so far
  for (const Span& child : spans) {
    const auto it = index.find(child.parent);
    if (it == index.end()) continue;
    const std::size_t p = it->second;
    const std::int64_t lo = std::max({child.start_ns, spans[p].start_ns,
                                      reach[p]});
    const std::int64_t hi = std::min(child.end_ns, spans[p].end_ns);
    if (hi > lo) {
      covered[p] += hi - lo;
      reach[p] = hi;
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() - covered[i];
  }
  return self;
}

bool write_tsv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<std::int64_t> self = self_times(spans);
  std::fputs(
      "id\tparent\ttrial\tlane\tname\tstart_ns\tend_ns\tself_ns\tallocs\t"
      "value\n",
      out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%llu\t%llu\t%u\t%u\t%s\t%lld\t%lld\t%lld\t%llu\t%u\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.trial,
                 static_cast<unsigned>(s.lane), name_of(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 static_cast<unsigned long long>(s.allocs), s.value);
  }
  return std::fclose(out) == 0;
}

}  // namespace studybench::spans
