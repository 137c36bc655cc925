// Microbenchmarks for the correctness-analysis layer: the cost of running a
// trial traced vs untraced (event emission + transcript recording), the
// happens-before detector's throughput on synchronization traces, and the
// invariant checker's throughput on transcripts.
#include <benchmark/benchmark.h>

#include <span>

#include "analysis/invariant_checker.hpp"
#include "analysis/race_detector.hpp"
#include "corpus/seeds.hpp"
#include "env/interleave.hpp"
#include "harness/experiment.hpp"
#include "recovery/rollback.hpp"

using namespace faultstudy;

namespace {

const corpus::SeedFault& race_seed() {
  static const corpus::SeedFault seed = [] {
    for (const auto& s : corpus::all_seeds()) {
      if (s.fault_id == "mysql-edt-01") return s;
    }
    return corpus::SeedFault{};
  }();
  return seed;
}

void BM_TrialUntraced(benchmark::State& state) {
  const auto plan = inject::plan_for(race_seed(), 42);
  for (auto _ : state) {
    recovery::RollbackRetry mechanism;
    const auto outcome = harness::run_trial(plan, mechanism);
    benchmark::DoNotOptimize(outcome.failures);
  }
}
BENCHMARK(BM_TrialUntraced);

void BM_TrialTraced(benchmark::State& state) {
  const auto plan = inject::plan_for(race_seed(), 42);
  std::size_t events = 0;
  for (auto _ : state) {
    recovery::RollbackRetry mechanism;
    harness::TrialObservation observation;
    const auto outcome = harness::run_trial(
        plan, mechanism, {}, {.observation = &observation});
    benchmark::DoNotOptimize(outcome.failures);
    events = observation.trace.size();
  }
  state.counters["trace_events"] = static_cast<double>(events);
}
BENCHMARK(BM_TrialTraced);

/// A trace of repeated two-thread operations, racy or synchronized,
/// totalling roughly `target_events` events.
env::TraceLog make_trace(std::size_t target_events, bool racy) {
  env::TraceLog log;
  log.enable();
  env::TwoThreadShape shape;
  shape.a_steps = 8;
  shape.unguarded_at = racy ? 4 : -1;
  shape.async_locked = !racy;
  int position = 0;
  while (log.size() < target_events) {
    env::emit_two_thread_trace(log, /*now=*/log.size(), shape,
                               position++ % (shape.a_steps + 1));
  }
  return log;
}

void BM_RaceDetectorClean(benchmark::State& state) {
  const env::TraceLog log = make_trace(
      static_cast<std::size_t>(state.range(0)), /*racy=*/false);
  analysis::RaceDetector detector;
  for (auto _ : state) {
    auto reports = detector.analyze(log);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_RaceDetectorClean)->Range(1 << 10, 1 << 16);

void BM_RaceDetectorRacy(benchmark::State& state) {
  const env::TraceLog log = make_trace(
      static_cast<std::size_t>(state.range(0)), /*racy=*/true);
  analysis::RaceDetector detector;
  for (auto _ : state) {
    auto reports = detector.analyze(log);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_RaceDetectorRacy)->Range(1 << 10, 1 << 16);

void BM_InvariantChecker(benchmark::State& state) {
  harness::Transcript transcript;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n / 4; ++i) {
    transcript.record(harness::EventKind::kFdOpen, i, 2);
    transcript.record(harness::EventKind::kProcSpawn, i, 100 + i);
    transcript.record(harness::EventKind::kProcKill, i, 100 + i);
    transcript.record(harness::EventKind::kFdClose, i, 2);
  }
  for (auto _ : state) {
    auto violations = analysis::check_transcript(transcript);
    benchmark::DoNotOptimize(violations.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(transcript.events().size()));
}
BENCHMARK(BM_InvariantChecker)->Range(1 << 10, 1 << 16);

}  // namespace

BENCHMARK_MAIN();
