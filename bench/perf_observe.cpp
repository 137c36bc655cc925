// Overhead benchmarks and gates for the trial event stream's three views —
// telemetry, forensics, coverage (google-benchmark). Telemetry's counters
// and the coverage probes are both read out of one per-cell event tally, so
// attaching either view pays for the tally.
//
// Before benchmarking, main() runs two gates on the full recovery matrix:
//
//   identity   a run_matrix with all three views attached must produce, for
//              1 and 4 lanes, identical metric snapshots, span traces and
//              Chrome/Prometheus exports; byte-identical post-mortem JSON and
//              explorer HTML; and an identical atlas, atlas JSON and study
//              snapshot (the index-order fold contract, DESIGN.md §9);
//   overhead   with one view attached, the matrix must cost at most 5% more
//              wall time than the bare run, for each view. The variants
//              (bare, telemetry, forensics, coverage, bare again) are
//              interleaved per matrix cell, so host load drift over the
//              seconds a pass takes hits all of them alike; the best pass
//              total is the noise-robust pick, since interference only adds
//              time. The second bare variant gives the noise floor.
//
// Gate measurements land in BENCH_observe.json (bench::BenchJson).
//
// Benchmark rows (the whole-matrix costs are the gate's own measurements):
//   BM_NullSinkBranch      the detached path: emit on a null observer
//   BM_RegistryCounterAdd  one registry counter increment
//   BM_HistogramObserve    one fixed-bucket observation
//   BM_SpanOpenClose       one sim-domain RAII span
//   BM_RingRecord          one flight-recorder append
//   BM_RingSnapshot        chronological() over a full ring
//   BM_BuildPostmortem     one causal-chain reconstruction
//   BM_TriageCluster       clustering the full study's post-mortems
//   BM_TallyEmit           one emit into an attached event tally
//   BM_MapMerge            one full CoverageMap merge
//   BM_SnapshotRender      canonical JSON of a full study snapshot
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "corpus/seeds.hpp"
#include "env/clock.hpp"
#include "forensics/export.hpp"
#include "forensics/postmortem.hpp"
#include "forensics/triage.hpp"
#include "harness/experiment.hpp"
#include "obs/baseline.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"

using namespace faultstudy;

namespace {

/// The study-wide aggregates of all three views.
struct Views {
  telemetry::StudyTelemetry telemetry;
  forensics::StudyForensics forensics;
  obs::CoverageAtlas coverage;
};

harness::MatrixResult run_observed(std::size_t threads, Views& views) {
  harness::TrialConfig config;
  config.threads = threads;
  return harness::run_matrix(corpus::all_seeds(),
                             harness::standard_mechanisms(), config, 3,
                             &views.telemetry, &views.forensics,
                             &views.coverage);
}

void BM_NullSinkBranch(benchmark::State& state) {
  obs::TrialObservers* sink = nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sink);
    obs::emit(sink, obs::Event::kFdDenied, 1, 2);
  }
}
BENCHMARK(BM_NullSinkBranch);

void BM_RegistryCounterAdd(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  const auto id = registry.counter("bench/counter");
  for (auto _ : state) {
    registry.add(id, 1);
  }
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_RegistryCounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::Histogram hist(telemetry::default_tick_bounds());
  std::int64_t value = 0;
  for (auto _ : state) {
    hist.observe(value++ & 0x3FFF);
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanOpenClose(benchmark::State& state) {
  env::VirtualClock clock;
  telemetry::SpanTracer tracer;
  tracer.bind_sim(&clock);
  for (auto _ : state) {
    { telemetry::SpanScope scope(&tracer, "bench"); }
    if (tracer.spans().size() > (1u << 16)) tracer.clear();
  }
  benchmark::DoNotOptimize(tracer.spans().size());
}
BENCHMARK(BM_SpanOpenClose);

void BM_RingRecord(benchmark::State& state) {
  env::VirtualClock clock;
  forensics::FlightRecorder ring;
  ring.bind_clock(&clock);
  std::uint64_t i = 0;
  for (auto _ : state) {
    ring.record(forensics::FlightCode::kItemFailed, i++, 3);
  }
  benchmark::DoNotOptimize(ring.total_recorded());
}
BENCHMARK(BM_RingRecord);

void BM_RingSnapshot(benchmark::State& state) {
  forensics::FlightRecorder ring;
  for (std::uint64_t i = 0; i < 2 * forensics::kDefaultRingCapacity; ++i) {
    ring.record(forensics::FlightCode::kCheckpoint, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.chronological());
  }
}
BENCHMARK(BM_RingSnapshot);

void BM_BuildPostmortem(benchmark::State& state) {
  // A synthetic but representative failed trial: armed fault, a resource
  // prelude, a dozen failure/recovery rounds, then a failed verdict.
  env::Environment environment;
  forensics::FlightRecorder ring;
  ring.bind_clock(&environment.clock());
  ring.record(forensics::FlightCode::kTrialStart, 40, 2);
  ring.record(forensics::FlightCode::kFaultArmed,
              static_cast<std::uint64_t>(core::Trigger::kDiskCacheFull), 0);
  ring.record(forensics::FlightCode::kEnvArmed);
  ring.record(forensics::FlightCode::kDiskFull, 4096, 1024);
  for (std::uint64_t i = 0; i < 12; ++i) {
    ring.record(forensics::FlightCode::kItemFailed, i, 3);
    ring.record(forensics::FlightCode::kRecoveryBegin, i);
    ring.record(forensics::FlightCode::kColdRestart);
    ring.record(forensics::FlightCode::kRecoveryOk, i, 0);
  }
  ring.record(forensics::FlightCode::kVerdict,
              static_cast<std::uint64_t>(
                  forensics::TrialVerdict::kRetryCapExceeded));
  forensics::PostMortemInputs inputs;
  inputs.fault_id = "bench-edn-01";
  inputs.fault_class = core::FaultClass::kEnvDependentNonTransient;
  inputs.trigger = core::Trigger::kDiskCacheFull;
  inputs.mechanism = "cold-restart";
  inputs.verdict = forensics::TrialVerdict::kRetryCapExceeded;
  inputs.failures = 13;
  inputs.recoveries = 12;
  inputs.first_failure = "disk full writing access log";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        forensics::build_postmortem(ring, environment, inputs));
  }
}
BENCHMARK(BM_BuildPostmortem);

/// One full observed study at 4 lanes, shared by the benches that render
/// or cluster its aggregates.
struct FullStudy {
  Views views;
  harness::MatrixResult matrix;
};
const FullStudy& full_study() {
  static const auto study = [] {
    auto s = std::make_unique<FullStudy>();
    s->matrix = run_observed(4, s->views);
    return s;
  }();
  return *study;
}

void BM_TriageCluster(benchmark::State& state) {
  const auto& postmortems = full_study().views.forensics.postmortems;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forensics::triage(postmortems));
  }
  state.counters["postmortems"] = static_cast<double>(postmortems.size());
}
BENCHMARK(BM_TriageCluster)->Unit(benchmark::kMillisecond);

void BM_TallyEmit(benchmark::State& state) {
  obs::EventTally tally;
  obs::TrialObservers observers{.tally = &tally};
  obs::TrialObservers* sink = &observers;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sink);
    obs::emit(sink, obs::Event::kFdDenied, 1, 2);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(tally.count(obs::Event::kFdDenied));
}
BENCHMARK(BM_TallyEmit);

void BM_MapMerge(benchmark::State& state) {
  obs::CoverageMap a;
  obs::CoverageMap b;
  for (std::size_t i = 0; i < obs::kNumSites; ++i) {
    b.sites[i] = i + 1;
  }
  for (auto _ : state) {
    a.merge(b);
  }
  benchmark::DoNotOptimize(a.probes_hit());
}
BENCHMARK(BM_MapMerge);

void BM_SnapshotRender(benchmark::State& state) {
  const auto& study = full_study();
  const auto snapshot = obs::build_snapshot(
      corpus::all_seeds(), study.matrix, study.views.coverage, {}, 99, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::to_json(snapshot));
  }
}
BENCHMARK(BM_SnapshotRender)->Unit(benchmark::kMicrosecond);

// --- gates -----------------------------------------------------------------

/// Every serialized artifact of the three views, for byte comparison.
std::vector<std::string> render_artifacts(std::size_t threads) {
  const auto seeds = corpus::all_seeds();
  auto views = std::make_unique<Views>();
  const auto matrix = run_observed(threads, *views);

  std::vector<telemetry::TraceThread> trace_threads;
  std::string spans;
  for (const auto& [label, tracer] : views->telemetry.traces) {
    trace_threads.push_back({label, &tracer});
    for (const auto& span : tracer.spans()) {
      spans += label + ' ';
      spans += span.name;
      spans += ' ' + std::to_string(span.start) + ' ' +
               std::to_string(span.duration) + ' ' +
               std::to_string(span.depth) + '\n';
    }
  }
  const auto metrics = views->telemetry.metrics.snapshot();

  const auto clusters = forensics::triage(views->forensics.postmortems);
  std::vector<forensics::MechanismSuccessRow> rows;
  for (const auto& report : matrix.reports) {
    rows.push_back({report.mechanism, report.generic, report.survived_all(),
                    report.total_all(), report.state_losses});
  }

  return {
      telemetry::to_json(metrics),
      telemetry::to_prometheus(metrics),
      spans,
      telemetry::to_chrome_trace(trace_threads),
      forensics::to_json(views->forensics, clusters),
      forensics::render_explorer_html(views->forensics, clusters, rows,
                                      "bench"),
      obs::to_json(views->coverage),
      obs::to_json(obs::build_snapshot(seeds, matrix, views->coverage,
                                       metrics, 99, 3)),
  };
}

enum Variant { kBare, kTelemetry, kForensics, kCoverage, kBareAgain, kCount };

/// Total wall time per variant of one serial pass over the matrix, best
/// over `passes`. Variants are interleaved per (mechanism, fault) cell —
/// each cell runs through run_matrix once per variant, folds included, in
/// an order rotated per cell — so load drift on the host hits every variant
/// alike instead of whichever ran later.
std::array<double, kCount> interleaved_min_millis(int passes) {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  harness::TrialConfig config;
  config.threads = 1;  // the serial path isolates per-trial overhead
  std::array<double, kCount> best{};
  for (int pass = 0; pass < passes; ++pass) {
    std::array<double, kCount> total{};
    std::size_t cell = 0;
    for (const auto& mechanism : mechanisms) {
      const std::vector<harness::NamedMechanism> one_mechanism = {mechanism};
      for (const auto& seed : seeds) {
        const std::vector<corpus::SeedFault> one_seed = {seed};
        for (int k = 0; k < kCount; ++k) {
          const auto v = static_cast<Variant>((cell + k) % kCount);
          auto views = std::make_unique<Views>();
          const auto start = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(harness::run_matrix(
              one_seed, one_mechanism, config, 3,
              v == kTelemetry ? &views->telemetry : nullptr,
              v == kForensics ? &views->forensics : nullptr,
              v == kCoverage ? &views->coverage : nullptr));
          const auto stop = std::chrono::steady_clock::now();
          total[v] +=
              std::chrono::duration<double, std::milli>(stop - start).count();
        }
        ++cell;
      }
    }
    for (int v = 0; v < kCount; ++v) {
      if (pass == 0 || total[v] < best[v]) best[v] = total[v];
    }
  }
  return best;
}

constexpr double kGatePercent = 5.0;

}  // namespace

int main(int argc, char** argv) {
  if (render_artifacts(1) != render_artifacts(4)) {
    std::fprintf(stderr,
                 "FATAL: observed-matrix artifacts differ between 1 and 4 "
                 "lanes\n");
    return 1;
  }
  std::printf("observe identity check: OK (metrics, traces, post-mortem "
              "JSON + HTML, atlas, snapshot; 1 vs 4 lanes)\n");

  constexpr int kPasses = 3;
  const auto best = interleaved_min_millis(kPasses);
  const double bare = best[kBare];
  const double noise = (best[kBareAgain] - bare) / bare * 100.0;
  std::printf("observe overhead gate: bare %.1f ms (noise floor %+.2f%%, "
              "gate %.1f%%, best of %d cell-interleaved passes)\n",
              bare, noise, kGatePercent, kPasses);
  bench::BenchJson json("observe");
  json.add("matrix_bare_min", bare, "ms");
  json.add("noise_floor", noise, "percent");
  json.add("gate", kGatePercent, "percent");
  bool ok = true;
  const std::array<std::pair<Variant, const char*>, 3> views = {
      {{kTelemetry, "telemetry"},
       {kForensics, "forensics"},
       {kCoverage, "coverage"}}};
  for (const auto& [variant, name] : views) {
    const double overhead = (best[variant] - bare) / bare * 100.0;
    std::printf("  %-9s %.1f ms -> %+.2f%%\n", name, best[variant], overhead);
    json.add(std::string("matrix_") + name + "_min", best[variant], "ms");
    json.add(std::string(name) + "_overhead", overhead, "percent");
    if (overhead > kGatePercent) {
      std::fprintf(stderr, "FATAL: %s overhead %+.2f%% exceeds %.1f%%\n",
                   name, overhead, kGatePercent);
      ok = false;
    }
  }
  if (!json.write() || !ok) return 1;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
