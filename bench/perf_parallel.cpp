// Throughput benchmarks for the deterministic parallel executor
// (google-benchmark), parameterized by thread count:
//
//   BM_RecoveryMatrix/T       full 139-seed x 6-mechanism matrix, repeats=3
//   BM_OracleCrosscheck/T     one traced trial + race detection per seed
//   BM_TrackerPipeline/T      Apache tracker mining (filter/dedup/classify)
//   BM_MailingListPipeline/T  MySQL mbox mining
//   BM_PoolForIndex/T         raw pool scheduling overhead (trivial items)
//
// The four sweeps report wall time ("Time") and the CPU time of every lane
// together ("CPU"), so CPU / wall is the number of cores actually busy.
// Before benchmarking, main() cross-checks the determinism contract on the
// full corpus: run_matrix with 4 lanes must be bit-identical to the serial
// run. The serial-vs-parallel speedup on a given host is the ratio of the
// /1 and /N rows; EXPERIMENTS.md records measured numbers.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "corpus/seeds.hpp"
#include "corpus/synth.hpp"
#include "harness/experiment.hpp"
#include "mining/pipeline.hpp"
#include "util/thread_pool.hpp"

using namespace faultstudy;

namespace {

void BM_RecoveryMatrix(benchmark::State& state) {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  harness::TrialConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_matrix(seeds, mechanisms, config));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seeds.size() *
                                               mechanisms.size()));
}
BENCHMARK(BM_RecoveryMatrix)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_OracleCrosscheck(benchmark::State& state) {
  const auto seeds = corpus::all_seeds();
  harness::TrialConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_oracle_crosscheck(seeds, config));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seeds.size()));
}
BENCHMARK(BM_OracleCrosscheck)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrackerPipeline(benchmark::State& state) {
  const auto tracker = corpus::make_apache_tracker();
  mining::PipelineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::run_tracker_pipeline(tracker, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tracker.size()));
}
BENCHMARK(BM_TrackerPipeline)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_MailingListPipeline(benchmark::State& state) {
  const auto list = corpus::make_mysql_list();
  mining::PipelineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mining::run_mailinglist_pipeline(list, options));
  }
}
BENCHMARK(BM_MailingListPipeline)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_PoolForIndex(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> out(1 << 14);
  for (auto _ : state) {
    pool.for_index(out.size(), [&](std::size_t i) {
      out[i] = i * 0x9e3779b97f4a7c15ULL;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_PoolForIndex)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Full-corpus determinism cross-check (the acceptance gate for the
/// parallel matrix): serial and 4-lane runs must agree field for field.
bool matrix_identity_ok() {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  harness::TrialConfig serial;
  serial.threads = 1;
  harness::TrialConfig wide = serial;
  wide.threads = 4;
  const auto a = harness::run_matrix(seeds, mechanisms, serial);
  const auto b = harness::run_matrix(seeds, mechanisms, wide);
  if (a.fault_count != b.fault_count) return false;
  if (a.reports.size() != b.reports.size()) return false;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const auto& ra = a.reports[i];
    const auto& rb = b.reports[i];
    if (ra.mechanism != rb.mechanism || ra.generic != rb.generic ||
        ra.survived != rb.survived || ra.total != rb.total ||
        ra.vacuous != rb.vacuous || ra.state_losses != rb.state_losses) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto n = corpus::all_seeds().size();
  if (!matrix_identity_ok()) {
    std::fprintf(stderr,
                 "FATAL: %zu-seed matrix differs between 1 and 4 lanes\n", n);
    return 1;
  }
  std::printf("matrix identity check: OK (%zu seeds, serial vs 4 lanes)\n", n);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
