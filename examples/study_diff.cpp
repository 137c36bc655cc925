// study_diff — differential regression observability front end.
//
//   study_diff snapshot <out.json>          run the matrix, write a snapshot
//   study_diff diff <baseline> <candidate>  compare two snapshot files
//   study_diff check <baseline>             run the matrix, diff vs baseline
//   study_diff heatmap <out.html>           run the matrix, write the heatmap
//
// A snapshot (`faultstudy-baseline/1`) is the committed contract of a full
// study run: classification distribution, recovery matrix, the coverage
// atlas's full probe universe, and the deterministic telemetry counters.
// Every value is an integer in the simulated domain, so snapshots are
// byte-identical for any --threads value and `check` is a sound CI gate.
//
// Exit codes: 0 ok / no drift, 1 I/O error, 2 usage error, 3 snapshot
// parse error, 4 fatal drift (a changed study identity — seed, repeats,
// trials, probe universe — lost coverage, a counter the candidate no longer
// reports, a mechanism on only one side, distribution or survival-rate
// shifts beyond tolerance). `check` also
// exits 4 when the baseline itself is rejected: the CI gate fails closed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "telemetry/trial.hpp"
#include "util/thread_pool.hpp"

using namespace faultstudy;

namespace {

std::size_t g_threads = 0;  // 0 = auto (FAULTSTUDY_THREADS, else hardware)
long long g_seed = -1;      // < 0 keeps the TrialConfig default
int g_repeats = 3;
obs::Tolerance g_tolerance;

int usage() {
  std::fputs(
      "usage:\n"
      "  study_diff snapshot <out.json>          write a study snapshot\n"
      "  study_diff diff <baseline> <candidate>  compare two snapshots\n"
      "  study_diff check <baseline>             run study, diff vs baseline\n"
      "  study_diff heatmap <out.html>           write the coverage heatmap\n"
      "options:\n"
      "  --threads N          execution lanes (results identical for any N)\n"
      "  --seed N             base trial seed (default 99)\n"
      "  --repeats N          matrix repeats per cell (default 3)\n"
      "  --class-tol=F        fault-class fraction drift band (default "
      "0.02)\n"
      "  --survival-tol=F     survival-rate drift band (default 0.05)\n"
      "exit codes: 0 ok, 1 io, 2 usage, 3 parse, 4 drift\n",
      stderr);
  return 2;
}

bool write_file(const std::string& path, const std::string& payload) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << payload;
  return true;
}

bool read_file(const std::string& path, std::string& text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  text = buf.str();
  return true;
}

/// One full (deterministic) study run: the recovery matrix with coverage
/// and telemetry attached.
struct StudyRun {
  std::vector<corpus::SeedFault> seeds;
  harness::MatrixResult matrix;
  obs::CoverageAtlas atlas;
  telemetry::MetricsSnapshot metrics;
  std::uint64_t seed = 0;
};

StudyRun run_study() {
  StudyRun run;
  run.seeds = corpus::all_seeds();
  harness::TrialConfig config;
  config.threads = g_threads;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  run.seed = config.seed;
  std::printf("study: seed=%llu repeats=%d threads=%zu\n",
              static_cast<unsigned long long>(config.seed), g_repeats,
              util::resolve_threads(g_threads));
  telemetry::StudyTelemetry study;
  run.matrix =
      harness::run_matrix(run.seeds, harness::standard_mechanisms(), config,
                          g_repeats, &study, nullptr, &run.atlas);
  obs::export_gauges(run.atlas, study.metrics);
  run.metrics = study.metrics.snapshot();
  return run;
}

obs::StudySnapshot snapshot_of(const StudyRun& run) {
  return obs::build_snapshot(run.seeds, run.matrix, run.atlas, run.metrics,
                             run.seed, g_repeats);
}

/// Renders the drift report and maps it to the process exit code.
int report_drift(const obs::DriftReport& report) {
  std::fputs(obs::render_text(report).c_str(), stdout);
  return report.regressed() ? 4 : 0;
}

int cmd_snapshot(const std::string& path) {
  const StudyRun run = run_study();
  const std::string payload = obs::to_json(snapshot_of(run));
  if (!write_file(path, payload)) return 1;
  std::printf("snapshot: wrote %s (%zu bytes)\n", path.c_str(),
              payload.size());
  return 0;
}

int cmd_diff(const std::string& baseline_path,
             const std::string& candidate_path) {
  std::string baseline_text, candidate_text;
  if (!read_file(baseline_path, baseline_text)) return 1;
  if (!read_file(candidate_path, candidate_text)) return 1;
  const auto baseline = obs::parse_snapshot(baseline_text);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", baseline_path.c_str(),
                 baseline.error().c_str());
    return 3;
  }
  const auto candidate = obs::parse_snapshot(candidate_text);
  if (!candidate.ok()) {
    std::fprintf(stderr, "%s: %s\n", candidate_path.c_str(),
                 candidate.error().c_str());
    return 3;
  }
  return report_drift(
      obs::diff(baseline.value(), candidate.value(), g_tolerance));
}

int cmd_check(const std::string& baseline_path) {
  std::string baseline_text;
  if (!read_file(baseline_path, baseline_text)) return 1;
  const auto baseline = obs::parse_snapshot(baseline_text);
  if (!baseline.ok()) {
    // The gate fails closed: a baseline that is not a complete snapshot
    // (a dropped section, an unknown key) cannot vouch for any run.
    std::fprintf(stderr, "%s: %s\nFATAL baseline rejected\n",
                 baseline_path.c_str(), baseline.error().c_str());
    return 4;
  }
  const StudyRun run = run_study();
  return report_drift(
      obs::diff(baseline.value(), snapshot_of(run), g_tolerance));
}

int cmd_heatmap(const std::string& path) {
  const StudyRun run = run_study();
  const std::string payload = obs::render_heatmap_html(run.atlas);
  if (!write_file(path, payload)) return 1;
  std::printf("heatmap: wrote %s (%zu bytes)\n", path.c_str(),
              payload.size());
  std::fputs(obs::render_text(run.atlas).c_str(), stdout);
  return 0;
}

bool parse_fraction(const std::string& arg, std::string_view prefix,
                    double& out) {
  const std::string text = arg.substr(prefix.size());
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || v < 0.0 || v > 1.0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" || arg == "--repeats" || arg == "--seed") {
      char* end = nullptr;
      const long long n =
          i + 1 < argc ? std::strtoll(argv[++i], &end, 10) : -1;
      if (end == nullptr || end == argv[i] || *end != '\0' || n < 0) {
        std::fprintf(stderr, "%s needs a non-negative integer\n",
                     arg.c_str());
        return 2;
      }
      if (arg == "--threads") {
        g_threads = static_cast<std::size_t>(n);
      } else if (arg == "--repeats") {
        if (n < 1) return usage();
        g_repeats = static_cast<int>(n);
      } else {
        g_seed = n;
      }
      continue;
    }
    if (arg.starts_with("--class-tol=")) {
      if (!parse_fraction(arg, "--class-tol=", g_tolerance.class_fraction)) {
        return usage();
      }
      continue;
    }
    if (arg.starts_with("--survival-tol=")) {
      if (!parse_fraction(arg, "--survival-tol=",
                          g_tolerance.survival_rate)) {
        return usage();
      }
      continue;
    }
    if (arg.starts_with("--")) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
    args.push_back(arg);
  }
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (cmd == "snapshot" && args.size() == 2) return cmd_snapshot(args[1]);
  if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);
  if (cmd == "check" && args.size() == 2) return cmd_check(args[1]);
  if (cmd == "heatmap" && args.size() == 2) return cmd_heatmap(args[1]);
  return usage();
}
