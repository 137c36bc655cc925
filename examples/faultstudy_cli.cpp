// faultstudy — command-line front end for the library.
//
//   faultstudy_cli classify             # read a report from stdin, classify
//   faultstudy_cli corpus <app> <file>  # write the synthetic corpus to disk
//   faultstudy_cli mine <app|file>      # run the mining pipeline, print table
//   faultstudy_cli simulate <fault> <mechanism>   # one narrated trial
//   faultstudy_cli matrix               # the full recovery matrix
//
// `classify` reads the `Title:` / `How-To-Repeat:` / `Comments:` format of
// core::parse_report_text, or free text; empty or blank stdin is a usage
// error (exit 2).
//
// `mine` accepts either an application name (generates the calibrated
// synthetic corpus) or a path to a tracker dump / mbox file written by
// `corpus` (or by you).
//
// `simulate` runs one trial through harness::run_trial, the same protocol
// the matrix uses, and prints its verdict and then its transcript (failures,
// recoveries, descriptor, process and disk deltas). Beside the verdict it
// prints the cell's vote in `matrix`: harness::run_matrix over just this
// (fault, mechanism) cell, so one cell of the study can be examined on its
// own.
//
// A global `--threads N` flag (anywhere on the command line) sets the
// execution lanes for `matrix` and `mine`; results are bit-identical for
// every value. Default: the FAULTSTUDY_THREADS environment variable, else
// one lane per hardware thread. `--seed N` overrides the base trial seed.
//
// Telemetry:
//   --telemetry=<path>   metrics snapshot; `.json` extension selects the
//                        JSON exporter, anything else Prometheus text.
//   --trace=<path>       Chrome trace_event timeline (chrome://tracing,
//                        Perfetto). matrix/simulate traces use simulated
//                        ticks and are byte-identical for any --threads;
//                        mine traces are wall-clock self-profiles.
//
// Coverage:
//   --coverage=<path>    matrix/simulate coverage atlas; `.json` selects
//                        the atlas JSON, `.html` the heatmap, anything
//                        else the text summary. Byte-identical for any
//                        --threads.
//   --baseline=<path>    a committed study snapshot (study_diff writes
//                        one). matrix diffs the run against it and exits 4
//                        on fatal drift; simulate prints what the study
//                        recorded for the specimen beside the trial's own
//                        probe count.
//
// Unknown `--` options are rejected with a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/serialize.hpp"
#include "corpus/synth.hpp"
#include "harness/experiment.hpp"
#include "core/rule_classifier.hpp"
#include "core/rules.hpp"
#include "mining/pipeline.hpp"
#include "obs/baseline.hpp"
#include "obs/export.hpp"
#include "report/study_report.hpp"
#include "report/table.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trial.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

using namespace faultstudy;

namespace {

/// Lanes for matrix/mine sweeps; 0 = auto (env var, else hardware).
std::size_t g_threads = 0;
/// Base trial seed; < 0 keeps each command's default.
long long g_seed = -1;
/// Trials per matrix cell; the cell's vote is their majority.
constexpr int kRepeats = 3;
std::string g_telemetry_path;
std::string g_trace_path;
std::string g_coverage_path;
std::string g_baseline_path;

bool telemetry_wanted() {
  return !g_telemetry_path.empty() || !g_trace_path.empty();
}

bool coverage_wanted() {
  return !g_coverage_path.empty() || !g_baseline_path.empty();
}

int usage() {
  std::fputs(
      "usage:\n"
      "  faultstudy_cli classify                       (report on stdin)\n"
      "  faultstudy_cli taxonomy                       (trigger ontology)\n"
      "  faultstudy_cli corpus <apache|gnome|mysql> <out-file>\n"
      "  faultstudy_cli mine <apache|gnome|mysql|dump-file>\n"
      "  faultstudy_cli simulate <fault-id> <mechanism>\n"
      "  faultstudy_cli matrix\n"
      "  faultstudy_cli report <out.md>                (full study report)\n"
      "options:\n"
      "  --threads N        execution lanes for matrix/mine (default: "
      "FAULTSTUDY_THREADS, else hardware; results identical for any N)\n"
      "  --seed N           base trial seed for simulate/matrix\n"
      "  --telemetry=PATH   write a metrics snapshot (.json = JSON, else "
      "Prometheus text)\n"
      "  --trace=PATH       write a Chrome trace_event timeline\n"
      "  --coverage=PATH    matrix/simulate: write the coverage atlas "
      "(.json = JSON, .html = heatmap, else text)\n"
      "  --baseline=PATH    matrix: diff against a study snapshot, exit 4 "
      "on fatal drift; simulate: print the study's record of the specimen\n"
      "  --log-level=LEVEL  diagnostic verbosity: debug|info|warn|error|off "
      "(default warn)\n",
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

/// Reads and parses the --baseline snapshot; says why on stderr and returns
/// nothing when it cannot.
std::optional<obs::StudySnapshot> read_baseline() {
  std::ifstream in(g_baseline_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", g_baseline_path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto snapshot = obs::parse_snapshot(buf.str());
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s: %s\n", g_baseline_path.c_str(),
                 snapshot.error().c_str());
    return std::nullopt;
  }
  return std::move(snapshot).value();
}

/// Writes --telemetry / --trace outputs that were requested; returns 0 or 1.
int export_telemetry(const telemetry::MetricsSnapshot& snapshot,
                     const std::vector<telemetry::TraceThread>& threads) {
  if (!g_telemetry_path.empty()) {
    const std::string payload = g_telemetry_path.ends_with(".json")
                                    ? telemetry::to_json(snapshot)
                                    : telemetry::to_prometheus(snapshot);
    if (!write_file(g_telemetry_path, payload)) return 1;
    std::printf("telemetry : wrote %s (%zu bytes)\n", g_telemetry_path.c_str(),
                payload.size());
  }
  if (!g_trace_path.empty()) {
    const std::string payload = telemetry::to_chrome_trace(threads);
    if (!write_file(g_trace_path, payload)) return 1;
    std::printf("trace     : wrote %s (%zu bytes)\n", g_trace_path.c_str(),
                payload.size());
  }
  return 0;
}

/// Writes the --coverage atlas export; the extension picks the serializer
/// (.json = atlas JSON, .html = heatmap, anything else the text summary).
int export_coverage(const obs::CoverageAtlas& atlas) {
  if (g_coverage_path.empty()) return 0;
  const std::string payload =
      g_coverage_path.ends_with(".json")   ? obs::to_json(atlas)
      : g_coverage_path.ends_with(".html") ? obs::render_heatmap_html(atlas)
                                           : obs::render_text(atlas);
  if (!write_file(g_coverage_path, payload)) return 1;
  std::printf("coverage  : wrote %s (%zu bytes)\n", g_coverage_path.c_str(),
              payload.size());
  return 0;
}

int cmd_taxonomy() {
  report::AsciiTable t({"trigger", "class", "changes on retry", "mechanism"});
  for (const core::Trigger trigger : core::all_triggers()) {
    const auto& ruling = core::default_ruling(trigger);
    t.add_row({std::string(core::to_string(trigger)),
               std::string(core::to_code(ruling.fault_class)),
               ruling.condition_changes_on_retry ? "yes" : "no",
               std::string(core::describe(trigger))});
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}

int cmd_report(const std::string& path) {
  std::printf("running the full study...\n");
  const auto markdown = report::generate_study_report();
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << markdown;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), markdown.size());
  return 0;
}

int cmd_classify() {
  std::ostringstream all;
  all << std::cin.rdbuf();
  const std::string input = all.str();
  if (util::trim(input).empty()) {
    // Nothing to read is a usage error, not an environment-independent
    // verdict at confidence 0.
    std::fputs("classify: no report on stdin\n", stderr);
    return 2;
  }
  const core::ReportText report = core::parse_report_text(input);

  const auto result = core::RuleClassifier().classify(report);
  std::printf("class      : %s\n",
              std::string(core::to_string(result.fault_class)).c_str());
  std::printf("trigger    : %s — %s\n",
              std::string(core::to_string(result.trigger)).c_str(),
              std::string(core::describe(result.trigger)).c_str());
  std::printf("confidence : %.2f\n", result.confidence);
  const auto& ruling = core::default_ruling(result.trigger);
  std::printf("retry      : condition %s\n",
              ruling.condition_changes_on_retry ? "likely changes (generic "
                                                  "recovery can work)"
                                                : "persists (needs "
                                                  "application-specific "
                                                  "recovery)");
  for (const auto& cue : result.evidence) {
    std::printf("  evidence : '%s' in %s\n", cue.phrase.c_str(),
                cue.field.c_str());
  }
  return 0;
}

int cmd_corpus(const std::string& app, const std::string& path) {
  std::string payload;
  if (app == "apache") {
    payload = corpus::tracker_to_text(corpus::make_apache_tracker());
  } else if (app == "gnome") {
    payload = corpus::tracker_to_text(corpus::make_gnome_tracker());
  } else if (app == "mysql") {
    payload = corpus::mailinglist_to_mbox(corpus::make_mysql_list());
  } else {
    return usage();
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << payload;
  std::printf("wrote %zu bytes to %s\n", payload.size(), path.c_str());
  return 0;
}

void print_study(const mining::PipelineResult& result) {
  const auto faults = mining::to_faults(result);
  const auto counts = core::tally(faults);
  std::printf("unique bugs: %zu\n\n", result.bugs.size());
  std::fputs(report::render_class_table(counts, "").c_str(), stdout);
}

int cmd_mine(const std::string& target) {
  telemetry::PipelineTelemetry profile;
  mining::PipelineOptions options;
  options.threads = g_threads;
  if (telemetry_wanted()) options.telemetry = &profile;
  std::printf("mine: target=%s threads=%zu\n", target.c_str(),
              util::resolve_threads(g_threads));

  std::optional<mining::PipelineResult> result;
  if (target == "apache" || target == "gnome") {
    const auto tracker = target == "apache" ? corpus::make_apache_tracker()
                                            : corpus::make_gnome_tracker();
    result = mining::run_tracker_pipeline(tracker, options);
  } else if (target == "mysql") {
    result =
        mining::run_mailinglist_pipeline(corpus::make_mysql_list(), options);
  } else {
    // A file: sniff the format.
    std::ifstream in(target, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", target.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (text.starts_with("From ")) {
      const auto list = corpus::mailinglist_from_mbox(text);
      if (!list.ok()) {
        std::fprintf(stderr, "mbox parse error: %s\n", list.error().c_str());
        return 1;
      }
      result = mining::run_mailinglist_pipeline(list.value(), options);
    } else {
      const auto tracker = corpus::tracker_from_text(text);
      if (!tracker.ok()) {
        std::fprintf(stderr, "tracker parse error: %s\n",
                     tracker.error().c_str());
        return 1;
      }
      result = mining::run_tracker_pipeline(tracker.value(), options);
    }
  }
  print_study(*result);
  if (options.telemetry != nullptr) {
    return export_telemetry(profile.metrics.snapshot(),
                            {{"mine (wall)", &profile.spans}});
  }
  return 0;
}

int cmd_simulate(const std::string& fault_id, const std::string& mechanism) {
  const auto seeds = corpus::all_seeds();
  const corpus::SeedFault* seed = nullptr;
  for (const auto& s : seeds) {
    if (s.fault_id == fault_id) seed = &s;
  }
  if (seed == nullptr) {
    std::fprintf(stderr, "unknown fault id %s\n", fault_id.c_str());
    return 1;
  }
  const auto mechanisms = harness::standard_mechanisms();
  const harness::NamedMechanism* named = nullptr;
  for (const auto& nm : mechanisms) {
    if (nm.name == mechanism) named = &nm;
  }
  if (named == nullptr) {
    std::fprintf(stderr, "unknown mechanism %s (try process-pairs, "
                         "rollback-retry, progressive-retry, cold-restart, "
                         "rejuvenation, app-specific)\n",
                 mechanism.c_str());
    return 1;
  }
  std::optional<obs::StudySnapshot> baseline;
  if (!g_baseline_path.empty()) {
    baseline = read_baseline();
    if (!baseline.has_value()) return 1;
  }
  // Defaults match the pre-flag behavior exactly: plan seed 42, trial
  // config seed 99; --seed N sets both.
  harness::TrialConfig config;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  // The trial always runs traced for its narration; tracing adds no
  // scheduler draws, so the verdict and every export are as untraced.
  harness::TrialObservation observation;
  telemetry::TrialTelemetry telem;
  obs::CoverageMap cover;
  harness::TrialSinks sinks{.observation = &observation};
  if (telemetry_wanted()) sinks.telemetry = &telem;
  if (coverage_wanted()) sinks.coverage = &cover;
  const auto plan = inject::plan_for(
      *seed, g_seed >= 0 ? static_cast<std::uint64_t>(g_seed) : 42);
  auto mech = named->make();
  const auto outcome = harness::run_trial(plan, *mech, config, sinks);
  std::printf("simulate  : seed=%llu threads=1\n",
              static_cast<unsigned long long>(config.seed));
  std::printf("fault     : %s (%s, %s)\n", seed->fault_id.c_str(),
              std::string(core::to_string(seed->trigger)).c_str(),
              std::string(core::to_string(corpus::seed_class(*seed))).c_str());
  std::printf("mechanism : %s\n", mechanism.c_str());
  std::printf("observed  : %zu failures, %zu recoveries\n", outcome.failures,
              outcome.recoveries);
  std::printf("verdict   : %s\n",
              outcome.survived ? "SURVIVED" : "NOT SURVIVED");
  {
    // The cell's vote in `matrix`, from the matrix itself. One cell runs
    // on one lane whatever --threads says.
    harness::TrialConfig cell_config = config;
    cell_config.threads = 1;
    obs::CoverageAtlas cell_atlas;
    const auto cell = harness::run_matrix({*seed}, {*named}, cell_config,
                                          kRepeats, nullptr, nullptr,
                                          &cell_atlas);
    const auto& report = cell.reports[0];
    const auto& grid = cell_atlas.grids()[0];
    const auto t = static_cast<std::size_t>(seed->trigger);
    std::printf("matrix    : %s (survived %llu/%llu fault-observing repeats "
                "of %d)\n",
                report.vacuous > 0            ? "VACUOUS"
                : report.survived_all() > 0   ? "SURVIVED"
                                              : "NOT SURVIVED",
                static_cast<unsigned long long>(grid.survived[t]),
                static_cast<unsigned long long>(grid.observed[t]), kRepeats);
  }
  if (!outcome.first_failure.empty()) {
    std::printf("first failure: %s\n", outcome.first_failure.c_str());
  }
  std::printf("\n%s", observation.transcript.to_string().c_str());
  if (sinks.telemetry != nullptr) {
    telemetry::MetricsRegistry registry;
    telemetry::fold_into(telem, mechanism, registry);
    if (export_telemetry(registry.snapshot(),
                         {{fault_id + "/" + mechanism, &telem.spans}}) != 0) {
      return 1;
    }
  }
  if (sinks.coverage != nullptr) {
    obs::CoverageAtlas atlas;
    atlas.begin_study({*seed}, {mechanism});
    atlas.fold_trial(*seed, cover);
    if (export_coverage(atlas) != 0) return 1;
    if (baseline.has_value()) {
      std::printf("baseline  : this trial hit %zu/%zu probes; ",
                  atlas.probes_hit(), obs::CoverageAtlas::probe_universe());
      const auto& rows = baseline->specimens;
      const auto row =
          std::find_if(rows.begin(), rows.end(),
                       [&](const auto& r) { return r.fault_id == fault_id; });
      if (row == rows.end()) {
        std::printf("%s has no record of %s\n", g_baseline_path.c_str(),
                    fault_id.c_str());
      } else {
        std::printf("the study recorded %llu probes hit over %llu "
                    "trials\n",
                    static_cast<unsigned long long>(row->probes_hit),
                    static_cast<unsigned long long>(row->trials));
      }
    }
  }
  return outcome.survived ? 0 : 3;
}

int cmd_matrix() {
  harness::TrialConfig config;
  config.threads = g_threads;
  if (g_seed >= 0) config.seed = static_cast<std::uint64_t>(g_seed);
  std::printf("matrix: seed=%llu threads=%zu\n",
              static_cast<unsigned long long>(config.seed),
              util::resolve_threads(g_threads));
  telemetry::StudyTelemetry study;
  // A --baseline run is always instrumented: the snapshot's counters
  // section comes from the telemetry fold.
  telemetry::StudyTelemetry* tp =
      telemetry_wanted() || !g_baseline_path.empty() ? &study : nullptr;
  obs::CoverageAtlas atlas;
  obs::CoverageAtlas* ap = coverage_wanted() ? &atlas : nullptr;
  const auto seeds = corpus::all_seeds();
  const auto matrix =
      harness::run_matrix(seeds, harness::standard_mechanisms(), config,
                          kRepeats, tp, nullptr, ap);
  report::AsciiTable t({"mechanism", "EI", "EDN", "EDT", "overall", "vacuous"});
  for (const auto& r : matrix.reports) {
    const auto cell = [&](core::FaultClass c) {
      const auto i = static_cast<std::size_t>(c);
      return std::to_string(r.survived[i]) + "/" + std::to_string(r.total[i]);
    };
    t.add_row({r.mechanism, cell(core::FaultClass::kEnvironmentIndependent),
               cell(core::FaultClass::kEnvDependentNonTransient),
               cell(core::FaultClass::kEnvDependentTransient),
               util::percent(static_cast<double>(r.survived_all()) /
                             static_cast<double>(r.total_all())),
               std::to_string(r.vacuous)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  // Publish atlas gauges before any snapshot is taken, so both the
  // telemetry export and the baseline diff see coverage.
  if (ap != nullptr && tp != nullptr) obs::export_gauges(atlas, study.metrics);
  if (export_coverage(atlas) != 0) return 1;
  int rc = 0;
  if (!g_baseline_path.empty()) {
    const auto baseline = read_baseline();
    if (!baseline.has_value()) return 1;
    const auto candidate = obs::build_snapshot(
        seeds, matrix, atlas, study.metrics.snapshot(), config.seed, kRepeats);
    const auto drift = obs::diff(*baseline, candidate);
    std::fputs(obs::render_text(drift).c_str(), stdout);
    if (drift.regressed()) rc = 4;
  }
  if (tp != nullptr && telemetry_wanted()) {
    std::vector<telemetry::TraceThread> threads;
    threads.reserve(study.traces.size());
    for (const auto& [label, tracer] : study.traces) {
      threads.push_back({label, &tracer});
    }
    if (export_telemetry(study.metrics.snapshot(), threads) != 0) return 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull the global flags out, keep the rest positional.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) return usage();
      const long n = std::strtol(argv[++i], nullptr, 10);
      if (n < 1) return usage();
      g_threads = static_cast<std::size_t>(n);
      continue;
    }
    if (arg == "--seed") {
      if (i + 1 >= argc) return usage();
      char* end = nullptr;
      const long long n = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n < 0) return usage();
      g_seed = n;
      continue;
    }
    if (arg.starts_with("--telemetry=")) {
      g_telemetry_path = arg.substr(std::strlen("--telemetry="));
      if (g_telemetry_path.empty()) return usage();
      continue;
    }
    if (arg.starts_with("--trace=")) {
      g_trace_path = arg.substr(std::strlen("--trace="));
      if (g_trace_path.empty()) return usage();
      continue;
    }
    if (arg.starts_with("--coverage=")) {
      g_coverage_path = arg.substr(std::strlen("--coverage="));
      if (g_coverage_path.empty()) return usage();
      continue;
    }
    if (arg.starts_with("--baseline=")) {
      g_baseline_path = arg.substr(std::strlen("--baseline="));
      if (g_baseline_path.empty()) return usage();
      continue;
    }
    if (arg.starts_with("--log-level=")) {
      const auto level =
          util::parse_log_level(arg.substr(std::strlen("--log-level=")));
      if (!level.has_value()) return usage();
      util::set_log_level(*level);
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
  if (cmd == "classify") return cmd_classify();
  if (cmd == "taxonomy") return cmd_taxonomy();
  if (cmd == "corpus" && args.size() == 3) return cmd_corpus(args[1], args[2]);
  if (cmd == "mine" && args.size() == 2) return cmd_mine(args[1]);
  if (cmd == "simulate" && args.size() == 3)
    return cmd_simulate(args[1], args[2]);
  if (cmd == "matrix") return cmd_matrix();
  if (cmd == "report" && args.size() == 2) return cmd_report(args[1]);
  return usage();
}
