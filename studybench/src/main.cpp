// studybench — the study benchmark.
//
//   studybench --workload <study|matrix_long|mining_ingest> --seed <n>
//              --seconds <s> --trace <0|1> --root <repository root>
//
// Builds the workload's inputs from the seed (several times, timing each),
// runs one untimed warm-up pass, then repeats passes for --seconds and
// reports medians. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics the traced passes' spans give, plus the tracing
// overhead. Every pass's output is checked; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "obs/baseline.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "timed_mechanism.hpp"
#include "workloads.hpp"

#ifndef STUDYBENCH_BUILD_TYPE
#define STUDYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef STUDYBENCH_COMPILER
#define STUDYBENCH_COMPILER "unknown"
#endif

namespace {

namespace fs = faultstudy;
using namespace studybench;
using Metrics = std::map<std::string, double>;

struct Unit {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0). BENCHMARK.json lists the same names.
// wall_rel and cpu_rel are a pass's wall and CPU time over the reference
// workload's, timed beside it (reference.hpp); the seconds are in the
// human-readable report.
constexpr Unit kEndToEnd[] = {
    {"setup_s", "s"},      {"wall_rel", "ratio"},   {"cpu_rel", "ratio"},
    {"peak_rss_mb", "MB"}, {"alloc_count", "count"},
};

// Per-layer metrics (--trace 1). A layer that does no work on a workload
// reports 0 there.
constexpr Unit kPerLayer[] = {
    {"corpus.synth_ms", "ms"},
    {"corpus.parse_ms", "ms"},
    {"corpus.parse_mb_per_s", "MB/s"},
    {"mining.apache_ms", "ms"},
    {"mining.gnome_ms", "ms"},
    {"mining.mysql_ms", "ms"},
    {"mining.filter_ms", "ms"},
    {"mining.keyword_ms", "ms"},
    {"mining.dedup_ms", "ms"},
    {"mining.classify_ms", "ms"},
    {"mining.candidates", "count"},
    {"mining.clusters", "count"},
    {"mining.unique_bugs", "count"},
    {"mining.unique_ratio", "ratio"},
    {"mining.allocs", "count"},
    {"inject.plan_ms", "ms"},
    {"apps.start_ms", "ms"},
    {"apps.start_allocs", "count"},
    {"apps.items_ms", "ms"},
    {"apps.items_ok", "count"},
    {"apps.apache.start_us", "us"},
    {"apps.gnome.start_us", "us"},
    {"apps.mysql.start_us", "us"},
    {"recovery.attach_ms", "ms"},
    {"recovery.checkpoint_ms", "ms"},
    {"recovery.checkpoint_calls", "count"},
    {"recovery.checkpoint_allocs", "count"},
    {"recovery.recover_ms", "ms"},
    {"recovery.recover_calls", "count"},
    {"recovery.recover_p99_us", "us"},
    {"recovery.recovered_ratio", "ratio"},
    {"recovery.process-pairs.recover_ms", "ms"},
    {"recovery.rollback-retry.recover_ms", "ms"},
    {"recovery.progressive-retry.recover_ms", "ms"},
    {"recovery.cold-restart.recover_ms", "ms"},
    {"recovery.rejuvenation.recover_ms", "ms"},
    {"recovery.app-specific.recover_ms", "ms"},
    {"harness.trials", "count"},
    {"harness.start_failures", "count"},
    {"harness.trial_p50_us", "us"},
    {"harness.trial_p99_us", "us"},
    {"harness.serial_tail_ms", "ms"},
    {"pool.lane_busy_ratio", "ratio"},
    {"pool.straggler_ms", "ms"},
    {"observe.matrix_ratio", "ratio"},
    {"forensics.triage_ms", "ms"},
    {"obs.export_ms", "ms"},
    {"report.render_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

// --- small helpers ----------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// VmHWM of this process. getrusage's ru_maxrss is not used: Linux keeps
/// it across execve, so it would report the launching process's peak when
/// that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kStudy: return "study";
    case Workload::kMatrixLong: return "matrix_long";
    case Workload::kMiningIngest: return "mining_ingest";
  }
  return "?";
}

// --- output checks ----------------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::fprintf(stderr, "studybench: check failed: %s\n", what.c_str());
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

bool tables_match(const std::array<fs::core::ClassCounts, 3>& got,
                  const std::array<fs::core::ClassCounts, 3>& want) {
  for (std::size_t i = 0; i < 3; ++i) {
    if (got[i].counts != want[i].counts) return false;
  }
  return true;
}

/// Study checks outside the timed passes. The report must not depend on
/// the lane count. At the default inputs (seed 0) the composed study must
/// equal the library's own generate_study_report() and show no fatal drift
/// against the committed baseline: that baseline is a snapshot of the
/// seed-0 study, and at other trial seeds single EDT faults flip (1 of 12
/// is an 8.3% rate shift, beyond the gate's 5% band), so the drift gate is
/// only a valid check at its own seed.
void check_study(const Config& config, const Inputs& inputs,
                 const PassResult& reference, const std::string& root,
                 Checks& checks) {
  if (config.lanes > 1) {
    const PassResult one_lane = run_pass(config, inputs, false, 1);
    checks.expect(one_lane.output == reference.output,
                  "1-lane report is byte-identical to the " +
                      std::to_string(config.lanes) + "-lane report");
  }

  Config defaults = config;
  defaults.seed = 0;
  std::optional<Inputs> default_inputs;
  std::optional<PassResult> default_pass;
  if (config.seed != 0) {
    default_inputs = make_inputs(defaults, false);
    default_pass = run_pass(defaults, *default_inputs, false, config.lanes);
  }
  const PassResult& at_default = config.seed != 0 ? *default_pass : reference;
  const Inputs& seeds = config.seed != 0 ? *default_inputs : inputs;

  std::ifstream in(root + "/baselines/study_baseline.json", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  const auto baseline = fs::obs::parse_snapshot(text.str());
  checks.expect(in.good() && baseline.ok(), "baseline snapshot loads");
  if (baseline.ok()) {
    const fs::report::StudyResults& r = *at_default.study;
    const auto candidate = fs::obs::build_snapshot(
        seeds.seeds, r.matrix, r.coverage, r.telemetry, defaults.trial_seed(),
        kMatrixRepeats);
    const auto drift = fs::obs::diff(baseline.value(), candidate);
    if (drift.regressed()) {
      std::fputs(fs::obs::render_text(drift).c_str(), stderr);
    }
    checks.expect(!drift.regressed(),
                  "seed-0 study has no fatal drift against the baseline");
  }

  setenv("FAULTSTUDY_THREADS", std::to_string(config.lanes).c_str(), 1);
  checks.expect(fs::report::generate_study_report() == at_default.output,
                "composed seed-0 study equals generate_study_report()");
}

// --- per-layer metrics from one traced pass ---------------------------------

Metrics pass_layer_metrics(const std::vector<spans::Span>& all,
                           const Config& config, const PassResult& pass,
                           std::size_t dump_bytes) {
  const auto& t = trial_span_names();
  const auto& n = layer_span_names();
  const auto self = spans::self_times(all);

  struct Totals {
    double count = 0, ns = 0, self_ns = 0, allocs = 0;
  };
  std::map<std::uint16_t, Totals> by_name;
  std::vector<double> trial_us, recover_us;
  double recovered = 0, trial_ns = 0;
  std::int64_t last_trial_end = 0;
  std::map<std::uint16_t, std::int64_t> lane_last_end;
  const spans::Span* matrix = nullptr;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const spans::Span& s = all[i];
    Totals& tot = by_name[s.name];
    tot.count += 1;
    tot.ns += static_cast<double>(s.duration_ns());
    tot.self_ns += static_cast<double>(self[i]);
    tot.allocs += static_cast<double>(s.allocs);
    if (s.name == t.trial || s.name == t.start_failure) {
      trial_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
      trial_ns += static_cast<double>(s.duration_ns());
      last_trial_end = std::max(last_trial_end, s.end_ns);
      auto& lane_end = lane_last_end[s.lane];
      lane_end = std::max(lane_end, s.end_ns);
    } else if (spans::name_of(s.name).starts_with("recover.")) {
      recover_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
      recovered += s.value;
    } else if (s.name == n.matrix) {
      matrix = &s;
    }
  }
  const auto get = [&](std::uint16_t name) { return by_name[name]; };

  Metrics m;
  m["harness.trials"] = get(t.trial).count + get(t.start_failure).count;
  m["harness.start_failures"] = get(t.start_failure).count;
  m["harness.trial_p50_us"] = percentile(trial_us, 0.50);
  m["harness.trial_p99_us"] = percentile(trial_us, 0.99);
  m["apps.start_ms"] = get(t.start).ns / 1e6;
  m["apps.start_allocs"] = get(t.start).allocs;
  m["apps.items_ms"] = get(t.trial).self_ns / 1e6;
  m["apps.items_ok"] = get(t.checkpoint).count;
  m["recovery.attach_ms"] = get(t.attach).ns / 1e6;
  m["recovery.checkpoint_ms"] = get(t.checkpoint).ns / 1e6;
  m["recovery.checkpoint_calls"] = get(t.checkpoint).count;
  m["recovery.checkpoint_allocs"] = get(t.checkpoint).allocs;
  double recover_ns = 0;
  for (const char* mech : {"process-pairs", "rollback-retry",
                           "progressive-retry", "cold-restart", "rejuvenation",
                           "app-specific"}) {
    const double ns = get(recover_span_name(mech)).ns;
    m["recovery." + std::string(mech) + ".recover_ms"] = ns / 1e6;
    recover_ns += ns;
  }
  m["recovery.recover_ms"] = recover_ns / 1e6;
  m["recovery.recover_calls"] = static_cast<double>(recover_us.size());
  m["recovery.recover_p99_us"] = percentile(recover_us, 0.99);
  m["recovery.recovered_ratio"] =
      ratio(recovered, static_cast<double>(recover_us.size()));
  if (matrix != nullptr && !trial_us.empty()) {
    m["harness.serial_tail_ms"] =
        static_cast<double>(matrix->end_ns - last_trial_end) / 1e6;
    const double parallel_ns =
        static_cast<double>(last_trial_end - matrix->start_ns);
    const std::size_t lanes =
        config.workload == Workload::kStudy ? config.lanes : 1;
    m["pool.lane_busy_ratio"] =
        ratio(trial_ns, static_cast<double>(lanes) * parallel_ns);
    std::int64_t first_idle = last_trial_end;
    for (const auto& [lane, end] : lane_last_end) {
      first_idle = std::min(first_idle, end);
    }
    m["pool.straggler_ms"] =
        static_cast<double>(last_trial_end - first_idle) / 1e6;
  }
  const char* apps[] = {"apache", "gnome", "mysql"};
  double mining_allocs = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    m["mining." + std::string(apps[a]) + "_ms"] = get(n.mining[a]).ns / 1e6;
    mining_allocs += get(n.mining[a]).allocs;
  }
  m["mining.allocs"] = mining_allocs;
  for (const auto& [name, ms] : pass.stage_ms) m[name] = ms;
  m["mining.candidates"] = static_cast<double>(pass.mining.candidates);
  m["mining.clusters"] = static_cast<double>(pass.mining.clusters);
  m["mining.unique_bugs"] = static_cast<double>(pass.mining.unique_bugs);
  m["mining.unique_ratio"] =
      ratio(static_cast<double>(pass.mining.unique_bugs),
            static_cast<double>(pass.mining.candidates));
  m["corpus.parse_ms"] = get(n.parse).ns / 1e6;
  m["corpus.parse_mb_per_s"] =
      ratio(static_cast<double>(dump_bytes) / 1e6, get(n.parse).ns / 1e9);
  m["forensics.triage_ms"] = get(n.triage).ns / 1e6;
  m["obs.export_ms"] = get(n.export_).ns / 1e6;
  m["report.render_ms"] = get(n.render).ns / 1e6;
  m["trace.spans"] = static_cast<double>(all.size());
  return m;
}

/// Per-call numbers from the replays and microbenchmarks.
Metrics replay_layer_metrics(const std::vector<spans::Span>& all) {
  const auto& n = layer_span_names();
  std::map<std::uint16_t, std::vector<double>> durations;
  for (const spans::Span& s : all) {
    durations[s.name].push_back(static_cast<double>(s.duration_ns()));
  }
  const auto total_ms = [&](std::uint16_t name) {
    double sum = 0;
    for (double d : durations[name]) sum += d;
    return sum / 1e6;
  };
  Metrics m;
  m["inject.plan_ms"] = total_ms(n.plan);
  const char* apps[] = {"apache", "gnome", "mysql"};
  for (std::size_t a = 0; a < 3; ++a) {
    m["apps." + std::string(apps[a]) + ".start_us"] =
        median(durations[n.app_start[a]]) / 1e3;
  }
  return m;
}

// --- output -------------------------------------------------------------------

/// Spans of one traced pass by name: calls, total and self time, and
/// allocations, largest self time first.
void print_self_times(const std::vector<spans::Span>& all) {
  struct Row {
    double calls = 0, total_ms = 0, self_ms = 0, allocs = 0;
  };
  const auto self = spans::self_times(all);
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Row& row = rows[spans::name_of(all[i].name)];
    row.calls += 1;
    row.total_ms += static_cast<double>(all[i].duration_ns()) / 1e6;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
    row.allocs += static_cast<double>(all[i].allocs);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::printf("self time by span, last traced pass:\n");
  std::printf("  %-32s %10s %12s %12s %12s\n", "span", "calls", "total_ms",
              "self_ms", "allocs");
  for (const auto& [name, row] : sorted) {
    std::printf("  %-32s %10.0f %12.3f %12.3f %12.0f\n", name.c_str(),
                row.calls, row.total_ms, row.self_ms, row.allocs);
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(const Checks& checks, const Metrics& metrics,
                  bool per_layer) {
  std::string out = "{\"correct\": ";
  out += checks.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Unit& u) {
    const auto it = metrics.find(u.name);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + std::string(u.name) + "\": {\"value\": " +
           json_number(it == metrics.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + u.unit + "\"}";
  };
  if (per_layer) {
    for (const Unit& u : kPerLayer) emit(u);
  } else {
    for (const Unit& u : kEndToEnd) emit(u);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "studybench: %s\n"
               "usage: studybench --workload <study|matrix_long|mining_ingest>"
               " --seed <n> --seconds <s> --trace <0|1> --root <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  double seconds = 10;
  std::string root = ".";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = true;
      if (value == "study") {
        config.workload = Workload::kStudy;
      } else if (value == "matrix_long") {
        config.workload = Workload::kMatrixLong;
      } else if (value == "mining_ingest") {
        config.workload = Workload::kMiningIngest;
      } else {
        return usage("unknown workload");
      }
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed");
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(seconds > 0) ||
          seconds > 600) {
        return usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      config.trace = value == "1";
    } else if (key == "--root") {
      root = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (!have_workload) return usage("--workload is required");

  const std::size_t cores = nproc();
  config.lanes =
      config.workload == Workload::kStudy ? std::min<std::size_t>(cores, 4) : 1;
  (void)layer_span_names();
  (void)trial_span_names();

  std::printf(
      "studybench header {\"workload\": \"%s\", \"seed\": %llu, "
      "\"corpus_seed\": %llu, \"trial_seed\": %llu, \"cycles\": %zu, "
      "\"nproc\": %zu, \"lanes\": %zu, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"trace\": %d, \"seconds\": %g}\n",
      workload_name(config.workload),
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(config.corpus_seed()),
      static_cast<unsigned long long>(config.trial_seed()), config.cycles(),
      cores, config.lanes, STUDYBENCH_BUILD_TYPE, STUDYBENCH_COMPILER,
      config.trace ? 1 : 0, seconds);

  Checks checks;

  // Set-up is everything before the first timed pass: building the inputs
  // (several times; the median counts, the last inputs are kept) and the
  // warm-up pass, where lazy one-time initialization in the library lands.
  const int setups = 7;
  std::vector<double> setup_times, synth_ms;
  Inputs inputs;
  for (int i = 0; i < setups; ++i) {
    inputs = Inputs{};
    const double t0 = now_s();
    inputs = make_inputs(config, config.trace);
    setup_times.push_back(now_s() - t0);
    if (config.trace) {
      for (const auto& s : spans::drain()) {
        if (s.name == layer_span_names().synth) {
          synth_ms.push_back(static_cast<double>(s.duration_ns()) / 1e6);
        }
      }
    }
  }

  // Warm-up: lazy library state settles; its output is what every later
  // pass must reproduce byte for byte.
  const double warm_up_started = now_s();
  const PassResult expected = run_pass(config, inputs, false, config.lanes);
  const double warm_up_s = now_s() - warm_up_started;
  const double setup_s = median(setup_times) + warm_up_s;
  if (config.workload != Workload::kMatrixLong) {
    checks.expect(tables_match(expected.tables, paper_tables()),
                  "class counts equal paper Tables 1-3");
  }

  std::vector<double> walls, cpus, allocs, matrix_walls;
  std::vector<double> wall_rels, cpu_rels, reference_walls;
  std::vector<double> traced_walls, bare_matrix_walls;
  std::vector<Metrics> traced_metrics;
  std::vector<spans::Span> last_spans;
  // Set-up and the warm-up pass have run the workload once: its peak. Read
  // it before the reference workload first runs, and before the checks
  // below build more inputs and study results.
  const double peak_rss = peak_rss_mb();

  // Untraced runs time the reference before the first pass and after each
  // pass; a pass is divided by the mean of the two references around it.
  ReferenceTime before;
  if (!config.trace) before = time_reference(config.lanes);
  const double started = now_s();
  while (now_s() - started < seconds || walls.size() < 3) {
    const double c0 = cpu_s();
    const std::uint64_t a0 = total_allocs();
    const double t0 = now_s();
    const PassResult pass = run_pass(config, inputs, false, config.lanes);
    const double wall = now_s() - t0;
    const double cpu = cpu_s() - c0;
    const std::uint64_t made = total_allocs() - a0;
    walls.push_back(wall);
    cpus.push_back(cpu);
    allocs.push_back(static_cast<double>(made));
    matrix_walls.push_back(pass.matrix_s);
    checks.expect(pass.output == expected.output,
                  "pass output identical to the warm-up pass");
    if (!config.trace) {
      const ReferenceTime after = time_reference(config.lanes);
      wall_rels.push_back(wall / ((before.wall_s + after.wall_s) / 2));
      cpu_rels.push_back(cpu / ((before.cpu_s + after.cpu_s) / 2));
      reference_walls.push_back(after.wall_s);
      before = after;
      continue;
    }

    const double t1 = now_s();
    const PassResult traced = run_pass(config, inputs, true, config.lanes);
    traced_walls.push_back(now_s() - t1);
    checks.expect(traced.output == expected.output,
                  "traced pass output identical to the untraced pass");
    last_spans = spans::drain();
    traced_metrics.push_back(
        pass_layer_metrics(last_spans, config, traced, inputs.dump_bytes()));
    if (config.workload == Workload::kStudy) {
      bare_matrix_walls.push_back(run_bare_matrix(config, inputs));
    }
  }


  // Exact counts must repeat: allocations on one lane, the trial-level
  // counts of every traced pass.
  if (config.lanes == 1) {
    checks.expect(std::all_of(allocs.begin(), allocs.end(),
                              [&](double a) { return a == allocs.front(); }),
                  "1-lane alloc_count repeats exactly across passes");
  }
  if (config.workload == Workload::kStudy) {
    check_study(config, inputs, expected, root, checks);
  }

  Metrics metrics;
  if (!config.trace) {
    metrics["setup_s"] = setup_s;
    metrics["wall_rel"] = median(wall_rels);
    metrics["cpu_rel"] = median(cpu_rels);
    metrics["peak_rss_mb"] = peak_rss;
    metrics["alloc_count"] = median(allocs);
  } else {
    for (const char* exact :
         {"harness.trials", "harness.start_failures",
          "recovery.recover_calls", "recovery.checkpoint_calls",
          "mining.candidates", "mining.clusters", "mining.unique_bugs"}) {
      bool same = true;
      for (const Metrics& m : traced_metrics) {
        same = same && m.at(exact) == traced_metrics.front().at(exact);
      }
      checks.expect(same, std::string(exact) + " repeats across traced passes");
    }
    if (config.workload != Workload::kMiningIngest) {
      const double expected = static_cast<double>(
          inputs.seeds.size() * inputs.roster.size() * kMatrixRepeats);
      checks.expect(traced_metrics.front().at("harness.trials") == expected,
                    "timed roster saw every matrix trial");
    }
    for (const Unit& u : kPerLayer) {
      std::vector<double> values;
      for (const Metrics& m : traced_metrics) {
        const auto it = m.find(u.name);
        if (it != m.end()) values.push_back(it->second);
      }
      if (!values.empty()) metrics[u.name] = median(values);
    }
    metrics["corpus.synth_ms"] = median(synth_ms);
    metrics["trace.overhead_ratio"] = ratio(median(traced_walls), median(walls));
    if (config.workload == Workload::kStudy) {
      metrics["observe.matrix_ratio"] =
          ratio(median(matrix_walls), median(bare_matrix_walls));
    }

    // Replays and microbenchmarks, outside the timed passes.
    if (config.workload != Workload::kMiningIngest) {
      replay_injection_plans(config, inputs);
      checks.expect(microbench_app_start(config.workload == Workload::kStudy
                                             ? 200
                                             : 100),
                    "every app starts in a fresh environment");
    }
    for (const auto& [name, value] : replay_layer_metrics(spans::drain())) {
      if (value != 0) metrics[name] = value;
    }

    const std::string out_dir = root + "/.bench_out";
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path =
        out_dir + "/spans-" + workload_name(config.workload) + ".tsv";
    if (spans::write_tsv(path, last_spans)) {
      std::printf("spans of the last traced pass: %s (%zu spans)\n",
                  path.c_str(), last_spans.size());
    }
  }

  // Human-readable report: every metric by name and unit.
  const double wall = median(walls);
  std::printf("wall_s          %.6f s (median of %zu; p10 %.6f, p90 %.6f)\n",
              wall, walls.size(), percentile(walls, 0.1),
              percentile(walls, 0.9));
  std::printf("cpu_s           %.6f s\n", median(cpus));
  if (!config.trace) {
    std::printf("reference       %.6f s (median wall time, %zu lanes)\n",
                median(reference_walls), config.lanes);
    std::printf("wall_rel        %.6f ratio\n", median(wall_rels));
    std::printf("cpu_rel         %.6f ratio\n", median(cpu_rels));
  }
  std::printf("setup_s         %.6f s (inputs %.6f s, median of %d; warm-up "
              "pass %.6f s)\n",
              setup_s, median(setup_times), setups, warm_up_s);
  std::printf("peak_rss_mb     %.1f MB\n", peak_rss);
  std::printf("alloc_count     %.0f count\n", median(allocs));
  if (config.workload != Workload::kMiningIngest) {
    std::printf("trials_per_s    %.1f 1/s\n",
                ratio(static_cast<double>(inputs.seeds.size() *
                                          inputs.roster.size() *
                                          kMatrixRepeats),
                      wall));
  }
  if (config.workload != Workload::kMatrixLong) {
    std::printf("reports_per_s   %.1f 1/s\n",
                ratio(static_cast<double>(inputs.reports), wall));
  }
  std::printf("check_fail_ratio %.6f ratio (%zu of %zu checks failed)\n",
              ratio(static_cast<double>(checks.failed()),
                    static_cast<double>(checks.attempted())),
              checks.failed(), checks.attempted());
  if (!expected.mining.funnel.empty()) {
    std::printf("mining funnel (exact counts):\n%s",
                expected.mining.funnel.c_str());
  }
  if (config.trace) {
    print_self_times(last_spans);
    for (const Unit& u : kPerLayer) {
      std::printf("%-40s %.6f %s\n", u.name,
                  metrics.count(u.name) ? metrics[u.name] : 0.0, u.unit);
    }
    const double trial_ms = metrics["apps.start_ms"] +
                            metrics["apps.items_ms"] +
                            metrics["recovery.attach_ms"] +
                            metrics["recovery.checkpoint_ms"] +
                            metrics["recovery.recover_ms"];
    if (trial_ms > 0) {
      std::printf(
          "trial time split: recover %.1f%%, start %.1f%%, items %.1f%%, "
          "checkpoint %.1f%%, attach %.1f%%\n",
          100 * metrics["recovery.recover_ms"] / trial_ms,
          100 * metrics["apps.start_ms"] / trial_ms,
          100 * metrics["apps.items_ms"] / trial_ms,
          100 * metrics["recovery.checkpoint_ms"] / trial_ms,
          100 * metrics["recovery.attach_ms"] / trial_ms);
    }
  }
  print_result(checks, metrics, config.trace);
  return checks.failed() == 0 ? 0 : 1;
}
