// The benchmark's three workloads, built only from the library's public API.
//
//   study          what a user runs to reproduce the paper: three mining
//                  pipelines, the 2,502-trial matrix with telemetry,
//                  forensics and coverage attached, then the markdown
//                  report, on min(nproc, 4) lanes;
//   matrix_long    the bare matrix at one lane with 30 workload cycles per
//                  trial instead of 3, so items and per-item checkpoints
//                  dominate trial time;
//   mining_ingest  the `faultstudy_cli mine <dump-file>` path at one lane:
//                  parse tracker dumps and an mbox archive, mine them.
//
// Inputs come from the workload seed: seed s synthesizes corpora with
// corpus seed 20000625 + s and runs trials with trial seed 99 + s, so seed
// 0 is exactly the library's default study.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "corpus/mailinglist.hpp"
#include "corpus/tracker.hpp"
#include "harness/experiment.hpp"
#include "report/study_report.hpp"

namespace studybench {

enum class Workload { kStudy, kMatrixLong, kMiningIngest };

struct Config {
  Workload workload = Workload::kStudy;
  std::uint64_t seed = 0;
  std::size_t lanes = 1;
  bool trace = false;

  std::uint64_t corpus_seed() const noexcept { return 20000625 + seed; }
  std::uint64_t trial_seed() const noexcept { return 99 + seed; }
  std::size_t cycles() const noexcept {
    return workload == Workload::kMatrixLong ? 30 : 3;
  }
};

inline constexpr int kMatrixRepeats = 3;

/// What a workload builds before its timed passes.
struct Inputs {
  std::vector<faultstudy::corpus::SeedFault> seeds;
  std::vector<faultstudy::harness::NamedMechanism> roster;
  // study: synthesized corpora.
  std::optional<faultstudy::corpus::BugTracker> apache, gnome;
  std::optional<faultstudy::corpus::MailingList> mysql;
  // mining_ingest: the corpora serialized as dump files.
  std::string apache_dump, gnome_dump, mysql_mbox;
  /// Tracker reports plus mailing-list messages the workload mines.
  std::size_t reports = 0;

  std::size_t dump_bytes() const noexcept {
    return apache_dump.size() + gnome_dump.size() + mysql_mbox.size();
  }
};

/// Builds the inputs; with `traced`, corpus synthesis and serialization
/// run under spans.
Inputs make_inputs(const Config& config, bool traced);

/// Mining funnel counts, summed over the three corpora.
struct MiningCounts {
  std::size_t candidates = 0;  ///< reports/threads handed to deduplication
  std::size_t clusters = 0;
  std::size_t unique_bugs = 0;
  /// One line per corpus: every funnel stage's count.
  std::string funnel;
};

struct PassResult {
  /// Canonical output; identical on every pass of a run. Study: the
  /// markdown report; matrix_long: the survival table; mining_ingest: the
  /// funnels, classified bugs and class counts.
  std::string output;
  double matrix_s = 0;  ///< wall time of the run_matrix call
  std::array<faultstudy::core::ClassCounts, 3> tables{};  ///< AppId order
  MiningCounts mining;
  /// Traced passes: the pipelines' own stage spans (mine/filter,
  /// mine/keyword, mine/dedup, mine/classify) summed over the three
  /// pipelines, in ms, keyed by metric name ("mining.dedup_ms").
  std::map<std::string, double> stage_ms;
  /// study only: the results the report was rendered from.
  std::optional<faultstudy::report::StudyResults> study;
};

/// One pass of the workload on `lanes` lanes. With `traced`, every public
/// call runs under a span, the matrix runs a timed roster, and each mining
/// pipeline gets a telemetry::PipelineTelemetry through its public
/// PipelineOptions, whose stage spans fill `stage_ms`.
PassResult run_pass(const Config& config, const Inputs& inputs, bool traced,
                    std::size_t lanes);

/// The bare matrix (no observers) with the study's seed and lanes; returns
/// its wall time in seconds.
double run_bare_matrix(const Config& config, const Inputs& inputs);

/// inject::plan_for over every trial of the matrix, under one span.
void replay_injection_plans(const Config& config, const Inputs& inputs);

/// Environment + make_app + SimApp::start per app, `calls` times each,
/// one span per call. False if an app failed to start.
bool microbench_app_start(int calls);

/// Span names of the layer calls, interned once.
struct LayerSpanNames {
  std::uint16_t pass, synth, serialize, parse, mining[3], matrix, export_,
      triage, render, plan, app_start[3];
};
const LayerSpanNames& layer_span_names();

/// Paper Tables 1-3: (EI, EDN, EDT) per app, AppId order.
std::array<faultstudy::core::ClassCounts, 3> paper_tables();

}  // namespace studybench
