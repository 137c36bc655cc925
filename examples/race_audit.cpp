// Race audit: run the correctness-analysis layer against the study's fault
// specimens.
//
//   ./build/examples/race_audit --oracle          # full taxonomy cross-check
//   ./build/examples/race_audit [fault-id]        # audit one specimen
//   e.g. ./build/examples/race_audit mysql-edt-01
//
// Auditing one specimen runs a traced trial, replays the synchronization
// trace through the happens-before detector, and prints every racy access
// pair with both threads' event stacks, plus any transcript invariant
// violations. --oracle runs one traced trial per seed fault and prints the
// detector-vs-taxonomy confusion table.
#include <cstdio>
#include <cstring>
#include <span>

#include "analysis/invariant_checker.hpp"
#include "analysis/race_detector.hpp"
#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "recovery/rollback.hpp"
#include "report/oracle.hpp"

using namespace faultstudy;

namespace {

int run_oracle() {
  const auto seeds = corpus::all_seeds();
  std::printf("running traced trials for %zu specimens...\n\n", seeds.size());
  const auto report = harness::run_oracle_crosscheck(seeds);

  std::fputs(report::render_oracle_confusion(report).c_str(), stdout);
  std::printf("\nagreement: %.1f%% over %zu specimens\n",
              report.agreement() * 100.0, report.total());

  bool disagreed = false;
  for (const auto& row : report.rows) {
    if (row.race_labeled == row.detector_fired) continue;
    disagreed = true;
    std::printf("  DISAGREE %s (%s): %s\n", row.fault_id.c_str(),
                std::string(core::to_string(row.trigger)).c_str(),
                row.detector_fired ? "fired on a non-race label"
                                   : "race label but detector silent");
  }
  if (!disagreed) std::printf("no disagreements.\n");
  return report.agreement() >= 0.9 && report.ei_fired == 0 ? 0 : 2;
}

int audit(const corpus::SeedFault& seed) {
  std::printf("fault   : %s — %s\n", seed.fault_id.c_str(),
              seed.title.c_str());
  std::printf("trigger : %s\n",
              std::string(core::to_string(seed.trigger)).c_str());
  std::printf("class   : %s\n\n",
              std::string(core::to_string(corpus::seed_class(seed))).c_str());

  const auto plan = inject::plan_for(seed, 42);
  recovery::RollbackRetry mechanism;
  harness::TrialObservation observation;
  const auto outcome =
      harness::run_trial(plan, mechanism, {}, {.observation = &observation});

  std::printf("trial   : %s (%zu failures, %zu recoveries, %zu trace "
              "events)\n\n",
              outcome.survived ? "survived" : "not survived",
              outcome.failures, outcome.recoveries, observation.trace.size());

  analysis::RaceDetector detector;
  const auto races = detector.analyze(
      std::span<const env::TraceEvent>(observation.trace));
  if (races.empty()) {
    std::printf("happens-before detector: no races\n");
  } else {
    std::printf("happens-before detector: %zu racy access pair(s)\n\n",
                races.size());
    for (const auto& race : races) {
      std::fputs(analysis::to_string(
                     race, std::span<const env::TraceEvent>(observation.trace))
                     .c_str(),
                 stdout);
      std::fputs("\n", stdout);
    }
  }

  const auto violations = analysis::check_transcript(observation.transcript);
  if (violations.empty()) {
    std::printf("invariant checker: transcript clean\n");
  } else {
    std::printf("invariant checker: %zu violation(s)\n%s", violations.size(),
                analysis::to_string(std::span<const analysis::InvariantViolation>(
                                        violations))
                    .c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string arg = argc > 1 ? argv[1] : "--oracle";
  if (arg == "--oracle") return run_oracle();

  for (const auto& seed : corpus::all_seeds()) {
    if (seed.fault_id == arg) return audit(seed);
  }
  std::fprintf(stderr,
               "unknown fault id '%s'; known ids look like mysql-edt-01, "
               "gnome-edt-03 (or pass --oracle)\n",
               arg.c_str());
  return 1;
}
