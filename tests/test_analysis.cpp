// Tests for the correctness-analysis layer: the vector-clock happens-before
// race detector, the transcript invariant checker, and the detector-vs-
// taxonomy oracle cross-check.
#include <gtest/gtest.h>

#include <span>

#include "analysis/invariant_checker.hpp"
#include "analysis/race_detector.hpp"
#include "analysis/vector_clock.hpp"
#include "corpus/seeds.hpp"
#include "env/interleave.hpp"
#include "harness/experiment.hpp"
#include "recovery/rollback.hpp"
#include "report/oracle.hpp"

using namespace faultstudy;
using analysis::InvariantRule;
using analysis::RaceDetector;
using analysis::VectorClock;
using env::TraceEvent;
using env::TraceLog;
using env::TraceOp;
using harness::EventKind;

namespace {

const corpus::SeedFault& find_seed(const std::string& fault_id) {
  static const auto seeds = corpus::all_seeds();
  for (const auto& s : seeds) {
    if (s.fault_id == fault_id) return s;
  }
  ADD_FAILURE() << "unknown seed " << fault_id;
  return seeds.front();
}

std::vector<analysis::RaceReport> analyze_trial(const std::string& fault_id,
                                                std::uint64_t seed,
                                                std::size_t* trace_events =
                                                    nullptr) {
  const auto plan = inject::plan_for(find_seed(fault_id), seed);
  recovery::RollbackRetry mechanism;
  harness::TrialConfig config;
  config.seed = seed;
  harness::TrialObservation observation;
  harness::run_trial(plan, mechanism, config,
                     {.observation = &observation});
  if (trace_events != nullptr) *trace_events = observation.trace.size();
  RaceDetector detector;
  return detector.analyze(std::span<const TraceEvent>(observation.trace));
}

}  // namespace

// ---------------------------------------------------------------- clocks --

TEST(VectorClockTest, JoinTakesPointwiseMax) {
  VectorClock a;
  a.set(0, 3);
  a.set(2, 1);
  VectorClock b;
  b.set(0, 1);
  b.set(1, 5);
  a.join(b);
  EXPECT_EQ(a.get(0), 3u);
  EXPECT_EQ(a.get(1), 5u);
  EXPECT_EQ(a.get(2), 1u);
}

TEST(VectorClockTest, OrderedBeforeMe) {
  VectorClock vc;
  vc.set(1, 4);
  EXPECT_TRUE(vc.ordered_before_me(1, 4));
  EXPECT_TRUE(vc.ordered_before_me(1, 3));
  EXPECT_FALSE(vc.ordered_before_me(1, 5));
  EXPECT_FALSE(vc.ordered_before_me(7, 1));  // unknown thread: clock 0
}

TEST(VectorClockTest, BumpAdvancesOwnComponent) {
  VectorClock vc;
  EXPECT_EQ(vc.bump(3), 1u);
  EXPECT_EQ(vc.bump(3), 2u);
  EXPECT_EQ(vc.get(3), 2u);
}

// -------------------------------------------------------- race detection --

TEST(RaceDetectorTest, UnsynchronizedWritesRace) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kWrite, 7, 0, "thread 1 writes");
  log.record(2, TraceOp::kWrite, 7, 0, "thread 2 writes");
  RaceDetector detector;
  const auto reports = detector.analyze(log);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].object, 7u);
  EXPECT_EQ(reports[0].first.thread, 1u);
  EXPECT_EQ(reports[0].second.thread, 2u);
}

TEST(RaceDetectorTest, ReadWriteRace) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kRead, 7, 0);
  log.record(2, TraceOp::kWrite, 7, 0);
  RaceDetector detector;
  EXPECT_EQ(detector.analyze(log).size(), 1u);
}

TEST(RaceDetectorTest, ReadReadDoesNotConflict) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kRead, 7, 0);
  log.record(2, TraceOp::kRead, 7, 0);
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, SameThreadIsProgramOrdered) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(1, TraceOp::kRead, 7, 0);
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, CommonLockOrdersAccesses) {
  TraceLog log;
  log.enable();
  for (env::ThreadId t : {1u, 2u}) {
    log.record(t, TraceOp::kLock, 100, 0);
    log.record(t, TraceOp::kWrite, 7, 0);
    log.record(t, TraceOp::kUnlock, 100, 0);
  }
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, DistinctLocksDoNotOrder) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kLock, 100, 0);
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(1, TraceOp::kUnlock, 100, 0);
  log.record(2, TraceOp::kLock, 101, 0);
  log.record(2, TraceOp::kWrite, 7, 0);
  log.record(2, TraceOp::kUnlock, 101, 0);
  RaceDetector detector;
  const auto reports = detector.analyze(log);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].first.locks_held.size(), 1u);
  ASSERT_EQ(reports[0].second.locks_held.size(), 1u);
  EXPECT_EQ(reports[0].first.locks_held[0], 100u);
  EXPECT_EQ(reports[0].second.locks_held[0], 101u);
}

TEST(RaceDetectorTest, ForkJoinOrder) {
  TraceLog log;
  log.enable();
  log.record(0, TraceOp::kWrite, 7, 0);  // parent writes...
  log.record(0, TraceOp::kFork, 1, 0);   // ...then starts the child
  log.record(1, TraceOp::kWrite, 7, 0);  // ordered after the parent's write
  log.record(0, TraceOp::kJoin, 1, 0);
  log.record(0, TraceOp::kRead, 7, 0);  // ordered after the child's write
  RaceDetector detector;
  EXPECT_TRUE(detector.analyze(log).empty());
}

TEST(RaceDetectorTest, SiblingsAfterForkStillRace) {
  TraceLog log;
  log.enable();
  log.record(0, TraceOp::kFork, 1, 0);
  log.record(0, TraceOp::kFork, 2, 0);
  log.record(1, TraceOp::kWrite, 7, 0);
  log.record(2, TraceOp::kWrite, 7, 0);
  RaceDetector detector;
  EXPECT_EQ(detector.analyze(log).size(), 1u);
}

TEST(RaceDetectorTest, DedupesRepeatedPairs) {
  TraceLog log;
  log.enable();
  for (int i = 0; i < 10; ++i) {
    log.record(1, TraceOp::kWrite, 7, 0);
    log.record(2, TraceOp::kWrite, 7, 0);
  }
  RaceDetector detector;
  EXPECT_EQ(detector.analyze(log).size(), 1u);
}

TEST(RaceDetectorTest, ReportCarriesHistoryAndRenders) {
  TraceLog log;
  log.enable();
  log.record(1, TraceOp::kLock, 100, 0);
  log.record(1, TraceOp::kUnlock, 100, 0);
  log.record(1, TraceOp::kWrite, 7, 0, "the racy store");
  log.record(2, TraceOp::kWrite, 7, 0, "the racy rival");
  RaceDetector detector;
  const auto reports = detector.analyze(log);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].first.history.size(), 2u);  // lock + unlock
  const std::string text = analysis::to_string(
      reports[0], std::span<const TraceEvent>(log.events()));
  EXPECT_NE(text.find("the racy store"), std::string::npos);
  EXPECT_NE(text.find("the racy rival"), std::string::npos);
  EXPECT_NE(text.find("events leading here"), std::string::npos);
}

// ------------------------------------- structural interleaving coverage --

TEST(StructuralTraceTest, BuggyShapeRacesAtEveryPosition) {
  env::TwoThreadShape shape;
  shape.a_steps = 10;
  shape.unguarded_at = 5;
  shape.async_locked = false;
  for (int position = 0; position <= shape.a_steps; ++position) {
    TraceLog log;
    log.enable();
    env::emit_two_thread_trace(log, 0, shape, position);
    RaceDetector detector;
    EXPECT_FALSE(detector.analyze(log).empty())
        << "buggy shape must race with B at position " << position;
  }
}

TEST(StructuralTraceTest, FixedShapeRaceFreeAtEveryPosition) {
  env::TwoThreadShape shape;
  shape.a_steps = 10;
  shape.unguarded_at = -1;  // no unguarded gap
  shape.async_locked = true;
  for (int position = 0; position <= shape.a_steps; ++position) {
    TraceLog log;
    log.enable();
    env::emit_two_thread_trace(log, 0, shape, position);
    RaceDetector detector;
    EXPECT_TRUE(detector.analyze(log).empty())
        << "fixed shape must be race-free with B at position " << position;
  }
}

TEST(StructuralTraceTest, TracedOverloadDrawsExactlyLikeUntraced) {
  env::Scheduler a(123);
  env::Scheduler b(123);
  TraceLog log;  // disabled: emission is a no-op but draws must still match
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(env::signal_mask_race(a, 12, 5),
              env::signal_mask_race(b, log, 0, 12, 5));
  }
}

TEST(StructuralTraceTest, DetectorDeterministicUnderFixedSeed) {
  std::size_t events_a = 0;
  std::size_t events_b = 0;
  const auto first = analyze_trial("mysql-edt-01", 7, &events_a);
  const auto second = analyze_trial("mysql-edt-01", 7, &events_b);
  EXPECT_EQ(events_a, events_b);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].object, second[i].object);
    EXPECT_EQ(first[i].first.event_index, second[i].first.event_index);
    EXPECT_EQ(first[i].second.event_index, second[i].second.event_index);
  }
}

// ------------------------------------------------- app-emitted specimens --

TEST(SpecimenRaceTest, RealizedRacesFireDetector) {
  for (const char* fault_id : {"mysql-edt-01", "gnome-edt-03"}) {
    EXPECT_FALSE(analyze_trial(fault_id, 11).empty())
        << fault_id << " must light up the happens-before detector";
  }
}

TEST(SpecimenRaceTest, GenericRacesFireDetector) {
  for (const char* fault_id : {"mysql-edt-02", "gnome-edt-02"}) {
    EXPECT_FALSE(analyze_trial(fault_id, 11).empty())
        << fault_id << " must light up the happens-before detector";
  }
}

TEST(SpecimenRaceTest, DeterministicFaultsStaySilent) {
  for (const char* fault_id :
       {"apache-ei-01", "mysql-ei-02", "gnome-ei-01", "apache-edn-02"}) {
    std::size_t events = 0;
    EXPECT_TRUE(analyze_trial(fault_id, 11, &events).empty())
        << fault_id << " must not fire the detector";
    // The silence is meaningful: the fixed program's synchronized traces
    // were actually analyzed, not skipped.
    EXPECT_GT(events, 0u) << fault_id;
  }
}

TEST(SpecimenRaceTest, UntracedTrialUnperturbed) {
  // Enabling tracing must not change trial outcomes: same draws, same
  // verdicts.
  for (const char* fault_id : {"mysql-edt-01", "gnome-edt-02", "apache-ei-01"}) {
    const auto plan = inject::plan_for(find_seed(fault_id), 99);
    harness::TrialConfig config;
    config.seed = 99;
    recovery::RollbackRetry untraced;
    const auto plain = harness::run_trial(plan, untraced, config);
    recovery::RollbackRetry traced;
    harness::TrialObservation observation;
    const auto observed =
        harness::run_trial(plan, traced, config, {.observation = &observation});
    EXPECT_EQ(plain.survived, observed.survived) << fault_id;
    EXPECT_EQ(plain.failures, observed.failures) << fault_id;
    EXPECT_EQ(plain.recoveries, observed.recoveries) << fault_id;
  }
}

// ---------------------------------------------------- invariant checking --

TEST(InvariantCheckerTest, FlagsFdLeak) {
  harness::Transcript t;
  t.record(EventKind::kStart, 0, 0);
  t.record(EventKind::kFdOpen, 1, 4);
  t.record(EventKind::kFdClose, 2, 1);
  t.record(EventKind::kVerdict, 3, 0);
  const auto violations = analysis::check_transcript(t);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, InvariantRule::kFdLeak);
  EXPECT_NE(violations[0].detail.find("3 descriptors"), std::string::npos);
}

TEST(InvariantCheckerTest, BalancedFdsClean) {
  harness::Transcript t;
  t.record(EventKind::kFdOpen, 1, 4);
  t.record(EventKind::kFdClose, 2, 4);
  EXPECT_TRUE(analysis::check_transcript(t).empty());
}

TEST(InvariantCheckerTest, FlagsProcessSlotLeakAcrossRestart) {
  harness::Transcript t;
  t.record(EventKind::kProcSpawn, 0, 501);  // hung child
  t.record(EventKind::kFailure, 1, 3);
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kRecoveryOk, 2, 3);  // 501 survived the restart
  const auto violations = analysis::check_transcript(t);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, InvariantRule::kProcessSlotLeak);
  EXPECT_NE(violations[0].detail.find("501"), std::string::npos);
}

TEST(InvariantCheckerTest, SweptChildrenClean) {
  harness::Transcript t;
  t.record(EventKind::kProcSpawn, 0, 501);
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kProcKill, 1, 501);   // recovery swept the child
  t.record(EventKind::kProcSpawn, 2, 502);  // fresh worker pool
  t.record(EventKind::kRecoveryOk, 2, 3);
  t.record(EventKind::kProcKill, 3, 502);
  EXPECT_TRUE(analysis::check_transcript(t).empty());
}

TEST(InvariantCheckerTest, FlagsWriteDuringRecovery) {
  harness::Transcript t;
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kRollback, 1, 2);
  t.record(EventKind::kDiskWrite, 1, 4096);  // rollback must not write
  t.record(EventKind::kRecoveryOk, 2, 3);
  const auto violations = analysis::check_transcript(t);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].rule, InvariantRule::kWriteDuringRecovery);
}

TEST(InvariantCheckerTest, WritesOutsideRecoveryClean) {
  harness::Transcript t;
  t.record(EventKind::kDiskWrite, 0, 4096);
  t.record(EventKind::kRecoveryBegin, 1, 3);
  t.record(EventKind::kRecoveryOk, 2, 3);
  t.record(EventKind::kDiskWrite, 3, 4096);
  EXPECT_TRUE(analysis::check_transcript(t).empty());
}

TEST(InvariantCheckerTest, TracedLeakTrialFlagsFdLeak) {
  // An armed descriptor-leak fault must show up as an fd-leak violation in
  // its own transcript: the checker is an independent oracle for the
  // resource-leak fault class.
  const auto plan = inject::plan_for(find_seed("apache-edn-02"), 13);
  recovery::RollbackRetry mechanism;
  harness::TrialObservation observation;
  harness::run_trial(plan, mechanism, {}, {.observation = &observation});
  const auto violations = analysis::check_transcript(observation.transcript);
  bool fd_leak = false;
  for (const auto& v : violations) {
    if (v.rule == InvariantRule::kFdLeak) fd_leak = true;
  }
  EXPECT_TRUE(fd_leak) << analysis::to_string(
      std::span<const analysis::InvariantViolation>(violations));
}

// ------------------------------------------------------------ the oracle --

TEST(OracleCrosscheckTest, DetectorAgreesWithTaxonomyLabels) {
  const auto report = harness::run_oracle_crosscheck(corpus::all_seeds());
  EXPECT_EQ(report.total(), 139u);
  // Acceptance criteria: >=90% agreement, all race-labeled specimens fire,
  // zero firings on environment-independent specimens.
  EXPECT_GE(report.agreement(), 0.9);
  EXPECT_EQ(report.race_silent, 0u);
  EXPECT_EQ(report.race_fired, 4u);  // the study's four race-labeled faults
  EXPECT_EQ(report.ei_fired, 0u);
  EXPECT_EQ(report.edn_fired, 0u);
}

TEST(OracleCrosscheckTest, DeterministicUnderFixedSeed) {
  const auto seeds = corpus::mysql_seeds();
  const auto a = harness::run_oracle_crosscheck(seeds);
  const auto b = harness::run_oracle_crosscheck(seeds);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].detector_fired, b.rows[i].detector_fired);
    EXPECT_EQ(a.rows[i].race_reports, b.rows[i].race_reports);
    EXPECT_EQ(a.rows[i].invariant_violations, b.rows[i].invariant_violations);
  }
}

TEST(OracleReportTest, RendersConfusionTableAndCsv) {
  const auto report = harness::run_oracle_crosscheck(corpus::gnome_seeds());
  const std::string table = report::render_oracle_confusion(report);
  EXPECT_NE(table.find("race (EDT)"), std::string::npos);
  EXPECT_NE(table.find("env-independent (EI)"), std::string::npos);
  const std::string csv = report::oracle_rows_to_csv(report);
  EXPECT_NE(csv.find("fault_id,app,class,trigger"), std::string::npos);
  EXPECT_NE(csv.find("gnome-edt-03"), std::string::npos);
  const std::string md = report::render_oracle_markdown(report);
  EXPECT_NE(md.find("Agreement:"), std::string::npos);
}
