// Tests for the observability layer: coverage probes, the study atlas,
// baseline snapshots, and the drift differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "corpus/seeds.hpp"
#include "harness/experiment.hpp"
#include "obs/atlas.hpp"
#include "obs/baseline.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/probes.hpp"
#include "telemetry/metrics.hpp"
#include "util/json.hpp"

namespace faultstudy {
namespace {

std::vector<corpus::SeedFault> small_corpus(std::size_t n) {
  auto seeds = corpus::all_seeds();
  if (seeds.size() > n) seeds.resize(n);
  return seeds;
}

std::vector<harness::NamedMechanism> small_roster(std::size_t n) {
  auto mechanisms = harness::standard_mechanisms();
  if (mechanisms.size() > n) mechanisms.resize(n);
  return mechanisms;
}

// --- CoverageMap primitives ------------------------------------------------

TEST(CoverageMap, HitAndMergeAccumulate) {
  obs::CoverageMap a;
  EXPECT_TRUE(a.empty());
  a.hit(obs::Site::kEnvFdDenied);
  a.hit(obs::Site::kEnvFdDenied);
  a.hit_inject(core::Trigger::kRaceCondition);
  EXPECT_EQ(a.count(obs::Site::kEnvFdDenied), 2u);
  EXPECT_EQ(a.count_inject(core::Trigger::kRaceCondition), 1u);
  EXPECT_EQ(a.probes_hit(), 2u);

  obs::CoverageMap b;
  b.hit(obs::Site::kEnvFdDenied);
  b.hit(obs::Site::kAppStarted);
  a.merge(b);
  EXPECT_EQ(a.count(obs::Site::kEnvFdDenied), 3u);
  EXPECT_EQ(a.count(obs::Site::kAppStarted), 1u);
  EXPECT_EQ(a.probes_hit(), 3u);
}

TEST(CoverageMap, SiteNamesAreStableAndSectioned) {
  EXPECT_EQ(obs::site_name(obs::Site::kEnvFdDenied), "env/fd_denied");
  EXPECT_EQ(obs::site_section(obs::Site::kEnvFdDenied), "env");
  EXPECT_EQ(obs::site_section(obs::Site::kAppStarted), "app");
  EXPECT_EQ(obs::site_section(obs::Site::kRecCheckpoint), "recovery");
  EXPECT_EQ(obs::site_section(obs::Site::kTrialSurvived), "trial");
  // Every site must have a unique, non-empty export name.
  std::vector<std::string> names;
  for (std::size_t i = 0; i < obs::kNumSites; ++i) {
    names.emplace_back(obs::site_name(static_cast<obs::Site>(i)));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// --- probe wiring through run_trial ---------------------------------------

TEST(CoverageProbes, TrialRecordsProbesWhenCompiledIn) {
  const auto seeds = small_corpus(1);
  const auto plan = inject::plan_for(seeds[0], 42);
  auto mechanism = harness::standard_mechanisms()[0].make();
  obs::CoverageMap map;
  (void)harness::run_trial(plan, *mechanism, {}, {.coverage = &map});
  // The trial must at least arm its trigger, start the app, attach the
  // mechanism, and reach a verdict.
  EXPECT_GT(map.count_inject(seeds[0].trigger), 0u);
  EXPECT_GT(map.count(obs::Site::kAppStarted), 0u);
  EXPECT_GT(map.count(obs::Site::kRecAttach), 0u);
}

TEST(EventStream, TableReachesEveryProbeAndFlightCode) {
  // The event table is the only way into the coverage map and the flight
  // ring, so every structural probe and every flight code must be named by
  // some event — otherwise the atlas would report a blind spot no trial
  // can ever light up.
  std::vector<bool> site(obs::kNumSites, false);
  std::vector<bool> code(
      static_cast<std::size_t>(forensics::FlightCode::kCount), false);
  for (std::size_t e = 0; e < static_cast<std::size_t>(obs::Event::kCount);
       ++e) {
    const obs::EventRule r = obs::rule(static_cast<obs::Event>(e));
    if (r.site != obs::Site::kCount) {
      site[static_cast<std::size_t>(r.site)] = true;
    }
    if (r.flight != forensics::FlightCode::kCount) {
      code[static_cast<std::size_t>(r.flight)] = true;
    }
  }
  // kVerdict marks the verdict probes by operand.
  for (std::size_t v = 0;
       v < static_cast<std::size_t>(forensics::TrialVerdict::kCount); ++v) {
    site[static_cast<std::size_t>(obs::Site::kTrialSurvived) + v] = true;
  }
  for (std::size_t i = 0; i < site.size(); ++i) {
    EXPECT_TRUE(site[i]) << obs::site_name(static_cast<obs::Site>(i));
  }
  for (std::size_t i = 0; i < code.size(); ++i) {
    EXPECT_TRUE(code[i]) << forensics::to_string(
        static_cast<forensics::FlightCode>(i));
  }
}

// --- atlas fold determinism ------------------------------------------------

TEST(CoverageAtlas, FoldIsIdenticalForOneAndFourLanes) {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  const auto run = [&](std::size_t threads, obs::CoverageAtlas& atlas) {
    harness::TrialConfig config;
    config.threads = threads;
    return harness::run_matrix(seeds, mechanisms, config, 3, nullptr, nullptr,
                               &atlas);
  };
  obs::CoverageAtlas serial, wide;
  const auto serial_matrix = run(1, serial);
  const auto wide_matrix = run(4, wide);
  EXPECT_TRUE(serial == wide);
  EXPECT_EQ(obs::to_json(serial), obs::to_json(wide));
  EXPECT_EQ(obs::render_heatmap_html(serial), obs::render_heatmap_html(wide));
  const auto serial_snap =
      obs::build_snapshot(seeds, serial_matrix, serial, {}, 99, 3);
  const auto wide_snap =
      obs::build_snapshot(seeds, wide_matrix, wide, {}, 99, 3);
  EXPECT_EQ(obs::to_json(serial_snap), obs::to_json(wide_snap));
}

TEST(CoverageAtlas, FoldCellFillsSpecimensAndGrids) {
  const auto seeds = small_corpus(2);
  obs::CoverageAtlas atlas;
  atlas.begin_study(seeds, {"mech-a", "mech-b"});
  ASSERT_EQ(atlas.specimens().size(), 2u);
  ASSERT_EQ(atlas.grids().size(), 2u);

  obs::CoverageMap cell;
  cell.hit(obs::Site::kAppStarted);
  cell.hit_inject(seeds[1].trigger);
  atlas.fold_cell(1, 1, cell, /*trials=*/3, /*observed=*/3, /*survived=*/2);

  EXPECT_EQ(atlas.trials(), 3u);
  EXPECT_EQ(atlas.totals().count(obs::Site::kAppStarted), 1u);
  EXPECT_EQ(atlas.specimens()[1].trials, 3u);
  EXPECT_EQ(atlas.specimens()[1].probes.count(obs::Site::kAppStarted), 1u);
  EXPECT_EQ(atlas.specimens()[0].trials, 0u);
  const auto trigger = static_cast<std::size_t>(seeds[1].trigger);
  EXPECT_EQ(atlas.grids()[1].observed[trigger], 3u);
  EXPECT_EQ(atlas.grids()[1].survived[trigger], 2u);
  EXPECT_EQ(atlas.grids()[0].observed[trigger], 0u);
}

// --- blind spots -----------------------------------------------------------

TEST(CoverageAtlas, BlindSpotsListsEveryUnhitProbe) {
  obs::CoverageAtlas atlas;
  atlas.begin_study({}, {});
  // A synthetic registry where exactly one structural site and one trigger
  // were ever exercised.
  obs::CoverageMap map;
  map.hit(obs::Site::kEnvFdDenied);
  map.hit_inject(core::Trigger::kRaceCondition);
  atlas.fold_cell(0, 0, map, 1, 1, 1);

  const auto blind = atlas.blind_spots();
  EXPECT_EQ(blind.size(), obs::CoverageAtlas::probe_universe() - 2);
  EXPECT_EQ(std::find(blind.begin(), blind.end(), "env/fd_denied"),
            blind.end());
  EXPECT_NE(std::find(blind.begin(), blind.end(), "env/proc_hung"),
            blind.end());
  // The deliberately unreachable site stays on the list until someone hits
  // it.
  const std::string race = obs::inject_site_name(core::Trigger::kRaceCondition);
  EXPECT_EQ(std::find(blind.begin(), blind.end(), race), blind.end());
}

TEST(CoverageAtlas, FullMatrixLeavesNoStructuralEnvBlindSpotsUnexpected) {
  const auto seeds = corpus::all_seeds();
  const auto mechanisms = harness::standard_mechanisms();
  obs::CoverageAtlas atlas;
  harness::TrialConfig config;
  config.threads = 0;
  (void)harness::run_matrix(seeds, mechanisms, config, 3, nullptr, nullptr,
                            &atlas);
  // Every trigger recipe in the corpus must arm at least once: the inject
  // plane covers every taxonomy cell the corpus names.
  const std::size_t inject_hits = atlas.cells_covered();
  std::vector<bool> named(core::kNumTriggers, false);
  std::size_t distinct = 0;
  for (const auto& seed : seeds) {
    const auto t = static_cast<std::size_t>(seed.trigger);
    if (!named[t]) {
      named[t] = true;
      ++distinct;
    }
  }
  EXPECT_EQ(inject_hits, distinct);
  // Core protocol probes can never be blind after a full matrix.
  EXPECT_GT(atlas.totals().count(obs::Site::kAppStarted), 0u);
  EXPECT_GT(atlas.totals().count(obs::Site::kRecAttach), 0u);
  EXPECT_GT(atlas.totals().count(obs::Site::kTrialSurvived), 0u);
}

// --- baseline round-trip and drift ----------------------------------------

/// Canonical snapshot JSON (one top-level member per two-space-indented
/// line) without the top-level member `key`, still well-formed.
std::string without_member(std::string text, const std::string& key) {
  const std::size_t start = text.find("\n  \"" + key + "\":");
  const std::size_t next = text.find("\n  \"", start + 1);
  if (next != std::string::npos) {
    text.erase(start, next - start);
  } else {
    // The last member: also drop the comma that ended the one before it.
    const std::size_t comma = text.rfind(',', start);
    text.erase(comma, text.rfind("\n}") - comma);
  }
  return text;
}

/// `text` with every `, "<key>": <integer>` row member removed.
std::string without_row_member(std::string text, const std::string& key) {
  const std::string member = ", \"" + key + "\": ";
  for (std::size_t at = text.find(member); at != std::string::npos;
       at = text.find(member, at)) {
    text.erase(at, text.find_first_not_of("0123456789", at + member.size()) -
                       at);
  }
  return text;
}

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seeds_ = small_corpus(12);
    mechanisms_ = small_roster(2);
    harness::TrialConfig config;
    config.threads = 1;
    matrix_ = harness::run_matrix(seeds_, mechanisms_, config, 2, nullptr,
                                  nullptr, &atlas_);
    telemetry::MetricsRegistry registry;
    registry.add(registry.counter("study/example"), 7);
    snapshot_ = obs::build_snapshot(seeds_, matrix_, atlas_,
                                    registry.snapshot(), 99, 2);
  }

  std::vector<corpus::SeedFault> seeds_;
  std::vector<harness::NamedMechanism> mechanisms_;
  harness::MatrixResult matrix_;
  obs::CoverageAtlas atlas_;
  obs::StudySnapshot snapshot_;
};

TEST_F(BaselineTest, RoundTripIsLossless) {
  const std::string text = obs::to_json(snapshot_);
  const auto parsed = obs::parse_snapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value() == snapshot_);
  // Canonical writer: serializing the parse reproduces the bytes.
  EXPECT_EQ(obs::to_json(parsed.value()), text);
  const auto drift = obs::diff(snapshot_, parsed.value());
  EXPECT_TRUE(drift.empty()) << obs::render_text(drift);
}

TEST_F(BaselineTest, ParseRejectsGarbageAndWrongSchema) {
  EXPECT_FALSE(obs::parse_snapshot("not json").ok());
  EXPECT_FALSE(obs::parse_snapshot("{}").ok());
  EXPECT_FALSE(
      obs::parse_snapshot("{\"schema\": \"something-else/9\"}").ok());
}

TEST_F(BaselineTest, LostCoverageIsFatalDrift) {
  obs::StudySnapshot baseline = snapshot_;
  obs::StudySnapshot perturbed = snapshot_;
  bool diverged = false;
  for (std::size_t i = 0; i < baseline.probes.size(); ++i) {
    if (baseline.probes[i].hits > 0) {
      perturbed.probes[i].hits = 0;
      diverged = true;
      break;
    }
  }
  ASSERT_TRUE(diverged);
  // Candidate lost coverage the baseline had -> fatal.
  const auto drift = obs::diff(baseline, perturbed);
  EXPECT_TRUE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, NewCoverageIsANoteNotARegression) {
  obs::StudySnapshot improved = snapshot_;
  bool raised = false;
  for (auto& probe : improved.probes) {
    if (probe.hits == 0) {
      probe.hits = 5;
      raised = true;
      break;
    }
  }
  ASSERT_TRUE(raised);
  const auto drift = obs::diff(snapshot_, improved);
  EXPECT_FALSE(drift.empty());
  EXPECT_FALSE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, SurvivalRateShiftBeyondToleranceIsFatal) {
  obs::StudySnapshot perturbed = snapshot_;
  ASSERT_FALSE(perturbed.matrix.empty());
  // Flip one mechanism's EI survival hard enough to clear any band.
  auto& row = perturbed.matrix[0];
  row.total[0] = 10;
  row.survived[0] = 0;
  auto& base_row = snapshot_.matrix[0];
  base_row.total[0] = 10;
  base_row.survived[0] = 10;
  const auto drift = obs::diff(snapshot_, perturbed);
  EXPECT_TRUE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, ParseRequiresEverySection) {
  // The truncated document the drift gate once accepted as "0 fatal".
  EXPECT_FALSE(
      obs::parse_snapshot("{\"schema\": \"faultstudy-baseline/1\"}").ok());
  const std::string full = obs::to_json(snapshot_);
  ASSERT_TRUE(obs::parse_snapshot(full).ok());
  for (const char* key : {"seed", "repeats", "trials", "classes", "matrix",
                          "probes", "specimens", "counters"}) {
    const std::string text = without_member(full, key);
    ASSERT_TRUE(util::json::parse(text).ok()) << key;
    EXPECT_FALSE(obs::parse_snapshot(text).ok())
        << "accepted a snapshot without " << key;
  }
}

// The three hollow edits of a snapshot the drift gate once accepted: each
// switched off a check while `study_diff check` still exited 0.

TEST_F(BaselineTest, ParseRejectsAnEmptyMatrix) {
  std::string text = obs::to_json(snapshot_);
  const std::size_t open = text.find("\"matrix\": [") + 11;
  text.erase(open, text.find("\n  ]", open) + 3 - open);
  ASSERT_NE(text.find("\"matrix\": [],"), std::string::npos);
  ASSERT_TRUE(util::json::parse(text).ok());
  EXPECT_FALSE(obs::parse_snapshot(text).ok());
}

TEST_F(BaselineTest, ParseRejectsSpecimensWithoutCounts) {
  const std::string text = without_row_member(
      without_row_member(obs::to_json(snapshot_), "probes_hit"), "trials");
  ASSERT_EQ(text.find("probes_hit"), std::string::npos);
  ASSERT_TRUE(util::json::parse(text).ok());
  EXPECT_FALSE(obs::parse_snapshot(text).ok());
}

TEST_F(BaselineTest, ParseRejectsMatrixRowsWithoutLossCounts) {
  const std::string text = without_row_member(
      without_row_member(obs::to_json(snapshot_), "vacuous"), "state_losses");
  ASSERT_EQ(text.find("state_losses"), std::string::npos);
  ASSERT_TRUE(util::json::parse(text).ok());
  EXPECT_FALSE(obs::parse_snapshot(text).ok());
}

TEST_F(BaselineTest, VacuousChangeIsFatal) {
  // One fault stops triggering under one mechanism: it leaves the EDT
  // denominator for `vacuous`, and the cell's survival rate does not move.
  obs::StudySnapshot baseline = snapshot_;
  auto& row = baseline.matrix[0];
  row.total = {0, 0, 12};
  row.survived = {0, 0, 12};
  row.vacuous = 0;
  obs::StudySnapshot dropped = baseline;
  dropped.matrix[0].total[2] = 11;
  dropped.matrix[0].survived[2] = 11;
  dropped.matrix[0].vacuous = 1;
  EXPECT_TRUE(obs::diff(baseline, dropped).regressed())
      << obs::render_text(obs::diff(baseline, dropped));
  EXPECT_TRUE(obs::diff(dropped, baseline).regressed());
}

TEST_F(BaselineTest, MechanismOnOnlyOneSideIsFatal) {
  obs::StudySnapshot fewer = snapshot_;
  ASSERT_GT(fewer.matrix.size(), 1u);
  fewer.matrix.pop_back();
  EXPECT_TRUE(obs::diff(snapshot_, fewer).regressed());
  EXPECT_TRUE(obs::diff(fewer, snapshot_).regressed());
}

TEST_F(BaselineTest, ParseRejectsUnknownKeys) {
  std::string text = obs::to_json(snapshot_);
  text.insert(text.find('{') + 1, "\"tolerance\": 1,");
  EXPECT_FALSE(obs::parse_snapshot(text).ok());
}

TEST_F(BaselineTest, SeedChangeIsFatal) {
  obs::StudySnapshot other = snapshot_;
  other.seed += 1;
  EXPECT_TRUE(obs::diff(snapshot_, other).regressed());
}

TEST_F(BaselineTest, RepeatCountChangeIsFatal) {
  obs::StudySnapshot other = snapshot_;
  other.repeats += 1;
  EXPECT_TRUE(obs::diff(snapshot_, other).regressed());
}

TEST_F(BaselineTest, TrialCountChangeIsFatal) {
  obs::StudySnapshot other = snapshot_;
  other.trials = 1;
  EXPECT_TRUE(obs::diff(snapshot_, other).regressed());
}

TEST_F(BaselineTest, ProbeUniverseChangeIsFatal) {
  // A zero-hit probe vanishing or appearing changes what "blind spot"
  // means, so the universe itself is part of the study's identity.
  obs::StudySnapshot shrunk = snapshot_;
  const auto blind = std::find_if(shrunk.probes.begin(), shrunk.probes.end(),
                                  [](const auto& p) { return p.hits == 0; });
  ASSERT_NE(blind, shrunk.probes.end());
  shrunk.probes.erase(blind);
  EXPECT_TRUE(obs::diff(snapshot_, shrunk).regressed());
  EXPECT_TRUE(obs::diff(shrunk, snapshot_).regressed());
}

TEST_F(BaselineTest, CounterDeltaIsANote) {
  obs::StudySnapshot perturbed = snapshot_;
  ASSERT_FALSE(perturbed.counters.empty());
  perturbed.counters[0].value += 1;
  const auto drift = obs::diff(snapshot_, perturbed);
  EXPECT_FALSE(drift.empty());
  EXPECT_FALSE(drift.regressed()) << obs::render_text(drift);
}

TEST_F(BaselineTest, RenderTextPutsFatalFirst) {
  obs::DriftReport report;
  report.findings.push_back({false, "minor thing"});
  report.findings.push_back({true, "major thing"});
  const std::string text = obs::render_text(report);
  const auto fatal_at = text.find("major thing");
  const auto note_at = text.find("minor thing");
  ASSERT_NE(fatal_at, std::string::npos);
  ASSERT_NE(note_at, std::string::npos);
  EXPECT_LT(fatal_at, note_at);
}

// --- exports ---------------------------------------------------------------

TEST_F(BaselineTest, AtlasJsonAndHeatmapAreWellFormed) {
  const std::string json_text = obs::to_json(atlas_);
  const auto parsed = util::json::parse(json_text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().string_or("schema", ""), "faultstudy-atlas/1");

  const std::string html = obs::render_heatmap_html(atlas_);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find(mechanisms_[0].name), std::string::npos);
  // Self-contained: no external asset references.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST_F(BaselineTest, GaugesExportThroughTelemetryRegistry) {
  telemetry::MetricsRegistry registry;
  obs::export_gauges(atlas_, registry);
  const auto snap = registry.snapshot();
  bool found_probes = false, found_universe = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "coverage/probes_hit") {
      found_probes = true;
      EXPECT_EQ(static_cast<std::size_t>(g.value), atlas_.probes_hit());
    }
    if (g.name == "coverage/probe_universe") {
      found_universe = true;
      EXPECT_EQ(static_cast<std::size_t>(g.value),
                obs::CoverageAtlas::probe_universe());
    }
  }
  EXPECT_TRUE(found_probes);
  EXPECT_TRUE(found_universe);
}

// --- the JSON reader the baseline layer depends on -------------------------

TEST(UtilJson, ParsesNestedDocuments) {
  const auto parsed = util::json::parse(
      "{\"a\": [1, 2.5, -3], \"b\": {\"c\": \"x\\n\\\"y\\\"\"}, "
      "\"t\": true, \"n\": null}");
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const auto& doc = parsed.value();
  const auto* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_TRUE(a->array[0].is_integer);
  EXPECT_EQ(a->array[0].integer, 1);
  EXPECT_FALSE(a->array[1].is_integer);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].integer, -3);
  const auto* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_or("c", ""), "x\n\"y\"");
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_TRUE(doc.find("n")->is_null());
}

TEST(UtilJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(util::json::parse("").ok());
  EXPECT_FALSE(util::json::parse("{").ok());
  EXPECT_FALSE(util::json::parse("{\"a\": }").ok());
  EXPECT_FALSE(util::json::parse("[1, 2,]").ok());
  EXPECT_FALSE(util::json::parse("{} trailing").ok());
  EXPECT_FALSE(util::json::parse("\"unterminated").ok());
  // Non-finite numbers are not JSON: an overflowing exponent must not
  // parse to infinity.
  EXPECT_FALSE(util::json::parse("1e999999").ok());
  EXPECT_FALSE(util::json::parse("[-1e999999]").ok());
  EXPECT_TRUE(util::json::parse("1e300").ok());
}

TEST(UtilJson, EscapeRoundTripsThroughParse) {
  const std::string raw = "line\nbreak \"quoted\" back\\slash\ttab";
  const std::string doc = "{\"s\": \"" + util::json::escape(raw) + "\"}";
  const auto parsed = util::json::parse(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().string_or("s", ""), raw);
}

}  // namespace
}  // namespace faultstudy
