// Tests for the rule-based and naive-Bayes classifiers, including a
// parameterized sweep asserting every curated seed fault classifies to its
// ground-truth class from its report text alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>

#include "core/bayes.hpp"
#include "core/rule_classifier.hpp"
#include "corpus/seeds.hpp"
#include "corpus/synth.hpp"
#include "mining/filters.hpp"
#include "mining/keyword_search.hpp"
#include "util/strings.hpp"

namespace faultstudy::core {
namespace {

ReportText text_of(std::string title, std::string htr = {},
                   std::string comments = {}) {
  ReportText t;
  t.title = std::move(title);
  t.how_to_repeat = std::move(htr);
  t.developer_comments = std::move(comments);
  return t;
}

// -------------------------------------------------------- rule classifier

TEST(RuleClassifier, PaperApacheLongUrl) {
  const RuleClassifier c;
  const auto result = c.classify(text_of(
      "dies with a segfault when the submitted URL is very long",
      "Submit a very long URL from the browser.",
      "Result of an overflow in the hash calculation."));
  EXPECT_EQ(result.trigger, Trigger::kBoundaryInput);
  EXPECT_EQ(result.fault_class, FaultClass::kEnvironmentIndependent);
  EXPECT_GT(result.confidence, 0.0);
  EXPECT_FALSE(result.evidence.empty());
}

TEST(RuleClassifier, PaperRaceCondition) {
  const RuleClassifier c;
  const auto result = c.classify(text_of(
      "panel dies occasionally",
      "Remove an applet at the exact moment it requests an action.",
      "Race condition between the request and the removal."));
  EXPECT_EQ(result.trigger, Trigger::kRaceCondition);
  EXPECT_EQ(result.fault_class, FaultClass::kEnvDependentTransient);
}

TEST(RuleClassifier, PaperFullFileSystem) {
  const RuleClassifier c;
  const auto result = c.classify(
      text_of("all operations fail",
              "Fill the file system; operations fail with no space left on "
              "device."));
  EXPECT_EQ(result.trigger, Trigger::kFullFileSystem);
  EXPECT_EQ(result.fault_class, FaultClass::kEnvDependentNonTransient);
}

TEST(RuleClassifier, NoCueDefaultsToEnvironmentIndependent) {
  const RuleClassifier c;
  const auto result =
      c.classify(text_of("application emits wrong totals in summary view"));
  EXPECT_EQ(result.fault_class, FaultClass::kEnvironmentIndependent);
  EXPECT_EQ(result.confidence, 0.0);
  EXPECT_TRUE(result.evidence.empty());
}

TEST(RuleClassifier, EmptyReport) {
  const RuleClassifier c;
  const auto result = c.classify(ReportText{});
  EXPECT_EQ(result.fault_class, FaultClass::kEnvironmentIndependent);
}

TEST(RuleClassifier, HowToRepeatOutweighsBody) {
  // The same cue in how-to-repeat gets double the weight of body.
  const RuleClassifier c;
  ReportText t;
  t.body = "maybe a race condition?";  // EDT cue, weight x1.0 in body
  t.how_to_repeat =
      "the file system is full; the failure repeats until space is freed";
  const auto result = c.classify(t);  // EDN cue, weight x2.0 in how-to-repeat
  EXPECT_EQ(result.trigger, Trigger::kFullFileSystem);
}

TEST(RuleClassifier, EvidenceRecordsFieldAndWeight) {
  const RuleClassifier c;
  const auto result = c.classify(
      text_of("out of file descriptors", "", ""));
  ASSERT_FALSE(result.evidence.empty());
  EXPECT_EQ(result.evidence.front().field, "title");
  EXPECT_GT(result.evidence.front().weight, 0.0);
}

TEST(RuleClassifier, ConfidenceIsWinnerShare) {
  const RuleClassifier c;
  const auto pure = c.classify(text_of("race condition between two threads"));
  EXPECT_NEAR(pure.confidence, 1.0, 1e-9);  // only EDT cues fire
}

TEST(RuleClassifier, CaseInsensitive) {
  const RuleClassifier c;
  const auto result = c.classify(text_of("RACE CONDITION IN SCHEDULER"));
  EXPECT_EQ(result.trigger, Trigger::kRaceCondition);
}

TEST(RuleClassifier, LexiconIsSubstantial) {
  EXPECT_GE(RuleClassifier::lexicon().size(), 100u);
}

TEST(RuleClassifier, PolicyOverrideChangesClassNotTrigger) {
  RulePolicy policy;
  policy.reclassify(Trigger::kFullFileSystem,
                    FaultClass::kEnvDependentTransient);
  const RuleClassifier c(policy);
  const auto result =
      c.classify(text_of("disk full", "file system is full"));
  EXPECT_EQ(result.trigger, Trigger::kFullFileSystem);
  EXPECT_EQ(result.fault_class, FaultClass::kEnvDependentTransient);
}

TEST(RuleClassifier, CuesAreLowercase) {
  // classify lowercases each field and finds cues verbatim, which equals a
  // case-insensitive match only for lowercase cues.
  for (const Cue& cue : RuleClassifier::lexicon()) {
    const std::string_view phrase = cue.phrase;
    EXPECT_TRUE(std::none_of(phrase.begin(), phrase.end(), [](char c) {
      return std::isupper(static_cast<unsigned char>(c)) != 0;
    })) << phrase;
  }
}

// ------------------- differential: classify vs a per-cue icontains scorer

/// util::icontains as it was before it shared util::ascii's case fold,
/// verbatim, so the reference does not fold case the way classify does.
bool reference_icontains(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  const auto lower = [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  };
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (lower(static_cast<unsigned char>(haystack[i + j])) !=
          lower(static_cast<unsigned char>(needle[j]))) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

/// The classifier as it scored before it lowercased each field once: every
/// cue tested with reference_icontains against the raw field.
Classification reference_classify(const ReportText& r) {
  struct Field {
    const char* name;
    double weight;
    const std::string& text;
  };
  const Field fields[] = {{"title", 1.5, r.title},
                          {"body", 1.0, r.body},
                          {"how_to_repeat", 2.0, r.how_to_repeat},
                          {"developer_comments", 1.75, r.developer_comments}};
  std::array<double, kNumTriggers> scores{};
  Classification out;
  for (const Field& f : fields) {
    if (f.text.empty()) continue;
    for (const Cue& cue : RuleClassifier::lexicon()) {
      if (!reference_icontains(f.text, cue.phrase)) continue;
      const double w = cue.weight * f.weight;
      scores[static_cast<std::size_t>(cue.trigger)] += w;
      out.evidence.push_back({cue.trigger, cue.phrase, f.name, w});
    }
  }
  double total = 0.0;
  double best = 0.0;
  std::size_t best_idx = static_cast<std::size_t>(Trigger::kLogicError);
  for (std::size_t i = 0; i < kNumTriggers; ++i) {
    total += scores[i];
    if (scores[i] > best) {
      best = scores[i];
      best_idx = i;
    }
  }
  out.trigger = total == 0.0 ? Trigger::kLogicError
                             : static_cast<Trigger>(best_idx);
  out.fault_class = RulePolicy().classify(out.trigger);
  out.confidence = total == 0.0 ? 0.0 : best / total;
  return out;
}

/// Asserts classify(r) equals the reference exactly: trigger, class,
/// confidence, and the evidence list in order.
void expect_matches_reference(const ReportText& r, const std::string& what) {
  const Classification got = RuleClassifier().classify(r);
  const Classification want = reference_classify(r);
  EXPECT_EQ(got.trigger, want.trigger) << what;
  EXPECT_EQ(got.fault_class, want.fault_class) << what;
  EXPECT_EQ(got.confidence, want.confidence) << what;
  ASSERT_EQ(got.evidence.size(), want.evidence.size()) << what;
  for (std::size_t i = 0; i < got.evidence.size(); ++i) {
    EXPECT_EQ(got.evidence[i].trigger, want.evidence[i].trigger) << what;
    EXPECT_EQ(got.evidence[i].phrase, want.evidence[i].phrase) << what;
    EXPECT_EQ(got.evidence[i].field, want.evidence[i].field) << what;
    EXPECT_EQ(got.evidence[i].weight, want.evidence[i].weight) << what;
  }
}

TEST(RuleClassifier, MatchesIcontainsReferenceOnSeedReports) {
  for (const corpus::SeedFault& seed : corpus::all_seeds()) {
    ReportText text;
    text.title = seed.title;
    text.how_to_repeat = seed.how_to_repeat;
    text.developer_comments = seed.developer_comment;
    expect_matches_reference(text, seed.fault_id);
    // The same report shouted: every cue must still fire.
    text.title = util::to_lower(text.title);
    for (char& c : text.how_to_repeat) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    expect_matches_reference(text, seed.fault_id + " (upper case)");
  }
}

TEST(RuleClassifier, MatchesIcontainsReferenceOnMinedCorpora) {
  // The reports the tracker pipelines classify (those passing the study
  // filters), and the threads the mailing-list pipeline mines.
  for (const auto& tracker :
       {corpus::make_apache_tracker(), corpus::make_gnome_tracker()}) {
    for (const corpus::BugReport& report : mining::study_candidates(tracker)) {
      expect_matches_reference(report.text,
                               "report " + std::to_string(report.id));
    }
  }
  const corpus::MailingList list = corpus::make_mysql_list();
  for (const mining::MinedThread& t :
       mining::mine_threads(list, mining::study_keywords())) {
    ReportText text;
    text.title = t.root.subject;
    text.body = t.root.body;
    for (const auto& reply : t.replies) {
      text.developer_comments += reply.body + '\n';
    }
    expect_matches_reference(text, "thread " + std::to_string(t.root.id));
  }
}

// ------------------------- parameterized sweep over all 139 seed faults

class SeedClassification
    : public ::testing::TestWithParam<corpus::SeedFault> {};

TEST_P(SeedClassification, RuleClassifierRecoversGroundTruthClass) {
  const corpus::SeedFault& seed = GetParam();
  const RuleClassifier classifier;

  ReportText text;
  text.title = seed.title;
  text.how_to_repeat = seed.how_to_repeat;
  text.developer_comments = seed.developer_comment;

  const auto result = classifier.classify(text);
  EXPECT_EQ(result.fault_class, corpus::seed_class(seed))
      << seed.fault_id << ": predicted trigger "
      << to_string(result.trigger);
}

std::string seed_name(const ::testing::TestParamInfo<corpus::SeedFault>& info) {
  std::string name = info.param.fault_id;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSeeds, SeedClassification,
                         ::testing::ValuesIn(corpus::all_seeds()), seed_name);

// ----------------------------------------------------------------- bayes

TEST(Bayes, UntrainedDefaultsToEI) {
  const BayesClassifier c;
  EXPECT_EQ(c.classify(text_of("anything")),
            FaultClass::kEnvironmentIndependent);
}

TEST(Bayes, LearnsSimpleSeparation) {
  BayesClassifier c;
  for (int i = 0; i < 5; ++i) {
    c.train(text_of("race condition between threads"),
            FaultClass::kEnvDependentTransient);
    c.train(text_of("buffer overflow on long input"),
            FaultClass::kEnvironmentIndependent);
  }
  EXPECT_EQ(c.classify(text_of("another race condition")),
            FaultClass::kEnvDependentTransient);
  EXPECT_EQ(c.classify(text_of("overflow with long input string")),
            FaultClass::kEnvironmentIndependent);
}

TEST(Bayes, FeaturesIncludeBigrams) {
  const auto f = BayesClassifier::features(text_of("race condition found"));
  bool has_bigram = false;
  for (const auto& feat : f) {
    if (feat.find('_') != std::string::npos &&
        feat.find("race") != std::string::npos) {
      has_bigram = true;
    }
  }
  EXPECT_TRUE(has_bigram);
}

TEST(Bayes, OovTokensIgnored) {
  BayesClassifier c;
  c.train(text_of("race condition"), FaultClass::kEnvDependentTransient);
  c.train(text_of("race condition"), FaultClass::kEnvDependentTransient);
  c.train(text_of("overflow bug"), FaultClass::kEnvironmentIndependent);
  // A report of entirely unseen words falls back to the prior (EDT has
  // more training docs here).
  EXPECT_EQ(c.classify(text_of("zzz qqq www")),
            FaultClass::kEnvDependentTransient);
}

TEST(Bayes, LogPosteriorFinite) {
  BayesClassifier c;
  c.train(text_of("crash on startup"), FaultClass::kEnvironmentIndependent);
  const auto lp = c.log_posterior(text_of("crash on startup"));
  for (double v : lp) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Bayes, TrainedOnSeedsRecoversMostClasses) {
  // Train on Apache + GNOME seeds, test on MySQL seeds: in-domain enough
  // that accuracy must beat the majority-class baseline.
  BayesClassifier c;
  for (const auto& s : corpus::apache_seeds()) {
    c.train(text_of(s.title, s.how_to_repeat, s.developer_comment),
            corpus::seed_class(s));
  }
  for (const auto& s : corpus::gnome_seeds()) {
    c.train(text_of(s.title, s.how_to_repeat, s.developer_comment),
            corpus::seed_class(s));
  }
  std::size_t correct = 0;
  const auto mysql = corpus::mysql_seeds();
  for (const auto& s : mysql) {
    if (c.classify(text_of(s.title, s.how_to_repeat, s.developer_comment)) ==
        corpus::seed_class(s)) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / mysql.size(), 0.85);
}

}  // namespace
}  // namespace faultstudy::core
