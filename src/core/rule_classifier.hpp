// Rule-based fault classifier.
//
// Mechanizes the paper's manual procedure (Section 4): read the report —
// above all its "How To Repeat" field and the developers' comments — look
// for the environmental condition that triggers the failure, and map that
// condition to a fault class. Cue phrases vote for triggers; the winning
// trigger is ruled on by a RulePolicy. A report with no environmental cue
// is environment-independent: if the workload alone reproduces it, it is
// deterministic.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/rules.hpp"
#include "core/taxonomy.hpp"

namespace faultstudy::core {

/// The textual fields of a bug report the classifier reads. Field weights
/// differ: the how-to-repeat field names the triggering condition most
/// directly, developer comments confirm the diagnosis.
struct ReportText {
  std::string title;
  std::string body;
  std::string how_to_repeat;
  std::string developer_comments;
};

/// One lexicon entry: a phrase that votes for a trigger.
struct Cue {
  const char* phrase;  ///< lowercase; matched case-insensitively
  Trigger trigger;
  double weight;  ///< specificity: multiword diagnostic phrases score higher
};

/// One matched cue, kept as evidence for auditability.
struct CueMatch {
  Trigger trigger;
  std::string phrase;   ///< the cue that fired
  std::string field;    ///< which field it fired in
  double weight = 0.0;  ///< contribution to the trigger's score
};

struct Classification {
  Trigger trigger = Trigger::kLogicError;
  FaultClass fault_class = FaultClass::kEnvironmentIndependent;
  double confidence = 0.0;  ///< winner share of total cue mass, 0 if no cue
  std::vector<CueMatch> evidence;
};

/// Reads a report in the `classify` input format. A line that starts with
/// `Title:`, `How-To-Repeat:` or `Comments:` sets that field to the rest of
/// the line, trimmed (the last such line wins); every other line goes to the
/// body. Input without any of those tags is free text: all of it becomes the
/// body, verbatim. Accepts any byte sequence.
ReportText parse_report_text(std::string_view input);

class RuleClassifier {
 public:
  /// Uses the paper's rule policy by default.
  explicit RuleClassifier(RulePolicy policy = RulePolicy());

  Classification classify(const ReportText& report) const;

  /// The cue lexicon, in the order classify tries it (for tests / docs).
  static std::span<const Cue> lexicon();

 private:
  RulePolicy policy_;
};

}  // namespace faultstudy::core
