// Static invariant checking over trial transcripts.
//
// A trial transcript (harness/transcript.hpp) records the resource-level
// events the harness observed: descriptor acquisitions, process spawns and
// kills, disk writes, rollbacks, signal raises. The checker
// scans a finished transcript for violations of the resource protocol —
// without re-running anything, which is what lets it audit transcripts from
// any mechanism or fault combination after the fact:
//
//   kFdLeak             descriptors opened and never closed by trial end —
//                       the resource-leak signature that defeats
//                       state-restoring recovery (checkpoints faithfully
//                       resurrect the leak).
//   kProcessSlotLeak    a process alive before recovery began survived a
//                       successful recovery: "kill all processes associated
//                       with the application" was not honored and the slot
//                       is leaked across the restart.
//   kWriteDuringRecovery a disk write between recovery-begin and its
//                       verdict: rollback must restore state, never
//                       generate new writes.
//   kSignalToDeadPid    a signal raised at a pid that was already killed
//                       and never respawned. harness::run_trial never
//                       records kSignalRaise, so this rule fires only on
//                       transcripts built by hand, as in the tests.
//
// The checker only touches inline accessors of the transcript types, so it
// layers below the harness (fs_harness links fs_analysis, not vice versa).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/transcript.hpp"

namespace faultstudy::analysis {

enum class InvariantRule : std::uint8_t {
  kFdLeak = 0,
  kProcessSlotLeak,
  kWriteDuringRecovery,
  kSignalToDeadPid,
};

inline constexpr InvariantRule kAllInvariantRules[] = {
    InvariantRule::kFdLeak,
    InvariantRule::kProcessSlotLeak,
    InvariantRule::kWriteDuringRecovery,
    InvariantRule::kSignalToDeadPid,
};

std::string_view to_string(InvariantRule rule) noexcept;

struct InvariantViolation {
  InvariantRule rule = InvariantRule::kFdLeak;
  /// Index into the transcript's event stream where the violation became
  /// definite (the final event for end-of-trial rules).
  std::size_t event_index = 0;
  std::string detail;
};

/// Scans one transcript's events; returns every violation found, in
/// transcript order.
std::vector<InvariantViolation> check_transcript(
    std::span<const harness::Event> events);

inline std::vector<InvariantViolation> check_transcript(
    const harness::Transcript& transcript) {
  return check_transcript(
      std::span<const harness::Event>(transcript.events()));
}

/// Multi-line rendering, one violation per line.
std::string to_string(std::span<const InvariantViolation> violations);

}  // namespace faultstudy::analysis
