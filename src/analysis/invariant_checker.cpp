#include "analysis/invariant_checker.hpp"

#include <unordered_map>

namespace faultstudy::analysis {

std::string_view to_string(InvariantRule rule) noexcept {
  switch (rule) {
    case InvariantRule::kFdLeak:
      return "fd-leak";
    case InvariantRule::kProcessSlotLeak:
      return "process-slot-leak";
    case InvariantRule::kWriteDuringRecovery:
      return "write-during-recovery";
  }
  return "?";
}

std::vector<InvariantViolation> check_transcript(
    std::span<const harness::Event> events) {
  std::vector<InvariantViolation> violations;

  // fd balance: opened minus closed since the trial started.
  std::size_t fds_opened = 0;
  std::size_t fds_closed = 0;

  // pid -> transcript index of its spawn; erased on kill.
  std::unordered_map<std::size_t, std::size_t> live_pids;

  bool in_recovery = false;
  std::size_t recovery_began_at = 0;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const harness::Event& event = events[i];
    switch (event.kind) {
      case harness::EventKind::kFdOpen:
        fds_opened += event.item;
        break;
      case harness::EventKind::kFdClose:
        fds_closed += event.item;
        break;

      case harness::EventKind::kProcSpawn:
        live_pids[event.item] = i;
        break;
      case harness::EventKind::kProcKill:
        live_pids.erase(event.item);
        break;

      case harness::EventKind::kRecoveryBegin:
        in_recovery = true;
        recovery_began_at = i;
        break;

      case harness::EventKind::kDiskWrite:
        if (in_recovery) {
          violations.push_back(
              {InvariantRule::kWriteDuringRecovery, i,
               std::to_string(event.item) +
                   " bytes written to disk while recovery was in progress"});
        }
        break;

      case harness::EventKind::kRecoveryOk: {
        in_recovery = false;
        // Every process that predates this recovery must have been swept:
        // a survivor keeps its process-table slot across the restart.
        for (const auto& [pid, spawned_at] : live_pids) {
          if (spawned_at < recovery_began_at) {
            violations.push_back(
                {InvariantRule::kProcessSlotLeak, i,
                 "pid " + std::to_string(pid) +
                     " survived recovery; its process-table slot is leaked "
                     "across the restart"});
          }
        }
        break;
      }

      case harness::EventKind::kRecoveryFailed:
        in_recovery = false;
        break;

      case harness::EventKind::kStart:
      case harness::EventKind::kFailure:
      case harness::EventKind::kVerdict:
      case harness::EventKind::kRollback:
        break;
    }
  }

  if (fds_opened > fds_closed) {
    violations.push_back(
        {InvariantRule::kFdLeak, events.empty() ? 0 : events.size() - 1,
         std::to_string(fds_opened - fds_closed) +
             " descriptors opened but never closed"});
  }
  return violations;
}

std::string to_string(std::span<const InvariantViolation> violations) {
  std::string out;
  for (const auto& v : violations) {
    out += "[" + std::string(to_string(v.rule)) + "] at event #" +
           std::to_string(v.event_index) + ": " + v.detail + '\n';
  }
  return out;
}

}  // namespace faultstudy::analysis
