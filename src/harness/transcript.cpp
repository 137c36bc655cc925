#include "harness/transcript.hpp"

#include <string_view>

namespace faultstudy::harness {

namespace {
/// How an event reads: its kind's name, then its `item` as
/// "<before>N<after>" unless the kind carries no operand.
struct Label {
  std::string_view name;
  bool operand;
  std::string_view before;
  std::string_view after;
};

Label label_of(EventKind kind) {
  switch (kind) {
    case EventKind::kStart:
      return {"start", false, "", ""};
    case EventKind::kFailure:
      return {"FAILURE", true, "item ", ""};
    case EventKind::kRecoveryBegin:
      return {"recovery...", true, "item ", ""};
    case EventKind::kRecoveryOk:
      return {"recovered", true, "item ", ""};
    case EventKind::kRecoveryFailed:
      return {"RECOVERY FAILED", true, "item ", ""};
    case EventKind::kVerdict:
      return {"verdict", false, "", ""};
    case EventKind::kFdOpen:
      return {"fd-open", true, "", " fds"};
    case EventKind::kFdClose:
      return {"fd-close", true, "", " fds"};
    case EventKind::kProcSpawn:
      return {"proc-spawn", true, "pid ", ""};
    case EventKind::kProcKill:
      return {"proc-kill", true, "pid ", ""};
    case EventKind::kDiskWrite:
      return {"disk-write", true, "", " bytes"};
    case EventKind::kRollback:
      return {"rollback", true, "", " items rewound"};
  }
  return {"?", false, "", ""};
}
}  // namespace

void Transcript::record(EventKind kind, env::Tick at, std::size_t item,
                        std::string detail) {
  events_.push_back({kind, at, item, std::move(detail)});
}

std::string Transcript::to_string() const {
  std::string out;
  for (const auto& e : events_) {
    const Label label = label_of(e.kind);
    out += "[t=";
    out += std::to_string(e.at);
    out += "] ";
    out += label.name;
    if (label.operand) {
      out += ' ';
      out += label.before;
      out += std::to_string(e.item);
      out += label.after;
    }
    if (!e.detail.empty()) {
      out += ": ";
      out += e.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace faultstudy::harness
