#include "mining/keyword_search.hpp"

#include <unordered_set>

#include "text/stemmer.hpp"
#include "text/tokenizer.hpp"
#include "util/strings.hpp"

namespace faultstudy::mining {

const std::vector<std::string>& study_keywords() {
  static const std::vector<std::string> kKeywords = {"crash", "segmentation",
                                                     "race", "died"};
  return kKeywords;
}

namespace {
/// The keyword test with the keyword set stemmed once, up front, so a
/// caller that tests many messages stems each keyword once, not once per
/// message.
class KeywordMatcher {
 public:
  explicit KeywordMatcher(const std::vector<std::string>& keywords) {
    for (const auto& kw : keywords) stems_.insert(text::stem(kw));
  }

  bool operator()(const corpus::MailMessage& message) const {
    return scan(message.subject) || scan(message.body);
  }

 private:
  bool scan(const std::string& s) const {
    for (const auto& tok : text::tokenize(s)) {
      if (stems_.contains(text::stem(tok))) return true;
    }
    return false;
  }

  std::unordered_set<std::string> stems_;
};
}  // namespace

bool matches_keywords(const corpus::MailMessage& message,
                      const std::vector<std::string>& keywords) {
  return KeywordMatcher(keywords)(message);
}

bool is_bug_report_shaped(const corpus::MailMessage& message) {
  return util::icontains(message.body, "how-to-repeat:") &&
         util::icontains(message.body, "version:");
}

std::vector<MinedThread> mine_threads(const corpus::MailingList& list,
                                      const std::vector<std::string>& keywords,
                                      KeywordFunnel* funnel) {
  KeywordFunnel f;
  f.total_messages = list.size();

  const KeywordMatcher matches(keywords);
  std::unordered_set<std::uint64_t> root_threads;
  for (const corpus::MailMessage& m : list.messages()) {
    if (!matches(m)) continue;
    ++f.keyword_hits;
    if (!is_bug_report_shaped(m)) continue;
    ++f.report_shaped;
    root_threads.insert(m.thread_id);
  }
  f.threads = root_threads.size();

  // Collect each qualifying thread in arrival order: root first, then
  // replies (which include the developers' diagnoses).
  std::vector<MinedThread> out;
  out.reserve(root_threads.size());
  std::unordered_set<std::uint64_t> emitted;
  for (const corpus::MailMessage& m : list.messages()) {
    if (!root_threads.contains(m.thread_id)) continue;
    if (emitted.insert(m.thread_id).second) {
      MinedThread t;
      t.root = m;
      out.push_back(std::move(t));
    } else {
      for (auto& t : out) {
        if (t.root.thread_id == m.thread_id) {
          t.replies.push_back(m);
          break;
        }
      }
    }
  }
  if (funnel != nullptr) *funnel = f;
  return out;
}

}  // namespace faultstudy::mining
