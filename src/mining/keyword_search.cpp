#include "mining/keyword_search.hpp"

#include <algorithm>
#include <cstdint>

#include "text/stemmer.hpp"
#include "text/tokenizer.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::mining {

const std::vector<std::string>& study_keywords() {
  static const std::vector<std::string> kKeywords = {"crash", "segmentation",
                                                     "race", "died"};
  return kKeywords;
}

namespace {
/// The keyword test with the keyword set stemmed once, up front, so a
/// caller that tests many messages stems each keyword once, not once per
/// message. Tokens are normalized and stemmed in the caller's scratch
/// buffer, and the scan stops at the first hit.
class KeywordMatcher {
 public:
  explicit KeywordMatcher(const std::vector<std::string>& keywords) {
    for (const auto& kw : keywords) stems_.push_back(text::stem(kw));
  }

  bool operator()(const corpus::MailMessage& message,
                  std::string& scratch) const {
    return scan(message.subject, scratch) || scan(message.body, scratch);
  }

 private:
  bool scan(std::string_view s, std::string& scratch) const {
    bool hit = false;
    text::for_each_token(s, {}, scratch, [&](std::string& tok) {
      text::stem_in_place(tok);
      hit = std::find(stems_.begin(), stems_.end(), tok) != stems_.end();
      return !hit;
    });
    return hit;
  }

  std::vector<std::string> stems_;
};

/// Messages per chunk of the parallel keyword scan. Fixed, so which
/// messages share a scratch buffer does not depend on the lane count;
/// small, so the MySQL list's 86 chunks leave little tail for one lane to
/// finish alone.
constexpr std::size_t kScanChunk = 512;

/// The scan's verdict on one message.
enum class Hit : std::uint8_t { kNone, kKeyword, kReportShaped };
}  // namespace

bool matches_keywords(const corpus::MailMessage& message,
                      const std::vector<std::string>& keywords) {
  std::string scratch;
  return KeywordMatcher(keywords)(message, scratch);
}

bool is_bug_report_shaped(const corpus::MailMessage& message) {
  return util::icontains(message.body, "how-to-repeat:") &&
         util::icontains(message.body, "version:");
}

std::vector<MinedThread> mine_threads(const corpus::MailingList& list,
                                      const std::vector<std::string>& keywords,
                                      KeywordFunnel* funnel,
                                      std::size_t threads) {
  const std::span<const corpus::MailMessage> messages = list.messages();
  KeywordFunnel f;
  f.total_messages = messages.size();

  // Each message's verdict lands in its own slot; lanes share nothing else.
  const KeywordMatcher matches(keywords);
  std::vector<Hit> hits(messages.size(), Hit::kNone);
  const std::size_t chunks = (messages.size() + kScanChunk - 1) / kScanChunk;
  util::parallel_for_index(chunks, threads, [&](std::size_t c) {
    std::string scratch;
    const std::size_t end = std::min(messages.size(), (c + 1) * kScanChunk);
    for (std::size_t i = c * kScanChunk; i < end; ++i) {
      if (!matches(messages[i], scratch)) continue;
      hits[i] = is_bug_report_shaped(messages[i]) ? Hit::kReportShaped
                                                  : Hit::kKeyword;
    }
  });

  // The threads that a usable report starts, as sorted thread ids: the
  // grouping pass below tests all 44,000 messages against them, and a
  // binary search over a few dozen ids is cheaper than a hash lookup.
  std::vector<std::uint64_t> roots;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (hits[i] == Hit::kNone) continue;
    ++f.keyword_hits;
    if (hits[i] != Hit::kReportShaped) continue;
    ++f.report_shaped;
    roots.push_back(messages[i].thread_id);
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  f.threads = roots.size();

  // Collect each qualifying thread in arrival order: root first, then
  // replies (which include the developers' diagnoses). slot[k] is the
  // index in `out` of thread roots[k], once its first message is seen.
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(roots.size(), kUnseen);
  std::vector<MinedThread> out;
  out.reserve(roots.size());
  for (const corpus::MailMessage& m : messages) {
    const auto it = std::lower_bound(roots.begin(), roots.end(), m.thread_id);
    if (it == roots.end() || *it != m.thread_id) continue;
    std::size_t& s = slot[static_cast<std::size_t>(it - roots.begin())];
    if (s == kUnseen) {
      s = out.size();
      out.push_back({m, {}});
    } else {
      out[s].replies.push_back(m);
    }
  }
  if (funnel != nullptr) *funnel = f;
  return out;
}

}  // namespace faultstudy::mining
