// Tests for the mining stages in isolation: filters, keyword search,
// union-find, duplicate clustering.
#include <gtest/gtest.h>

#include "corpus/synth.hpp"
#include "mining/dedup.hpp"
#include "mining/filters.hpp"
#include "mining/keyword_search.hpp"

namespace faultstudy::mining {
namespace {

using corpus::BugReport;
using corpus::MailMessage;

BugReport report(corpus::Severity severity, corpus::VersionTrack track,
                 corpus::ReportKind kind) {
  BugReport r;
  r.severity = severity;
  r.track = track;
  r.kind = kind;
  return r;
}

// ---------------------------------------------------------------- filters

TEST(Filters, StudyCriteria) {
  EXPECT_TRUE(passes_study_criteria(report(corpus::Severity::kSevere,
                                           corpus::VersionTrack::kProduction,
                                           corpus::ReportKind::kRuntimeFailure)));
  EXPECT_TRUE(passes_study_criteria(report(corpus::Severity::kCritical,
                                           corpus::VersionTrack::kProduction,
                                           corpus::ReportKind::kRuntimeFailure)));
  EXPECT_FALSE(passes_study_criteria(report(corpus::Severity::kNormal,
                                            corpus::VersionTrack::kProduction,
                                            corpus::ReportKind::kRuntimeFailure)));
  EXPECT_FALSE(passes_study_criteria(report(corpus::Severity::kSevere,
                                            corpus::VersionTrack::kBeta,
                                            corpus::ReportKind::kRuntimeFailure)));
  EXPECT_FALSE(passes_study_criteria(report(corpus::Severity::kSevere,
                                            corpus::VersionTrack::kProduction,
                                            corpus::ReportKind::kBuildProblem)));
}

TEST(Filters, FunnelCountsMonotone) {
  const auto tracker = corpus::make_apache_tracker();
  FilterFunnel funnel;
  const auto out = study_candidates(tracker, &funnel);
  EXPECT_EQ(funnel.total, tracker.size());
  EXPECT_LE(funnel.runtime, funnel.total);
  EXPECT_LE(funnel.production, funnel.runtime);
  EXPECT_LE(funnel.severe, funnel.production);
  EXPECT_EQ(out.size(), funnel.severe);
  EXPECT_GT(out.size(), 0u);
}

// --------------------------------------------------------- keyword search

MailMessage message(std::string subject, std::string body) {
  MailMessage m;
  m.subject = std::move(subject);
  m.body = std::move(body);
  return m;
}

TEST(KeywordSearch, StudyKeywordsArePapers) {
  EXPECT_EQ(study_keywords(),
            (std::vector<std::string>{"crash", "segmentation", "race",
                                      "died"}));
}

TEST(KeywordSearch, MatchesStemVariants) {
  EXPECT_TRUE(matches_keywords(message("server crashed", ""),
                               study_keywords()));
  EXPECT_TRUE(matches_keywords(message("", "mysqld dies nightly"),
                               study_keywords()));
  EXPECT_FALSE(matches_keywords(message("performance tuning", "question"),
                                study_keywords()));
}

TEST(KeywordSearch, BugReportShape) {
  EXPECT_TRUE(is_bug_report_shaped(message(
      "s", "Description: x\nHow-To-Repeat: do y\nVersion: 3.22.20\n")));
  EXPECT_FALSE(is_bug_report_shaped(message("s", "my disk died last week")));
  EXPECT_FALSE(is_bug_report_shaped(
      message("s", "How-To-Repeat: but no version line")));
}

TEST(KeywordSearch, MineThreadsGroupsReplies) {
  corpus::MailingList list;
  MailMessage root = message(
      "server crash",
      "Description: crash\nHow-To-Repeat: run query\nVersion: 3.22.20\n");
  const auto root_id = list.add(root);
  MailMessage reply = message("Re: server crash", "diagnosis here");
  reply.thread_id = root_id;
  list.add(reply);
  list.add(message("unrelated chatter", "nothing to see"));

  KeywordFunnel funnel;
  const auto threads = mine_threads(list, study_keywords(), &funnel);
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].root.id, root_id);
  ASSERT_EQ(threads[0].replies.size(), 1u);
  EXPECT_EQ(funnel.total_messages, 3u);
  EXPECT_EQ(funnel.threads, 1u);
}

TEST(KeywordSearch, ChatterWithKeywordButNoShapeExcluded) {
  corpus::MailingList list;
  list.add(message("not a bug", "this will not crash your server"));
  KeywordFunnel funnel;
  const auto threads = mine_threads(list, study_keywords(), &funnel);
  EXPECT_TRUE(threads.empty());
  EXPECT_EQ(funnel.keyword_hits, 1u);
  EXPECT_EQ(funnel.report_shaped, 0u);
}

/// Threads from mine_threads equal message for message.
void expect_same_threads(const std::vector<MinedThread>& a,
                         const std::vector<MinedThread>& b) {
  const auto same = [](const MailMessage& x, const MailMessage& y) {
    return x.id == y.id && x.thread_id == y.thread_id &&
           x.subject == y.subject && x.body == y.body;
  };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same(a[i].root, b[i].root)) << "thread " << i;
    ASSERT_EQ(a[i].replies.size(), b[i].replies.size()) << "thread " << i;
    for (std::size_t r = 0; r < a[i].replies.size(); ++r) {
      EXPECT_TRUE(same(a[i].replies[r], b[i].replies[r]))
          << "thread " << i << " reply " << r;
    }
  }
}

TEST(KeywordSearch, ChunkedScanMatchesSerial) {
  corpus::SynthConfig ragged;
  ragged.seed = 7;
  ragged.mysql_messages = 12 * 512 + 5;  // not a multiple of the scan chunk
  for (const corpus::SynthConfig& config : {corpus::SynthConfig{}, ragged}) {
    const corpus::MailingList list = corpus::make_mysql_list(config);
    KeywordFunnel serial_funnel;
    const auto serial =
        mine_threads(list, study_keywords(), &serial_funnel, 1);
    EXPECT_GT(serial_funnel.keyword_hits, 0u);
    EXPECT_FALSE(serial.empty());
    for (const std::size_t threads : {2u, 4u}) {
      KeywordFunnel funnel;
      const auto mined = mine_threads(list, study_keywords(), &funnel, threads);
      EXPECT_EQ(funnel.total_messages, serial_funnel.total_messages);
      EXPECT_EQ(funnel.keyword_hits, serial_funnel.keyword_hits);
      EXPECT_EQ(funnel.report_shaped, serial_funnel.report_shaped);
      EXPECT_EQ(funnel.threads, serial_funnel.threads);
      expect_same_threads(mined, serial);
    }
  }
}

TEST(KeywordSearch, StudyListFunnel) {
  // The paper's MySQL funnel on the default synthesized archive.
  KeywordFunnel funnel;
  const auto threads =
      mine_threads(corpus::make_mysql_list(), study_keywords(), &funnel, 4);
  EXPECT_EQ(funnel.total_messages, 44000u);
  EXPECT_EQ(funnel.keyword_hits, 3468u);
  EXPECT_EQ(funnel.report_shaped, 44u);
  EXPECT_EQ(funnel.threads, 44u);
  EXPECT_EQ(threads.size(), 44u);
}

// -------------------------------------------------------------- unionfind

TEST(UnionFind, SingletonsInitially) {
  UnionFind uf(3);
  EXPECT_EQ(uf.groups().size(), 3u);
}

TEST(UnionFind, UniteAndFind) {
  UnionFind uf(5);
  uf.unite(0, 2);
  uf.unite(2, 4);
  EXPECT_EQ(uf.find(0), uf.find(4));
  EXPECT_NE(uf.find(0), uf.find(1));
  const auto groups = uf.groups();
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 2, 4}));
}

TEST(UnionFind, UniteIdempotent) {
  UnionFind uf(2);
  uf.unite(0, 1);
  uf.unite(1, 0);
  uf.unite(0, 0);
  EXPECT_EQ(uf.groups().size(), 1u);
}

TEST(UnionFind, GroupsOrderedBySmallestMember) {
  UnionFind uf(6);
  uf.unite(5, 3);
  uf.unite(4, 0);
  const auto groups = uf.groups();
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].front(), 0u);
  EXPECT_LE(groups[0].front(), groups[1].front());
}

// ----------------------------------------------------------------- dedup

TEST(Dedup, EmptyAndSingleton) {
  EXPECT_TRUE(cluster_documents({}).empty());
  const auto one = cluster_documents({{1, "hello world"}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::vector<std::size_t>{0}));
}

TEST(Dedup, ClustersDuplicatesQuotingTheOriginal) {
  // Duplicate reporters quote the original's reproduction steps verbatim
  // (the synthetic generator models this), so the word shingles overlap —
  // and within a realistically varied corpus, the quoted phrase's terms are
  // rare enough that TF-IDF cosine confirms the pair.
  std::vector<DedupDoc> docs = {
      {1, "the server dies with a segfault when the submitted URL is very "
          "long. Submit a URL longer than the internal buffer from any "
          "browser; the hash calculation overflows and the serving child "
          "crashes, every time we try"},
      {2, "I am seeing the same problem. Submit a URL longer than the "
          "internal buffer from any browser; the hash calculation overflows "
          "and the serving child crashes. Happy to test a patch."},
      {3, "feature request: please add colors to the directory listing "
          "index pages"},
      {4, "configure script fails on AIX with an undefined reference while "
          "linking the shared modules"},
      {5, "documentation for the proxy module options is unclear about the "
          "cache directory layout"},
      {6, "server stops accepting connections after the process table fills "
          "with hung children during peak load"},
      {7, "authentication against the password file stops working after "
          "upgrading to the new release"},
      {8, "the manual page and the online docs disagree about the default "
          "value of the timeout directive"},
  };
  const auto clusters = cluster_documents(docs);
  ASSERT_EQ(clusters.size(), 7u);
  EXPECT_EQ(clusters[0], (std::vector<std::size_t>{0, 1}));
}

TEST(Dedup, DistinctTopicsStaySeparate) {
  std::vector<DedupDoc> docs = {
      {1, "race condition between the image viewer and the property editor "
          "crashes the file manager occasionally"},
      {2, "full file system prevents all operations on the database until "
          "an administrator frees disk space"},
      {3, "clicking the tasklist tab in the pager settings kills the pager "
          "immediately and reproducibly"},
  };
  EXPECT_EQ(cluster_documents(docs).size(), 3u);
}

TEST(Dedup, TransitiveChainsMerge) {
  // A-B similar, B-C similar: one cluster even if A-C are farther apart.
  std::vector<DedupDoc> docs = {
      {1, "server crashes when the access log file exceeds the maximum "
          "allowed file size on disk"},
      {2, "crash when the access log file exceeds the maximum allowed file "
          "size; log rotation was off"},
      {3, "crash when log exceeds maximum allowed file size; rotation was "
          "disabled on our production box"},
  };
  EXPECT_EQ(cluster_documents(docs).size(), 1u);
}

TEST(Dedup, ThresholdRespected) {
  DedupParams strict;
  strict.confirm_threshold = 0.999;  // only near-identical text merges
  std::vector<DedupDoc> docs = {
      {1, "the quick brown fox jumps over the lazy dog"},
      {2, "the quick brown fox jumped over a lazy dog today"},
  };
  EXPECT_EQ(cluster_documents(docs, strict).size(), 2u);
  DedupParams lenient;
  lenient.confirm_threshold = 0.3;
  EXPECT_EQ(cluster_documents(docs, lenient).size(), 1u);
}

TEST(Dedup, EveryDocInExactlyOneCluster) {
  const auto tracker = corpus::make_apache_tracker();
  const auto candidates = study_candidates(tracker);
  std::vector<DedupDoc> docs;
  for (const auto& r : candidates) {
    docs.push_back({r.id, r.text.title + ' ' + r.text.how_to_repeat});
  }
  const auto clusters = cluster_documents(docs);
  std::vector<bool> seen(docs.size(), false);
  for (const auto& cluster : clusters) {
    for (std::size_t idx : cluster) {
      ASSERT_LT(idx, docs.size());
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace faultstudy::mining
