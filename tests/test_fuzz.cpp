// Robustness property tests: with no fault armed, the engines must never
// crash — arbitrary inputs may be rejected (kError / kBadRequest / ignored)
// but a kCrash from an un-armed engine would be a real bug in the
// reproduction itself. The parsers of outside input (JSON documents,
// tracker dumps, mbox archives, `classify` reports) must reject mutated
// input cleanly, never throw, and read back what the library itself
// writes. The generators are seeded, so failures replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/http/request.hpp"
#include "apps/sql/engine.hpp"
#include "apps/sql/lexer.hpp"
#include "apps/ui/toolkit.hpp"
#include "core/rule_classifier.hpp"
#include "corpus/seeds.hpp"
#include "corpus/serialize.hpp"
#include "corpus/synth.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace faultstudy {
namespace {

/// Random printable garbage, occasionally sprinkled with dialect tokens so
/// the fuzz reaches past the first parse error.
std::string random_text(util::Rng& rng, std::size_t max_len) {
  static const char* kFragments[] = {
      "SELECT", "FROM",  "WHERE",  "ORDER BY", "COUNT(*)", "INSERT",
      "VALUES", "UPDATE", "SET",   "DELETE",   "LOCK TABLES", "FLUSH",
      "orders", "id",    "state",  "*",        "(",        ")",
      ",",      ";",     "=",      "<",        ">",        "'txt'",
      "123",    "-5",    "GET",    "/index",   "?q=x",     "HTTP/1.0",
  };
  std::string out;
  const auto len = 1 + rng.below(max_len);
  while (out.size() < len) {
    if (rng.chance(0.6)) {
      out += kFragments[rng.below(std::size(kFragments))];
      out += ' ';
    } else {
      out += static_cast<char>(rng.between(32, 126));
    }
  }
  return out;
}

TEST(FuzzSql, LexerNeverThrowsOrHangs) {
  util::Rng rng(101);
  for (int i = 0; i < 3000; ++i) {
    const auto text = random_text(rng, 120);
    const auto tokens = apps::sql::lex(text);
    if (tokens.ok()) {
      EXPECT_FALSE(tokens.value().empty());  // always at least kEnd
    }
  }
}

TEST(FuzzSql, ParserNeverThrows) {
  util::Rng rng(102);
  for (int i = 0; i < 3000; ++i) {
    (void)apps::sql::parse(random_text(rng, 120));
  }
  // Long digit runs: integer literals at and past the int64 range, spliced
  // into garbage at a random point, must be rejected, not thrown.
  for (int i = 0; i < 500; ++i) {
    std::string text = random_text(rng, 60);
    const std::string digits(static_cast<std::size_t>(rng.between(17, 40)),
                             static_cast<char>(rng.between('1', '9')));
    text.insert(static_cast<std::size_t>(rng.below(text.size() + 1)),
                (rng.chance(0.3) ? " -" : " ") + digits + " ");
    (void)apps::sql::parse(text);
  }
}

TEST(FuzzSql, UnarmedEngineNeverCrashes) {
  util::Rng rng(103);
  apps::sql::Engine engine;
  engine.execute("CREATE TABLE orders (id INT, state TEXT)");
  engine.execute("INSERT INTO orders VALUES (1, 'open')");
  for (int i = 0; i < 3000; ++i) {
    const auto text = random_text(rng, 120);
    const auto result = engine.execute(text);
    EXPECT_NE(result.status, apps::sql::ExecStatus::kCrash)
        << "un-armed engine crashed on: " << text;
  }
}

TEST(FuzzSql, ArmedEngineCrashesOnlyOnItsOwnBugPath) {
  // With only the COUNT-empty bug armed, arbitrary garbage still never
  // crashes — only a COUNT over an empty result can.
  util::Rng rng(104);
  apps::sql::SqlFaultFlags flags;
  flags.count_on_empty_crash = true;
  apps::sql::Engine engine(flags);
  engine.execute("CREATE TABLE orders (id INT, state TEXT)");
  engine.execute("INSERT INTO orders VALUES (1, 'open')");
  for (int i = 0; i < 2000; ++i) {
    const auto text = random_text(rng, 120);
    const auto result = engine.execute(text);
    if (result.status == apps::sql::ExecStatus::kCrash) {
      EXPECT_NE(result.message.find("COUNT"), std::string::npos) << text;
    }
  }
}

TEST(FuzzHttp, UnarmedParserNeverCrashes) {
  util::Rng rng(105);
  for (int i = 0; i < 3000; ++i) {
    const auto out = apps::http::parse_request(random_text(rng, 400), {});
    EXPECT_NE(out.status, apps::http::ParseStatus::kCrash);
  }
}

TEST(FuzzHttp, ArmedParserCrashesOnlyOnLongUris) {
  util::Rng rng(106);
  apps::http::HttpFaultFlags flags;
  flags.long_url_hash_overflow = true;
  for (int i = 0; i < 3000; ++i) {
    const auto text = random_text(rng, 600);
    const auto out = apps::http::parse_request(text, flags);
    if (out.status == apps::http::ParseStatus::kCrash) {
      EXPECT_GT(out.request.uri.size(), apps::http::kUriBufferSize);
    }
  }
}

TEST(FuzzUi, UnarmedToolkitNeverCrashes) {
  util::Rng rng(107);
  for (int i = 0; i < 500; ++i) {
    apps::ui::PagerSettings settings(rng.chance(0.5), {});
    const auto tab = random_text(rng, 12);
    EXPECT_NE(settings.click_tab(tab).status, apps::ui::UiStatus::kCrash);

    apps::ui::Calendar calendar(static_cast<int>(rng.between(1900, 2100)), {});
    for (int k = 0; k < 5; ++k) {
      const auto r = rng.chance(0.5) ? calendar.click_prev_year()
                                     : calendar.click_next_year();
      EXPECT_NE(r.status, apps::ui::UiStatus::kCrash);
    }
    EXPECT_NE(apps::ui::ArchiveOpener({}).open(rng.next_u64() >> 20).status,
              apps::ui::UiStatus::kCrash);
  }
}

// ------------------------------------------------ parsers of outside input

/// `text` truncated at a random point, or with one to four bytes replaced
/// by random ones (any of the 256 values).
std::string mutate(util::Rng& rng, std::string text) {
  if (text.empty()) return text;
  if (rng.chance(0.3)) {
    text.resize(static_cast<std::size_t>(rng.below(text.size())));
    return text;
  }
  const auto flips = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    text[static_cast<std::size_t>(rng.below(text.size()))] =
        static_cast<char>(rng.below(256));
  }
  return text;
}

/// Every mutation of every dump goes through `parse`, which must not throw;
/// returns how many mutants it rejected.
template <typename Parse>
int fuzz_dumps(util::Rng& rng, const std::vector<std::string>& dumps,
               int iterations, Parse parse) {
  int rejected = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string mutant =
        mutate(rng, dumps[static_cast<std::size_t>(rng.below(dumps.size()))]);
    bool ok = false;
    EXPECT_NO_THROW(ok = parse(mutant).ok());
    if (!ok) ++rejected;
  }
  return rejected;
}

std::string random_json_string(util::Rng& rng) {
  static const char kSpecial[] = {'"', '\\', '\n', '\r', '\t', '\x01', '/'};
  std::string out;
  const auto len = rng.below(12);
  for (std::uint64_t i = 0; i < len; ++i) {
    out += rng.chance(0.2) ? kSpecial[rng.below(std::size(kSpecial))]
                           : static_cast<char>(rng.between(32, 126));
  }
  return out;
}

/// A random document and its canonical text (what the library's writers
/// emit: no whitespace, integers or %.17g doubles, escape()d strings).
std::string random_json(util::Rng& rng, int depth) {
  const auto kind = depth >= 4 ? rng.below(4) : rng.below(6);
  switch (kind) {
    case 0: return "null";
    case 1: return rng.chance(0.5) ? "true" : "false";
    case 2: {
      if (rng.chance(0.6)) return std::to_string(rng.between(-100000, 100000));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    static_cast<double>(rng.between(-4000, 4000)) / 64.0);
      return buf;
    }
    case 3: return "\"" + util::json::escape(random_json_string(rng)) + "\"";
    case 4: {
      std::string out = "[";
      const auto n = rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) out += ',';
        out += random_json(rng, depth + 1);
      }
      return out + "]";
    }
    default: {
      std::string out = "{";
      const auto n = rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) out += ',';
        out += "\"" + util::json::escape(random_json_string(rng)) + "\":";
        out += random_json(rng, depth + 1);
      }
      return out + "}";
    }
  }
}

/// The canonical text of a parsed document (inverse of random_json).
std::string render_json(const util::json::Value& v) {
  using Kind = util::json::Value::Kind;
  switch (v.kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return v.boolean ? "true" : "false";
    case Kind::kNumber: {
      if (v.is_integer) return std::to_string(v.integer);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      return buf;
    }
    case Kind::kString: return "\"" + util::json::escape(v.str) + "\"";
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ',';
        out += render_json(v.array[i]);
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ',';
        out += "\"" + util::json::escape(v.object[i].first) +
               "\":" + render_json(v.object[i].second);
      }
      return out + "}";
    }
  }
  return "";
}

TEST(FuzzJson, DocumentsRoundTripAndMutantsNeverThrow) {
  util::Rng rng(108);
  std::vector<std::string> docs;
  for (int i = 0; i < 200; ++i) {
    docs.push_back(random_json(rng, 0));
    const auto parsed = util::json::parse(docs.back());
    ASSERT_TRUE(parsed.ok()) << docs.back() << ": " << parsed.error();
    EXPECT_EQ(render_json(parsed.value()), docs.back());
  }
  const int rejected = fuzz_dumps(rng, docs, 3000, [](const std::string& t) {
    return util::json::parse(t);
  });
  EXPECT_GT(rejected, 0);
}

std::vector<std::string> tracker_dumps() {
  corpus::SynthConfig config;
  config.apache_total = 80;
  config.gnome_total = 60;
  return {corpus::tracker_to_text(corpus::make_apache_tracker(config)),
          corpus::tracker_to_text(corpus::make_gnome_tracker(config))};
}

TEST(FuzzCorpus, TrackerDumpsRoundTripAndMutantsNeverThrow) {
  const std::vector<std::string> dumps = tracker_dumps();
  for (const std::string& dump : dumps) {
    const auto parsed = corpus::tracker_from_text(dump);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(corpus::tracker_to_text(parsed.value()), dump);
  }
  util::Rng rng(109);
  const int rejected = fuzz_dumps(rng, dumps, 600, [](const std::string& t) {
    return corpus::tracker_from_text(t);
  });
  EXPECT_GT(rejected, 0);
}

TEST(FuzzCorpus, MboxDumpsRoundTripAndMutantsNeverThrow) {
  corpus::SynthConfig config;
  config.mysql_messages = 300;
  const std::vector<std::string> dumps = {
      corpus::mailinglist_to_mbox(corpus::make_mysql_list(config))};
  const auto parsed = corpus::mailinglist_from_mbox(dumps[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(corpus::mailinglist_to_mbox(parsed.value()), dumps[0]);
  util::Rng rng(110);
  const int rejected = fuzz_dumps(rng, dumps, 600, [](const std::string& t) {
    return corpus::mailinglist_from_mbox(t);
  });
  EXPECT_GT(rejected, 0);  // most mutants still parse: mbox is permissive
}

/// A seed's report in the `classify` input format.
std::string report_text(const corpus::SeedFault& seed) {
  return "Title: " + seed.title + "\nHow-To-Repeat: " + seed.how_to_repeat +
         "\nComments: " + seed.developer_comment + "\n";
}

TEST(FuzzClassify, ReportFieldsRoundTripAndMutantsNeverThrow) {
  std::vector<std::string> reports;
  for (const corpus::SeedFault& seed : corpus::all_seeds()) {
    reports.push_back(report_text(seed));
    const core::ReportText parsed = core::parse_report_text(reports.back());
    EXPECT_EQ(parsed.title, seed.title);
    EXPECT_EQ(parsed.how_to_repeat, seed.how_to_repeat);
    EXPECT_EQ(parsed.developer_comments, seed.developer_comment);
    EXPECT_EQ(parsed.body, "\n");  // the empty line after the last newline
  }
  util::Rng rng(111);
  const core::RuleClassifier classifier;
  for (int i = 0; i < 3000; ++i) {
    const std::string mutant = mutate(
        rng, reports[static_cast<std::size_t>(rng.below(reports.size()))]);
    core::ReportText parsed;
    ASSERT_NO_THROW(parsed = core::parse_report_text(mutant));
    // A field holds the rest of one line, trimmed.
    for (const std::string& field : {parsed.title, parsed.how_to_repeat,
                                      parsed.developer_comments}) {
      EXPECT_EQ(field.find('\n'), std::string::npos);
      EXPECT_EQ(util::trim(field), field);
    }
    EXPECT_NO_THROW((void)classifier.classify(parsed));
  }
}

}  // namespace
}  // namespace faultstudy
