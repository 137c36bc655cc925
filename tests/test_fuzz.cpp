// Robustness property tests: with no fault armed, the engines must never
// crash — arbitrary inputs may be rejected (kError / kBadRequest / ignored)
// but a kCrash from an un-armed engine would be a real bug in the
// reproduction itself. The generators are seeded, so failures replay.
#include <gtest/gtest.h>

#include <string>

#include "apps/http/request.hpp"
#include "apps/sql/engine.hpp"
#include "apps/sql/lexer.hpp"
#include "apps/ui/toolkit.hpp"
#include "util/rng.hpp"

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

}  // namespace
}  // namespace faultstudy
