// Tests for the mini SQL engine: lexer, parser, storage/index, executor,
// and the five study bugs implemented as engine-level fault points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "apps/sql/engine.hpp"
#include "apps/sql/lexer.hpp"
#include "util/rng.hpp"

namespace faultstudy::apps::sql {
namespace {

// ------------------------------------------------------------------ lexer

TEST(SqlLexer, KeywordsAndIdentifiers) {
  const auto tokens = lex("SELECT id FROM orders");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_EQ(t.size(), 5u);  // 4 tokens + end
  EXPECT_EQ(t[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[1].text, "id");
  EXPECT_EQ(t[4].kind, TokenKind::kEnd);
}

TEST(SqlLexer, KeywordsCaseInsensitive) {
  const auto tokens = lex("select COUNT from T");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "SELECT");
  EXPECT_EQ(tokens.value()[1].text, "COUNT");
}

TEST(SqlLexer, NumbersAndStrings) {
  const auto tokens = lex("VALUES (42, 'open', -7)");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[2].kind, TokenKind::kInteger);
  EXPECT_EQ(t[2].number, 42);
  EXPECT_EQ(t[4].kind, TokenKind::kString);
  EXPECT_EQ(t[4].text, "open");
  EXPECT_EQ(t[6].number, -7);
}

TEST(SqlLexer, ComparisonOperators) {
  const auto tokens = lex("a <= 1 ; b != 2 ; c >= 3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[1].text, "<=");
  EXPECT_EQ(tokens.value()[5].text, "!=");
  EXPECT_EQ(tokens.value()[9].text, ">=");
}

TEST(SqlLexer, UnterminatedStringIsError) {
  EXPECT_FALSE(lex("SELECT 'oops").ok());
}

TEST(SqlLexer, UnexpectedCharacterIsError) {
  EXPECT_FALSE(lex("SELECT @").ok());
}

TEST(SqlLexer, OutOfRangeIntegerIsError) {
  const auto big = lex("SELECT * FROM t WHERE id = 99999999999999999999");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.error(), "integer literal out of range");
  EXPECT_FALSE(lex("9223372036854775808").ok());
  EXPECT_FALSE(lex("-9223372036854775809").ok());
  // The int64 limits themselves still lex.
  const auto limits = lex("9223372036854775807 -9223372036854775808");
  ASSERT_TRUE(limits.ok());
  EXPECT_EQ(limits.value()[0].number, INT64_MAX);
  EXPECT_EQ(limits.value()[1].number, INT64_MIN);
}

// ----------------------------------------------------------------- parser

TEST(SqlParser, SelectStar) {
  const auto stmts = parse("SELECT * FROM orders");
  ASSERT_TRUE(stmts.ok());
  ASSERT_EQ(stmts.value().size(), 1u);
  const auto& s = std::get<SelectStatement>(stmts.value()[0].node);
  EXPECT_FALSE(s.count_star);
  EXPECT_TRUE(s.columns.empty());
  EXPECT_EQ(s.table, "orders");
}

TEST(SqlParser, SelectWithEverything) {
  const auto stmts = parse(
      "SELECT id, state FROM orders WHERE id > 5 AND state = 'open' "
      "ORDER BY id DESC LIMIT 3");
  ASSERT_TRUE(stmts.ok()) << stmts.error();
  const auto& s = std::get<SelectStatement>(stmts.value()[0].node);
  EXPECT_EQ(s.columns, (std::vector<std::string>{"id", "state"}));
  ASSERT_EQ(s.where.size(), 2u);
  EXPECT_EQ(s.where[0].op, CompareOp::kGt);
  ASSERT_TRUE(s.order_by.has_value());
  EXPECT_TRUE(s.order_by->descending);
  EXPECT_EQ(s.limit, 3);
}

TEST(SqlParser, CountStar) {
  const auto stmts = parse("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmts.ok());
  EXPECT_TRUE(std::get<SelectStatement>(stmts.value()[0].node).count_star);
}

TEST(SqlParser, InsertUpdateDelete) {
  const auto stmts = parse(
      "INSERT INTO t VALUES (1, 'x'); "
      "UPDATE t SET c = 2 WHERE c = 1; "
      "DELETE FROM t WHERE c = 2");
  ASSERT_TRUE(stmts.ok()) << stmts.error();
  ASSERT_EQ(stmts.value().size(), 3u);
  EXPECT_TRUE(std::holds_alternative<InsertStatement>(stmts.value()[0].node));
  EXPECT_TRUE(std::holds_alternative<UpdateStatement>(stmts.value()[1].node));
  EXPECT_TRUE(std::holds_alternative<DeleteStatement>(stmts.value()[2].node));
}

TEST(SqlParser, CreateTable) {
  const auto stmts = parse("CREATE TABLE t (id INT, name TEXT)");
  ASSERT_TRUE(stmts.ok());
  const auto& s = std::get<CreateStatement>(stmts.value()[0].node);
  ASSERT_EQ(s.schema.columns.size(), 2u);
  EXPECT_EQ(s.schema.columns[1].type, ColumnType::kText);
}

TEST(SqlParser, AdminStatements) {
  const auto stmts =
      parse("LOCK TABLES t WRITE; FLUSH TABLES; UNLOCK TABLES; "
            "OPTIMIZE TABLE t");
  ASSERT_TRUE(stmts.ok()) << stmts.error();
  ASSERT_EQ(stmts.value().size(), 4u);
  EXPECT_EQ(std::get<AdminStatement>(stmts.value()[0].node).kind,
            AdminStatement::Kind::kLockTables);
  EXPECT_EQ(std::get<AdminStatement>(stmts.value()[3].node).kind,
            AdminStatement::Kind::kOptimize);
}

TEST(SqlParser, Errors) {
  EXPECT_FALSE(parse("SELECT FROM").ok());
  EXPECT_FALSE(parse("INSERT INTO t (1)").ok());
  EXPECT_FALSE(parse("UPDATE t WHERE x = 1").ok());
  EXPECT_FALSE(parse("bogus statement").ok());
}

// ---------------------------------------------------------- table / index

TEST(SqlTable, InsertScanErase) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s0 = t.insert({Value{std::int64_t{5}}});
  t.insert({Value{std::int64_t{3}}});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_TRUE(t.check_index());
  t.erase(s0);
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_FALSE(t.is_live(s0));
  EXPECT_TRUE(t.check_index());
}

TEST(SqlTable, IndexScanOrdered) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  for (std::int64_t v : {5, 1, 9, 3}) t.insert({Value{v}});
  std::vector<std::int64_t> keys;
  for (auto cursor = t.index_scan(); !cursor.done(); cursor.next()) {
    keys.push_back(std::get<std::int64_t>(cursor.key()));
  }
  EXPECT_EQ(keys, (std::vector<std::int64_t>{1, 3, 5, 9}));
}

TEST(SqlTable, CorrectKeyUpdateKeepsIndexConsistent) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s = t.insert({Value{std::int64_t{1}}});
  t.update_cell(s, 0, Value{std::int64_t{7}});
  EXPECT_TRUE(t.check_index());
  EXPECT_EQ(t.index_entries(), 1u);
}

TEST(SqlTable, BuggyKeyUpdateLeavesDuplicate) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s = t.insert({Value{std::int64_t{1}}});
  t.update_cell(s, 0, Value{std::int64_t{7}},
                /*corrupt_index_on_key_move=*/true);
  EXPECT_FALSE(t.check_index());
  EXPECT_EQ(t.index_entries(), 2u);  // stale + new: duplicate values
}

TEST(SqlTable, CompactRebuildsIndex) {
  Table t(Schema{{{"id", ColumnType::kInteger}}});
  const auto s = t.insert({Value{std::int64_t{1}}});
  t.insert({Value{std::int64_t{2}}});
  t.update_cell(s, 0, Value{std::int64_t{9}}, true);  // corrupt
  EXPECT_FALSE(t.check_index());
  t.compact();
  EXPECT_TRUE(t.check_index());
  EXPECT_EQ(t.row_count(), 2u);
}

// --------------------------------------------------------------- executor

Engine make_engine(SqlFaultFlags flags = {}) {
  Engine e(flags);
  e.execute("CREATE TABLE t (id INT, state TEXT)");
  e.execute("INSERT INTO t VALUES (1, 'open')");
  e.execute("INSERT INTO t VALUES (2, 'open')");
  e.execute("INSERT INTO t VALUES (3, 'done')");
  e.execute("CREATE TABLE empty_t (id INT)");
  return e;
}

TEST(SqlEngine, SelectWhere) {
  auto e = make_engine();
  const auto r = e.execute("SELECT id FROM t WHERE state = 'open'");
  EXPECT_EQ(r.status, ExecStatus::kOk);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 1);
}

TEST(SqlEngine, OrderByAndLimit) {
  auto e = make_engine();
  const auto r = e.execute("SELECT id FROM t ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 3);
  EXPECT_EQ(std::get<std::int64_t>(r.rows[1][0]), 2);
}

TEST(SqlEngine, CountStar) {
  auto e = make_engine();
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM t").affected, 3);
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM empty_t").affected, 0);
}

TEST(SqlEngine, UpdateFixedPathMovesKeys) {
  auto e = make_engine();
  const auto r = e.execute("UPDATE t SET id = 100 WHERE id < 3");
  EXPECT_EQ(r.status, ExecStatus::kOk);
  EXPECT_EQ(r.affected, 2);
  EXPECT_TRUE(e.find_table("t")->check_index());
}

TEST(SqlEngine, DeleteAndArityChecks) {
  auto e = make_engine();
  EXPECT_EQ(e.execute("DELETE FROM t WHERE state = 'open'").affected, 2);
  EXPECT_EQ(e.find_table("t")->row_count(), 1u);
  EXPECT_EQ(e.execute("INSERT INTO t VALUES (9)").status, ExecStatus::kError);
  EXPECT_EQ(e.execute("SELECT * FROM nosuch").status, ExecStatus::kError);
  EXPECT_EQ(e.execute("SELECT nocol FROM t").status, ExecStatus::kError);
}

TEST(SqlEngine, LockStateMachine) {
  auto e = make_engine();
  EXPECT_FALSE(e.holds_lock());
  EXPECT_EQ(e.execute("LOCK TABLES t WRITE").status, ExecStatus::kOk);
  EXPECT_TRUE(e.holds_lock());
  EXPECT_EQ(e.execute("FLUSH TABLES").status, ExecStatus::kOk);  // no bug armed
  EXPECT_EQ(e.execute("UNLOCK TABLES").status, ExecStatus::kOk);
  EXPECT_FALSE(e.holds_lock());
}

TEST(SqlEngine, EngineIsCopyable) {
  auto e = make_engine();
  Engine copy = e;
  e.execute("DELETE FROM t WHERE id = 1");
  EXPECT_EQ(copy.find_table("t")->row_count(), 3u);
  EXPECT_EQ(e.find_table("t")->row_count(), 2u);
}

TEST(SqlEngine, OutOfRangeLiteralIsAnErrorNotAThrow) {
  auto e = make_engine();
  ExecResult r;
  ASSERT_NO_THROW(
      r = e.execute("SELECT * FROM t WHERE id = 99999999999999999999"));
  EXPECT_EQ(r.status, ExecStatus::kError);
  EXPECT_EQ(r.message, "integer literal out of range");
}

// ------------------------------------------ copy-on-write isolation

/// A copy of the slot's cells.
Row row_of(const Table& t, Slot slot) {
  const auto cells = t.row(slot);
  return Row(cells.begin(), cells.end());
}

/// Everything a write can change about table `t`.
struct TableState {
  std::vector<Row> rows;  ///< live rows in heap order
  std::size_t index_entries = 0;
  bool dead_slots = false;
  bool index_ok = false;

  bool operator==(const TableState&) const = default;
};

TableState state_of(const Engine& e) {
  const Table* t = e.find_table("t");
  TableState state;
  for (Slot slot : t->scan_heap()) state.rows.push_back(row_of(*t, slot));
  state.index_entries = t->index_entries();
  state.dead_slots = t->has_dead_slots();
  state.index_ok = t->check_index();
  return state;
}

/// Runs `write` once against a copy and once against the original. The
/// other engine must be unchanged and still hold the table the two shared;
/// the written engine's `t` has split off; `empty_t`, which nobody wrote
/// to, is still shared.
void expect_isolated(SqlFaultFlags flags,
                     const std::function<void(Engine&)>& write) {
  for (const bool write_copy : {true, false}) {
    SCOPED_TRACE(write_copy ? "write to the copy" : "write to the original");
    Engine original = make_engine(flags);
    original.execute("DELETE FROM t WHERE id = 2");  // leave a dead slot
    Engine copy = original;
    const Table* shared = original.find_table("t");
    ASSERT_EQ(copy.find_table("t"), shared);
    const TableState before = state_of(original);

    Engine& written = write_copy ? copy : original;
    const Engine& untouched = write_copy ? original : copy;
    write(written);

    EXPECT_NE(state_of(written), before);
    EXPECT_EQ(state_of(untouched), before);
    EXPECT_EQ(untouched.find_table("t"), shared);
    EXPECT_NE(written.find_table("t"), shared);
    EXPECT_EQ(written.find_table("empty_t"), untouched.find_table("empty_t"));
  }
}

TEST(SqlCopyOnWrite, InsertIsIsolated) {
  expect_isolated({}, [](Engine& e) {
    EXPECT_EQ(e.execute("INSERT INTO t VALUES (4, 'new')").status,
              ExecStatus::kOk);
  });
}

TEST(SqlCopyOnWrite, FixedUpdateIsIsolated) {
  expect_isolated({}, [](Engine& e) {
    EXPECT_EQ(e.execute("UPDATE t SET id = 7 WHERE id = 1").affected, 1);
  });
}

TEST(SqlCopyOnWrite, BuggyUpdateIsIsolated) {
  SqlFaultFlags flags;
  flags.update_index_scan_bug = true;
  expect_isolated(flags, [](Engine& e) {
    EXPECT_EQ(e.execute("UPDATE t SET id = 999 WHERE id < 3").status,
              ExecStatus::kCrash);
    EXPECT_FALSE(e.find_table("t")->check_index());
  });
}

TEST(SqlCopyOnWrite, DeleteIsIsolated) {
  expect_isolated({}, [](Engine& e) {
    EXPECT_EQ(e.execute("DELETE FROM t WHERE id = 3").affected, 1);
  });
}

TEST(SqlCopyOnWrite, OptimizeIsIsolated) {
  expect_isolated({}, [](Engine& e) {
    EXPECT_EQ(e.execute("OPTIMIZE TABLE t").status, ExecStatus::kOk);
    EXPECT_FALSE(e.find_table("t")->has_dead_slots());
  });
}

TEST(SqlCopyOnWrite, MutableTableCompactIsIsolated) {
  expect_isolated({}, [](Engine& e) { e.mutable_table("t")->compact(); });
}

TEST(SqlCopyOnWrite, ReadsAndNoOpWritesKeepSharing) {
  auto e = make_engine();
  Engine copy = e;
  const Table* shared = e.find_table("t");
  const char* const kStatements[] = {
      "SELECT * FROM t WHERE id > 1 ORDER BY id",
      "SELECT COUNT(*) FROM t",
      "LOCK TABLES t WRITE; FLUSH TABLES; UNLOCK TABLES",
      "DELETE FROM t WHERE id > 900",
      "UPDATE t SET state = 'x' WHERE id > 900",
      "INSERT INTO t VALUES (9)",  // arity mismatch
      "UPDATE t SET nocol = 1",
  };
  for (const char* sql : kStatements) {
    (void)e.execute(sql);
    EXPECT_EQ(e.find_table("t"), shared) << sql;
    EXPECT_EQ(copy.find_table("t"), shared) << sql;
  }
}

TEST(SqlCopyOnWrite, SplitTableIsWrittenInPlace) {
  auto e = make_engine();
  const Engine copy = e;
  e.execute("INSERT INTO t VALUES (4, 'a')");
  const Table* split = e.find_table("t");
  ASSERT_NE(split, copy.find_table("t"));
  // Nobody else refers to the split table, so later writes do not clone.
  e.execute("INSERT INTO t VALUES (5, 'b')");
  e.execute("DELETE FROM t WHERE id = 1");
  EXPECT_EQ(e.find_table("t"), split);
  EXPECT_EQ(e.find_table("t")->row_count(), 4u);
  EXPECT_EQ(copy.find_table("t")->row_count(), 3u);
}

TEST(SqlCopyOnWrite, MutableTableOfUnknownTableIsNull) {
  auto e = make_engine();
  EXPECT_EQ(e.mutable_table("nosuch"), nullptr);
}

// ------------------------------------------------------- access paths
//
// A WHERE with a predicate on the indexed column 0 scans only that index
// range; everything else scans the heap. Both must find the same rows in
// the same (heap) order, so the references below filter scan_heap().

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

std::string sql_text(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

std::string sql_text(const Value& v) {
  if (std::holds_alternative<std::string>(v)) return "'" + to_string(v) + "'";
  return to_string(v);
}

/// A key from a small pool of INT and TEXT values, so keys repeat and the
/// index mixes both types.
Value random_key(util::Rng& rng) {
  if (rng.chance(0.3)) {
    return Value{std::string(1, static_cast<char>('a' + rng.below(4)))};
  }
  return Value{static_cast<std::int64_t>(rng.between(-2, 8))};
}

/// `t (id, tag, v)` after a random history of inserts, deletes, key
/// updates and compactions; tag is unique per inserted row.
Engine random_engine(util::Rng& rng) {
  Engine e;
  e.execute("CREATE TABLE t (id INT, tag INT, v TEXT)");
  std::int64_t tags = 0;
  const auto some_tag = [&] {
    return std::to_string(rng.below(static_cast<std::uint64_t>(tags) + 1));
  };
  const auto steps = 5 + rng.below(60);
  for (std::uint64_t i = 0; i < steps; ++i) {
    // Every draw gets its own statement, so the history does not depend
    // on the order a compiler evaluates operands in.
    const auto kind = rng.below(10);
    const std::string key = sql_text(random_key(rng));
    std::string sql;
    if (kind < 5) {
      const char v = static_cast<char>('x' + rng.below(3));
      sql = "INSERT INTO t VALUES (" + key + ", " + std::to_string(tags++) +
            ", '" + v + "')";
    } else if (kind == 5) {
      sql = "DELETE FROM t WHERE tag = " + some_tag();
    } else if (kind == 6) {
      sql = "DELETE FROM t WHERE id = " + key;
    } else if (kind == 7) {
      sql = "UPDATE t SET id = " + key + " WHERE tag = " + some_tag();
    } else if (kind == 8) {
      const std::string old_key = sql_text(random_key(rng));
      sql = "UPDATE t SET id = " + key + " WHERE id = " + old_key;
    } else {
      sql = "OPTIMIZE TABLE t";
    }
    EXPECT_EQ(e.execute(sql).status, ExecStatus::kOk) << sql;
  }
  return e;
}

std::vector<Row> rows_of(const Table& t, const std::vector<Slot>& slots) {
  std::vector<Row> rows;
  for (Slot slot : slots) rows.push_back(row_of(t, slot));
  return rows;
}

/// Every statement kind, through whichever access path the engine picks
/// for `WHERE id <op> key`, against a heap-scan reference. With
/// `exact_index`, the index range alone must already be the answer; on a
/// corrupted index it may hold extra (stale) candidates instead.
void expect_access_paths_agree(const Engine& e, CompareOp op, const Value& key,
                               bool exact_index) {
  const Table& t = *e.find_table("t");
  const std::string where = " WHERE id " + sql_text(op) + " " + sql_text(key);
  SCOPED_TRACE(where);
  std::vector<Slot> expected;
  std::vector<Row> rest;  // what a DELETE leaves
  for (Slot slot : t.scan_heap()) {
    if (evaluate(op, t.row(slot)[0], key)) {
      expected.push_back(slot);
    } else {
      rest.push_back(row_of(t, slot));
    }
  }

  if (op != CompareOp::kNe) {
    const std::vector<Slot> range = t.index_range(op, key);
    EXPECT_TRUE(std::is_sorted(range.begin(), range.end()));
    EXPECT_EQ(std::adjacent_find(range.begin(), range.end()), range.end());
    if (exact_index) {
      EXPECT_EQ(range, expected);
    } else {
      EXPECT_TRUE(std::includes(range.begin(), range.end(), expected.begin(),
                                expected.end()));
    }
  }

  Engine reader = e;
  ExecResult r = reader.execute("SELECT * FROM t" + where);
  ASSERT_EQ(r.status, ExecStatus::kOk);
  EXPECT_EQ(r.rows, rows_of(t, expected));
  EXPECT_EQ(r.affected, static_cast<std::int64_t>(expected.size()));

  // ORDER BY on a column full of ties keeps heap order within a tie.
  std::vector<Row> sorted = rows_of(t, expected);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Row& a, const Row& b) {
                     return compare(a[2], b[2]) < 0;
                   });
  r = reader.execute("SELECT * FROM t" + where + " ORDER BY v");
  EXPECT_EQ(r.rows, sorted);
  r = reader.execute("SELECT tag FROM t" + where + " AND v != 'y'");
  std::vector<Row> tags;
  for (const Row& row : rows_of(t, expected)) {
    if (to_string(row[2]) != "y") tags.push_back({row[1]});
  }
  EXPECT_EQ(r.rows, tags);
  EXPECT_EQ(reader.execute("SELECT COUNT(*) FROM t" + where).affected,
            static_cast<std::int64_t>(expected.size()));

  Engine updated = e;
  r = updated.execute("UPDATE t SET v = 'w'" + where);
  EXPECT_EQ(r.affected, static_cast<std::int64_t>(expected.size()));
  std::vector<Row> after;
  for (Slot slot : t.scan_heap()) {
    Row row = row_of(t, slot);
    if (evaluate(op, row[0], key)) row[2] = Value{std::string("w")};
    after.push_back(std::move(row));
  }
  const Table& u = *updated.find_table("t");
  EXPECT_EQ(rows_of(u, u.scan_heap()), after);

  Engine deleted = e;
  r = deleted.execute("DELETE FROM t" + where);
  EXPECT_EQ(r.affected, static_cast<std::int64_t>(expected.size()));
  const Table& d = *deleted.find_table("t");
  EXPECT_EQ(rows_of(d, d.scan_heap()), rest);
}

TEST(SqlAccessPath, IndexRangeMatchesHeapScanOnRandomTables) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const Engine e = random_engine(rng);
    ASSERT_TRUE(e.find_table("t")->check_index());
    for (const CompareOp op : kAllOps) {
      for (int i = 0; i < 3; ++i) {
        expect_access_paths_agree(e, op, random_key(rng), /*exact_index=*/true);
      }
    }
  }
}

TEST(SqlAccessPath, IndexRangeStaysExactOnACorruptedIndex) {
  int corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    Engine e = random_engine(rng);
    SqlFaultFlags flags;
    flags.update_index_scan_bug = true;
    e.set_fault_flags(flags);
    const std::string to = sql_text(random_key(rng));
    const std::string below = sql_text(random_key(rng));
    (void)e.execute("UPDATE t SET id = " + to + " WHERE id < " + below);
    e.set_fault_flags({});
    if (!e.find_table("t")->check_index()) ++corrupted;
    for (const CompareOp op : kAllOps) {
      for (int i = 0; i < 3; ++i) {
        expect_access_paths_agree(e, op, random_key(rng),
                                  /*exact_index=*/false);
      }
    }
  }
  EXPECT_GT(corrupted, 10);  // the corrupted case is actually exercised
}

/// The table as it was stored before it went flat: one vector per row and
/// a multimap index (which inserts after equal keys), with the same
/// operations written against them. The chunked Table must be
/// indistinguishable from it.
class ReferenceTable {
 public:
  Slot insert(const Row& row) {
    const auto slot = static_cast<Slot>(rows_.size());
    index_.emplace(row[0], slot);
    rows_.push_back(row);
    dead_.push_back(false);
    ++live_;
    return slot;
  }

  void erase(Slot slot) {
    if (!is_live(slot)) return;
    dead_[slot] = true;
    --live_;
    erase_entry(rows_[slot][0], slot);
  }

  void update_cell(Slot slot, int column, const Value& value, bool corrupt) {
    if (!is_live(slot)) return;
    Value& cell = rows_[slot][static_cast<std::size_t>(column)];
    if (column == 0 && compare(cell, value) != 0) {
      if (!corrupt) erase_entry(cell, slot);
      index_.emplace(value, slot);
    }
    cell = value;
  }

  void compact() {
    std::vector<Row> live;
    for (Slot s = 0; s < rows_.size(); ++s) {
      if (!dead_[s]) live.push_back(rows_[s]);
    }
    rows_.clear();
    dead_.clear();
    index_.clear();
    live_ = 0;
    for (const Row& row : live) insert(row);
  }

  bool is_live(Slot slot) const { return slot < rows_.size() && !dead_[slot]; }
  std::size_t slots() const { return rows_.size(); }
  std::size_t live() const { return live_; }
  const Row& row(Slot slot) const { return rows_[slot]; }

  std::vector<std::pair<Value, Slot>> entries() const {
    return {index_.begin(), index_.end()};
  }

  std::vector<Slot> index_range(CompareOp op, const Value& key) const {
    auto lo = index_.begin();
    auto hi = index_.end();
    switch (op) {
      case CompareOp::kEq: std::tie(lo, hi) = index_.equal_range(key); break;
      case CompareOp::kLt: hi = index_.lower_bound(key); break;
      case CompareOp::kLe: hi = index_.upper_bound(key); break;
      case CompareOp::kGt: lo = index_.upper_bound(key); break;
      case CompareOp::kGe: lo = index_.lower_bound(key); break;
      case CompareOp::kNe: break;
    }
    std::vector<Slot> out;
    for (auto it = lo; it != hi; ++it) {
      if (is_live(it->second)) out.push_back(it->second);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  bool check_index() const {
    if (index_.size() != live_) return false;
    for (const auto& [key, slot] : index_) {
      if (!is_live(slot) || compare(rows_[slot][0], key) != 0) return false;
    }
    return true;
  }

 private:
  struct Less {
    bool operator()(const Value& a, const Value& b) const {
      return compare(a, b) < 0;
    }
  };

  void erase_entry(const Value& key, Slot slot) {
    const auto [lo, hi] = index_.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == slot) {
        index_.erase(it);
        return;
      }
    }
  }

  std::vector<Row> rows_;
  std::vector<bool> dead_;
  std::size_t live_ = 0;
  std::multimap<Value, Slot, Less> index_;
};

/// Everything observable about `t`, compared against the reference.
void expect_same_table(const Table& t, const ReferenceTable& ref,
                       util::Rng& rng) {
  ASSERT_EQ(t.row_count(), ref.live());
  EXPECT_EQ(t.has_dead_slots(), ref.live() != ref.slots());
  std::vector<Slot> live;
  for (Slot s = 0; s < ref.slots(); ++s) {
    EXPECT_EQ(t.is_live(s), ref.is_live(s)) << "slot " << s;
    if (!ref.is_live(s)) continue;
    live.push_back(s);
    EXPECT_EQ(row_of(t, s), ref.row(s)) << "slot " << s;
  }
  EXPECT_FALSE(t.is_live(static_cast<Slot>(ref.slots())));
  EXPECT_EQ(t.scan_heap(), live);

  std::vector<std::pair<Value, Slot>> scanned;
  for (auto cursor = t.index_scan(); !cursor.done(); cursor.next()) {
    scanned.emplace_back(cursor.key(), cursor.slot());
  }
  EXPECT_EQ(scanned, ref.entries());
  EXPECT_EQ(t.index_entries(), scanned.size());
  EXPECT_EQ(t.check_index(), ref.check_index());

  for (const CompareOp op : kAllOps) {
    if (op == CompareOp::kNe) continue;
    for (int i = 0; i < 2; ++i) {
      const Value key = random_key(rng);
      EXPECT_EQ(t.index_range(op, key), ref.index_range(op, key))
          << "WHERE id " << sql_text(op) << " " << sql_text(key);
    }
  }
}

TEST(SqlAccessPath, FlatTableMatchesReferenceModel) {
  // Histories long enough to span several heap chunks and index leaves,
  // with copies taken along the way: a copy shares every chunk and leaf,
  // so each later write to the table must leave every copy as it was.
  int corrupted = 0;
  int compacted = 0;
  std::size_t most_entries = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    Table t(Schema{{{"id", ColumnType::kInteger},
                    {"tag", ColumnType::kInteger},
                    {"v", ColumnType::kText}}});
    ReferenceTable ref;
    std::vector<std::pair<Table, ReferenceTable>> copies;
    std::int64_t tags = 0;
    const auto some_slot = [&] {
      // Dead and out-of-range slots too: both must be no-ops.
      return static_cast<Slot>(rng.below(ref.slots() + 2));
    };
    for (int step = 0; step < 400; ++step) {
      // One draw per statement, so the history does not depend on the
      // order a compiler evaluates operands in.
      const auto kind = rng.below(40);
      const Value key = random_key(rng);
      if (kind < 20) {
        const Row row = {key, Value{tags++},
                         Value{std::string(1, static_cast<char>(
                                                  'x' + rng.below(3)))}};
        EXPECT_EQ(t.insert(row), ref.insert(row));
      } else if (kind < 25) {
        const Slot slot = some_slot();
        t.erase(slot);
        ref.erase(slot);
      } else if (kind < 34) {
        const Slot slot = some_slot();
        const bool corrupt = kind == 33;
        t.update_cell(slot, 0, key, corrupt);
        ref.update_cell(slot, 0, key, corrupt);
      } else if (kind < 37) {
        const Slot slot = some_slot();
        const Value text{std::string(1, static_cast<char>('a' + rng.below(3)))};
        t.update_cell(slot, 2, text);
        ref.update_cell(slot, 2, text, false);
      } else if (kind < 39) {
        if (copies.size() < 6) copies.emplace_back(t, ref);
      } else {
        t.compact();
        ref.compact();
        ++compacted;
      }
      if (!ref.check_index()) ++corrupted;
      most_entries = std::max(most_entries, t.index_entries());
      expect_same_table(t, ref, rng);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
    for (const auto& [copy, copy_ref] : copies) {
      expect_same_table(copy, copy_ref, rng);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
  // Both kinds of history are actually exercised, on indexes that split
  // into several leaves.
  EXPECT_GT(corrupted, 500);
  EXPECT_GT(compacted, 100);
  EXPECT_GT(most_entries, 2 * Table::kLeafEntries);
}

TEST(SqlAccessPath, UnknownColumnOnEmptyTableIsNoError) {
  auto e = make_engine();
  for (const char* sql : {"SELECT * FROM empty_t WHERE nocol = 1",
                          "SELECT nocol FROM empty_t",
                          "UPDATE empty_t SET id = 1 WHERE nocol = 1",
                          "DELETE FROM empty_t WHERE nocol = 1"}) {
    const ExecResult r = e.execute(sql);
    EXPECT_EQ(r.status, ExecStatus::kOk) << sql;
    EXPECT_EQ(r.affected, 0) << sql;
  }
}

TEST(SqlAccessPath, EarlierFalsePredicateSkipsUnknownColumn) {
  auto e = make_engine();
  for (const char* sql : {"SELECT * FROM t WHERE id > 100 AND nocol = 1",
                          "SELECT nocol FROM t WHERE id > 100",
                          "UPDATE t SET state = 'x' WHERE id = 7 AND nocol = 1",
                          "DELETE FROM t WHERE state = 'gone' AND nocol = 1"}) {
    const ExecResult r = e.execute(sql);
    EXPECT_EQ(r.status, ExecStatus::kOk) << sql;
    EXPECT_EQ(r.affected, 0) << sql;
  }
  // A row that passes the first predicate reaches the unknown column.
  EXPECT_EQ(e.execute("SELECT * FROM t WHERE id = 2 AND nocol = 1").message,
            "unknown column nocol");
}

TEST(SqlAccessPath, FirstReachedUnknownColumnNamesTheError) {
  auto e = make_engine();
  EXPECT_EQ(e.execute("SELECT * FROM t WHERE bad1 = 1 AND bad2 = 2").message,
            "unknown column bad1");
  EXPECT_EQ(e.execute("DELETE FROM t WHERE id > 0 AND bad2 = 1 AND bad1 = 1")
                .message,
            "unknown column bad2");
  EXPECT_EQ(e.execute("UPDATE t SET state = 'x' WHERE bad3 = 1").message,
            "unknown column bad3");
  EXPECT_EQ(e.execute("SELECT id, bad4, bad5 FROM t").message,
            "unknown column bad4");
  EXPECT_EQ(e.find_table("t")->row_count(), 3u);
}

TEST(SqlAccessPath, NoOpUpdateKeepsTheTableShared) {
  auto e = make_engine();
  const Engine snapshot = e;
  const Table* shared = e.find_table("t");
  for (const char* sql : {"UPDATE t SET state = 'done' WHERE id = 3",
                          "UPDATE t SET id = 2 WHERE id = 2",
                          "UPDATE t SET state = 'open' WHERE id < 3"}) {
    const ExecResult r = e.execute(sql);
    EXPECT_EQ(r.status, ExecStatus::kOk) << sql;
    EXPECT_GT(r.affected, 0) << sql;  // matched rows count, changed or not
    EXPECT_EQ(e.find_table("t"), shared) << sql;
  }
  EXPECT_EQ(e.execute("UPDATE t SET state = 'done' WHERE id < 3").affected, 2);
  EXPECT_NE(e.find_table("t"), shared);
  EXPECT_EQ(snapshot.find_table("t"), shared);
}

// ---------------------------------------------- the five study bugs

TEST(SqlBugs, CountOnEmptyTableCrashes) {
  SqlFaultFlags flags;
  flags.count_on_empty_crash = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM t").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM empty_t").status,
            ExecStatus::kCrash);
}

TEST(SqlBugs, OrderByZeroRecordsCrashes) {
  SqlFaultFlags flags;
  flags.orderby_empty_missing_init = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("SELECT * FROM t ORDER BY id").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("SELECT * FROM t WHERE id > 999 ORDER BY id").status,
            ExecStatus::kCrash);
  // Without ORDER BY, zero records are fine.
  auto e2 = make_engine(flags);
  EXPECT_EQ(e2.execute("SELECT * FROM t WHERE id > 999").status,
            ExecStatus::kOk);
}

TEST(SqlBugs, OptimizeTableCrashes) {
  SqlFaultFlags flags;
  flags.optimize_missing_init = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("OPTIMIZE TABLE t").status, ExecStatus::kCrash);
  auto fixed = make_engine();
  EXPECT_EQ(fixed.execute("OPTIMIZE TABLE t").status, ExecStatus::kOk);
}

TEST(SqlBugs, FlushAfterLockCrashes) {
  SqlFaultFlags flags;
  flags.flush_after_lock_bug = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("FLUSH TABLES").status, ExecStatus::kOk);  // no lock
  EXPECT_EQ(e.execute("LOCK TABLES t WRITE; FLUSH TABLES").status,
            ExecStatus::kCrash);
}

TEST(SqlBugs, UpdateWhileScanningCorruptsIndexAndCrashes) {
  SqlFaultFlags flags;
  flags.update_index_scan_bug = true;
  auto e = make_engine(flags);
  const auto r = e.execute("UPDATE t SET id = 999 WHERE id < 3");
  EXPECT_EQ(r.status, ExecStatus::kCrash);
  EXPECT_NE(r.message.find("duplicate values in the index"),
            std::string::npos);
  // The crash is mid-statement: the table is left corrupted.
  EXPECT_FALSE(e.find_table("t")->check_index());
}

TEST(SqlBugs, IndexInvariantBreaksAfterExactlyOneKeyMove) {
  // The buggy UPDATE walks the index while writing to it. The index check
  // after every updated row stops the walk at the first key move, so the
  // cursor never steps over an index that changed under it.
  SqlFaultFlags flags;
  flags.update_index_scan_bug = true;
  Engine e(flags);
  e.execute("CREATE TABLE t (id INT, state TEXT)");
  for (const char* sql : {"INSERT INTO t VALUES (1, 'a')",
                          "INSERT INTO t VALUES (2, 'b')",
                          "INSERT INTO t VALUES (5, 'c')",
                          "INSERT INTO t VALUES (5, 'd')"}) {
    ASSERT_EQ(e.execute(sql).status, ExecStatus::kOk) << sql;
  }
  ASSERT_EQ(e.execute("UPDATE t SET id = 5 WHERE id < 3").status,
            ExecStatus::kCrash);
  const Table& t = *e.find_table("t");
  EXPECT_EQ(t.index_entries(), t.row_count() + 1);
  std::vector<std::int64_t> ids;
  for (Slot slot : t.scan_heap()) {
    ids.push_back(std::get<std::int64_t>(t.row(slot)[0]));
  }
  EXPECT_EQ(ids, (std::vector<std::int64_t>{5, 2, 5, 5}));  // one row moved
  // The moved row's new entry went in after the equal keys; its stale
  // entry is still first.
  std::vector<std::pair<std::int64_t, Slot>> scanned;
  for (auto cursor = t.index_scan(); !cursor.done(); cursor.next()) {
    scanned.emplace_back(std::get<std::int64_t>(cursor.key()), cursor.slot());
  }
  EXPECT_EQ(scanned, (std::vector<std::pair<std::int64_t, Slot>>{
                         {1, 0}, {2, 1}, {5, 2}, {5, 3}, {5, 0}}));
}

TEST(SqlBugs, BuggyUpdateHarmlessWhenKeyMovesBackward) {
  // A key moved to a value the scan has ALREADY passed does not collide
  // with the cursor in the same way, but still leaves a stale entry; the
  // consistency check catches it either way.
  SqlFaultFlags flags;
  flags.update_index_scan_bug = true;
  auto e = make_engine(flags);
  EXPECT_EQ(e.execute("UPDATE t SET id = 0 WHERE id = 3").status,
            ExecStatus::kCrash);
}

TEST(SqlBugs, FixedEngineRunsAllKillersClean) {
  auto e = make_engine();
  EXPECT_EQ(e.execute("SELECT COUNT(*) FROM empty_t").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("SELECT * FROM t WHERE id > 999 ORDER BY id").status,
            ExecStatus::kOk);
  EXPECT_EQ(e.execute("OPTIMIZE TABLE t").status, ExecStatus::kOk);
  EXPECT_EQ(e.execute("LOCK TABLES t WRITE; FLUSH TABLES; UNLOCK TABLES").status,
            ExecStatus::kOk);
  EXPECT_EQ(e.execute("UPDATE t SET id = 999 WHERE id < 3").status,
            ExecStatus::kOk);
  EXPECT_TRUE(e.find_table("t")->check_index());
}

}  // namespace
}  // namespace faultstudy::apps::sql
