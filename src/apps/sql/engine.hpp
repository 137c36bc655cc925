// The mini SQL engine: parser + storage + executor, with the study's five
// described MySQL bugs implemented as real, individually-armable code
// faults:
//
//   update_index_scan_bug   (mysql-ei-01) UPDATE drives the index-scan
//       cursor and moves keys without removing the stale entry, "creating
//       duplicate values in the index"; the post-statement index check
//       crashes the server. The FIXED path is the paper's fix: "first
//       scanning for all matching rows and then updating the found rows".
//   orderby_empty_missing_init (mysql-ei-02) the sort path reads its state
//       uninitialized when the result set is empty.
//   count_on_empty_crash    (mysql-ei-03) COUNT(*) misses the check for
//       empty tables.
//   optimize_missing_init   (mysql-ei-04) OPTIMIZE TABLE uses a structure
//       a missing initialization statement left stale.
//   flush_after_lock_bug    (mysql-ei-05) FLUSH TABLES while the session
//       holds a LOCK TABLES lock re-enters the lock state machine.
//
// Copies are copy-on-write: an Engine holds its tables through shared
// pointers, so a copy (a Database snapshot, a restore, a fresh start from
// the shared catalog) costs one map of pointers, and a table is cloned only
// when one side is about to write to it while the other still refers to it.
// A table's storage is chunked (table.hpp), so a clone copies pointers to
// its chunks, whatever the table's size, and a write copies only the chunk
// it touches; the rules below hold for chunks as they do for tables.
// Reads go through find_table() const; every write goes through
// mutable_table(), which is where the clone happens.
//
// Thread safety. The Database application starts every engine from one
// function-local static catalog engine, shared by all executor lanes:
//   * that catalog is the only engine whose tables more than one lane sees,
//     and nothing ever writes to it;
//   * it keeps its own reference to each of its tables, so a lane about to
//     write to a table it shares with the catalog always sees
//     use_count() > 1 and clones it first;
//   * snapshots never leave their trial's lane, so every other table is
//     referenced from one lane only and its use_count() is exact.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/sql/parser.hpp"
#include "apps/sql/table.hpp"

namespace faultstudy::apps::sql {

struct SqlFaultFlags {
  bool update_index_scan_bug = false;
  bool orderby_empty_missing_init = false;
  bool count_on_empty_crash = false;
  bool optimize_missing_init = false;
  bool flush_after_lock_bug = false;
};

enum class ExecStatus : std::uint8_t {
  kOk = 0,
  kError,  ///< statement rejected (parse error, unknown table, ...)
  kCrash,  ///< the engine hit an injected bug: the server is gone
};

struct ExecResult {
  ExecStatus status = ExecStatus::kOk;
  std::string message;
  std::vector<Row> rows;      ///< SELECT output
  std::int64_t affected = 0;  ///< rows touched, or the COUNT(*) value
};

class Engine {
 public:
  explicit Engine(SqlFaultFlags flags = {}) : flags_(flags) {}

  void set_fault_flags(SqlFaultFlags flags) noexcept { flags_ = flags; }
  const SqlFaultFlags& fault_flags() const noexcept { return flags_; }

  /// Parses and runs a ';'-separated statement list, stopping at the first
  /// error or crash. Returns the last statement's result.
  ExecResult execute(std::string_view sql);

  /// Runs already parsed statements the same way (a prepared statement
  /// list: parsing depends on the text alone, not on the tables).
  ExecResult execute(const std::vector<Statement>& statements);

  /// Direct statement execution (parser bypass, used by tests).
  ExecResult run(const Statement& statement);

  const Table* find_table(const std::string& name) const;
  /// The table `name` for writing, cloned first if another engine shares
  /// it; nullptr when absent.
  Table* mutable_table(const std::string& name);
  std::size_t table_count() const noexcept { return tables_.size(); }

  bool holds_lock() const noexcept { return !locked_table_.empty(); }
  const std::string& locked_table() const noexcept { return locked_table_; }

 private:
  ExecResult run_select(const SelectStatement& s);
  ExecResult run_insert(const InsertStatement& s);
  ExecResult run_update(const UpdateStatement& s);
  ExecResult run_delete(const DeleteStatement& s);
  ExecResult run_create(const CreateStatement& s);
  ExecResult run_admin(const AdminStatement& s);


  std::map<std::string, std::shared_ptr<Table>> tables_;
  std::string locked_table_;
  SqlFaultFlags flags_;
};

}  // namespace faultstudy::apps::sql
