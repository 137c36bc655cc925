// A MySQL-like database server on the simulated environment, executing its
// workload on a real mini SQL engine (apps/sql).
//
// Startup: binds port 3306, opens descriptors for the privilege tables and
// each table file, creates the catalog (orders, customers, sessions, and
// the empty audit table killer queries poke at). Per item: SQL statements
// run through the engine; CONNECT items do the reverse-DNS dance.
//
// Five study faults are implemented as real engine-level code bugs and are
// enabled when the armed fault carries the matching id:
//   mysql-ei-01  update-while-scanning index corruption
//   mysql-ei-02  ORDER BY over zero rows, missing initialization
//   mysql-ei-03  COUNT(*) on an empty table
//   mysql-ei-04  OPTIMIZE TABLE missing initialization
//   mysql-ei-05  FLUSH TABLES after LOCK TABLES
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "apps/app.hpp"
#include "apps/sql/engine.hpp"

namespace faultstudy::apps {

struct DatabaseConfig {
  std::size_t base_fds = 32;    ///< privilege tables + per-table descriptors
  std::size_t worker_pool = 4;  ///< service threads (modelled as processes)
  int listen_port = 3306;
};

class Database final : public BaseApp {
 public:
  explicit Database(const DatabaseConfig& config = {});

  void arm_fault(const ActiveFault& fault) override;

  bool start(env::Environment& e) override;
  StepResult handle(const WorkItem& item, env::Environment& e) override;
  void stop(env::Environment& e) override;
  SnapshotPtr snapshot() const override;
  bool restore(const SnapshotPtr& snapshot, env::Environment& e) override;
  void rejuvenate(env::Environment& e) override;

  /// Runs `sql` on this server's engine, the path handle() takes for a
  /// query. Each distinct text is parsed once per Database (parse errors
  /// included) and its statements are reused. Public as a test seam: it
  /// returns the statement's error, which handle() answers to the client
  /// and does not report; code outside tests goes through handle().
  sql::ExecResult execute(const std::string& sql);

  std::uint64_t rows(const std::string& table) const;
  std::uint64_t queries_executed() const noexcept { return queries_; }
  const sql::Engine& engine() const noexcept { return engine_; }

 private:
  struct DbSnapshot;
  void create_catalog();

  DatabaseConfig config_;
  sql::Engine engine_;
  std::uint64_t queries_ = 0;
  /// Statement text -> its parse. Not part of a snapshot: parsing depends
  /// on the text alone, so entries never go stale.
  std::unordered_map<std::string, util::Result<std::vector<sql::Statement>>>
      prepared_;
};

}  // namespace faultstudy::apps
