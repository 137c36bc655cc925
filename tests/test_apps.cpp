// Tests for the simulated applications: lifecycle, resource footprints,
// checkpoint/restore semantics, rejuvenation, and per-trigger fault
// activation mechanics.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "apps/database.hpp"
#include "apps/desktop.hpp"
#include "apps/webserver.hpp"
#include "apps/workload.hpp"
#include "util/thread_pool.hpp"

namespace faultstudy::apps {
namespace {

WorkItem item(std::string op, int id = 0) {
  WorkItem w;
  w.id = id;
  w.op = std::move(op);
  return w;
}

// ----------------------------------------------------------- lifecycle

TEST(WebServer, StartAcquiresFootprint) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  EXPECT_TRUE(server.running());
  EXPECT_EQ(e.fds().held_by("apache"), WebServerConfig{}.base_fds);
  EXPECT_EQ(e.processes().count_owned_by("apache"),
            WebServerConfig{}.worker_pool);
  EXPECT_TRUE(e.network().port_bound(80));
  EXPECT_EQ(e.network().port_owner(80), "apache");
}

TEST(WebServer, StopReleasesEverything) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  server.stop(e);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(e.fds().used(), 0u);
  EXPECT_EQ(e.processes().used(), 0u);
  EXPECT_FALSE(e.network().port_bound(80));
}

TEST(WebServer, StartFailsWithoutFds) {
  env::EnvironmentConfig config;
  config.fd_slots = 2;  // fewer than the server needs
  env::Environment e(config);
  WebServer server;
  EXPECT_FALSE(server.start(e));
  EXPECT_EQ(e.fds().used(), 0u);  // nothing half-acquired
}

TEST(WebServer, StartFailsWhenPortTaken) {
  env::Environment e;
  e.network().bind_port(80, "squatter");
  WebServer server;
  EXPECT_FALSE(server.start(e));
  EXPECT_EQ(e.fds().used(), 0u);
}

TEST(WebServer, HandlesWorkload) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  const auto w = make_workload(core::AppId::kApache, {});
  for (const auto& i : w.items) {
    const auto r = server.handle(i, e);
    EXPECT_FALSE(is_failure(r)) << r.detail;
  }
  EXPECT_EQ(server.requests_served(), w.size());
}

TEST(Database, LifecycleAndCatalog) {
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  EXPECT_TRUE(e.network().port_bound(3306));
  const auto before = db.rows("orders");
  EXPECT_FALSE(is_failure(
      db.handle(item("INSERT INTO orders VALUES (9001, 'new')"), e)));
  EXPECT_EQ(db.rows("orders"), before + 1);
  EXPECT_FALSE(
      is_failure(db.handle(item("DELETE FROM sessions WHERE id = 1"), e)));
  EXPECT_EQ(db.rows("sessions"), 19u);
  db.stop(e);
  EXPECT_EQ(e.fds().used(), 0u);
}

TEST(Database, StartedDatabasesShareTheCatalog) {
  env::Environment e1;
  env::Environment e2;
  Database a;
  Database b;
  ASSERT_TRUE(a.start(e1));
  ASSERT_TRUE(b.start(e2));
  for (const char* table : {"orders", "customers", "sessions", "audit_log"}) {
    EXPECT_EQ(a.engine().find_table(table), b.engine().find_table(table))
        << table;
  }
  EXPECT_FALSE(is_failure(
      a.handle(item("INSERT INTO orders VALUES (9001, 'new')"), e1)));
  EXPECT_EQ(a.rows("orders"), 201u);
  EXPECT_EQ(b.rows("orders"), 200u);
  EXPECT_NE(a.engine().find_table("orders"), b.engine().find_table("orders"));
  EXPECT_EQ(a.engine().find_table("customers"),
            b.engine().find_table("customers"));
  // A later start begins from the untouched catalog, not from a's writes.
  env::Environment e3;
  Database c;
  ASSERT_TRUE(c.start(e3));
  EXPECT_EQ(c.rows("orders"), 200u);
  EXPECT_EQ(c.engine().find_table("orders"), b.engine().find_table("orders"));
}

TEST(Database, ArmedFlagsSurviveStartAndColdRestart) {
  env::Environment e;
  Database db;
  ActiveFault fault;
  fault.trigger = core::Trigger::kBoundaryInput;
  fault.fault_id = "mysql-ei-03";
  db.arm_fault(fault);
  ASSERT_TRUE(db.start(e));
  EXPECT_TRUE(db.engine().fault_flags().count_on_empty_crash);
  const WorkItem killer = item("SELECT COUNT(*) FROM audit_log");
  EXPECT_EQ(db.handle(killer, e).status, StepStatus::kCrash);
  EXPECT_FALSE(db.running());
  db.stop(e);  // cold restart
  ASSERT_TRUE(db.start(e));
  EXPECT_TRUE(db.engine().fault_flags().count_on_empty_crash);
  EXPECT_EQ(db.handle(killer, e).status, StepStatus::kCrash);

  // An unarmed database started since shares the same catalog, unarmed.
  env::Environment fresh;
  Database fixed;
  ASSERT_TRUE(fixed.start(fresh));
  EXPECT_FALSE(fixed.engine().fault_flags().count_on_empty_crash);
  EXPECT_FALSE(is_failure(fixed.handle(killer, fresh)));
}

TEST(Database, RejuvenationCompactsOnlyTablesWithDeadSlots) {
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  env::Environment e2;
  Database fresh;
  ASSERT_TRUE(fresh.start(e2));
  EXPECT_FALSE(
      is_failure(db.handle(item("DELETE FROM sessions WHERE id < 5"), e)));
  ASSERT_TRUE(db.engine().find_table("sessions")->has_dead_slots());
  db.rejuvenate(e);
  EXPECT_FALSE(db.engine().find_table("sessions")->has_dead_slots());
  EXPECT_EQ(db.rows("sessions"), 15u);
  // Tables nobody wrote to are still the catalog's.
  EXPECT_EQ(db.engine().find_table("customers"),
            fresh.engine().find_table("customers"));
  EXPECT_EQ(db.engine().find_table("orders"),
            fresh.engine().find_table("orders"));
}

TEST(Database, MalformedOpErrorsLikeTheEngine) {
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  for (const char* op :
       {"SELEC * FROM orders", "SELECT * FROM orders WHERE",
        "UPDATE orders SET id = 99999999999999999999", "SELECT 'open",
        "SELECT * FROM nosuch"}) {
    SCOPED_TRACE(op);
    sql::Engine engine;
    const sql::ExecResult direct = engine.execute(op);
    ASSERT_EQ(direct.status, sql::ExecStatus::kError);
    for (int run = 0; run < 2; ++run) {  // parsed, then from the cache
      const sql::ExecResult through_db = db.execute(op);
      EXPECT_EQ(through_db.status, sql::ExecStatus::kError);
      EXPECT_EQ(through_db.message, direct.message);
    }
    // A rejected statement is the client's problem, not a server failure.
    EXPECT_FALSE(is_failure(db.handle(item(op), e)));
    EXPECT_TRUE(db.running());
  }
}

TEST(Database, PoisonOpsCrashAfterRunningUnarmed) {
  const std::pair<const char*, const char*> kPoison[] = {
      {"mysql-ei-01", "UPDATE orders SET id = 999999 WHERE id < 100"},
      {"mysql-ei-02", "SELECT * FROM orders WHERE id > 999999 ORDER BY id"},
      {"mysql-ei-03", "SELECT COUNT(*) FROM audit_log"},
      {"mysql-ei-04", "OPTIMIZE TABLE orders"},
      {"mysql-ei-05", "LOCK TABLES orders WRITE; FLUSH TABLES"},
  };
  for (const auto& [fault_id, op] : kPoison) {
    SCOPED_TRACE(fault_id);
    // The same server first runs the op unarmed, so its statements are
    // already prepared when the armed run comes.
    env::Environment e;
    Database db;
    ASSERT_TRUE(db.start(e));
    EXPECT_FALSE(is_failure(db.handle(item(op), e)));
    db.stop(e);
    ActiveFault fault;
    fault.trigger = core::Trigger::kBoundaryInput;
    fault.fault_id = fault_id;
    db.arm_fault(fault);
    ASSERT_TRUE(db.start(e));
    EXPECT_EQ(db.handle(item(op), e).status, StepStatus::kCrash);

    // A second server in the same process, armed from the start.
    env::Environment e2;
    Database armed;
    armed.arm_fault(fault);
    ASSERT_TRUE(armed.start(e2));
    EXPECT_EQ(armed.handle(item(op), e2).status, StepStatus::kCrash);
  }
}

/// Every table's live rows, rendered, after `cycles` passes over a seeded
/// MySQL workload with a checkpoint after the first pass and a restore to
/// it after the second.
std::string run_database_workload(std::uint64_t seed, int cycles) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.poison_at = -1;
  const Workload workload = make_workload(core::AppId::kMysql, spec);
  env::Environment e;
  Database db;
  if (!db.start(e)) return "start failed";
  SnapshotPtr checkpoint;
  std::string out;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const WorkItem& w : workload.items) {
      out += is_failure(db.handle(w, e)) ? 'F' : '.';
    }
    if (cycle == 0) checkpoint = db.snapshot();
    if (cycle == 1 && !db.restore(checkpoint, e)) return "restore failed";
  }
  for (const char* name : {"orders", "customers", "sessions", "audit_log"}) {
    const sql::Table* table = db.engine().find_table(name);
    out += std::string("\n") + name + ":";
    for (const sql::Slot slot : table->scan_heap()) {
      for (const sql::Value& v : table->row(slot)) {
        out += " " + sql::to_string(v);
      }
      out += ";";
    }
  }
  return out;
}

TEST(Database, FourLanesFromTheSharedCatalogMatchOneLane) {
  constexpr std::size_t kServers = 12;
  const auto run = [](std::size_t lanes) {
    return util::parallel_map<std::string>(
        kServers, lanes,
        [](std::size_t i) { return run_database_workload(i + 1, 3); });
  };
  const std::vector<std::string> one_lane = run(1);
  EXPECT_EQ(run(4), one_lane);
  EXPECT_NE(one_lane[0], one_lane[1]);  // the seeds give distinct workloads
  // Nobody wrote to the shared catalog.
  env::Environment e;
  Database fresh;
  ASSERT_TRUE(fresh.start(e));
  EXPECT_EQ(fresh.rows("orders"), 200u);
  EXPECT_EQ(fresh.rows("sessions"), 20u);
}

TEST(Desktop, LifecycleAndWindows) {
  env::Environment e;
  Desktop desktop;
  ASSERT_TRUE(desktop.start(e));
  EXPECT_EQ(desktop.open_windows(), 1u);
  EXPECT_FALSE(is_failure(desktop.handle(item("open:file-manager"), e)));
  EXPECT_EQ(desktop.open_windows(), 2u);
  EXPECT_FALSE(is_failure(desktop.handle(item("play:notification-sound"), e)));
  desktop.stop(e);
}

TEST(Apps, HandleWhenStoppedIsError) {
  env::Environment e;
  WebServer server;
  const auto r = server.handle(item("GET /"), e);
  EXPECT_EQ(r.status, StepStatus::kError);
}

// ------------------------------------------------- snapshot / restore

TEST(Snapshot, RestoresCountersAndFootprint) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  for (int i = 0; i < 5; ++i) server.handle(item("GET /", i), e);
  const auto snap = server.snapshot();
  for (int i = 5; i < 9; ++i) server.handle(item("GET /", i), e);
  EXPECT_EQ(server.requests_served(), 9u);

  ASSERT_TRUE(server.restore(snap, e));
  EXPECT_EQ(server.requests_served(), 5u);
  EXPECT_EQ(e.fds().held_by("apache"), WebServerConfig{}.base_fds);
  EXPECT_TRUE(e.network().port_bound(80));
  EXPECT_TRUE(server.running());
}

TEST(Snapshot, DatabaseTablesRestored) {
  const char* const kTables[] = {"orders", "customers", "sessions",
                                 "audit_log"};
  env::Environment e;
  Database db;
  ASSERT_TRUE(db.start(e));
  db.handle(item("INSERT INTO audit_log VALUES (1, 'login')"), e);
  db.handle(item("DELETE FROM sessions WHERE id < 5"), e);
  std::vector<std::uint64_t> checkpointed;
  for (const char* t : kTables) checkpointed.push_back(db.rows(t));
  const auto snap = db.snapshot();

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    db.handle(item("INSERT INTO orders VALUES (9001, 'a')"), e);
    db.handle(item("DELETE FROM customers WHERE id < 10"), e);
    db.handle(item("DELETE FROM audit_log WHERE id = 1"), e);
    db.handle(item("OPTIMIZE TABLE sessions"), e);
    EXPECT_EQ(db.rows("orders"), checkpointed[0] + 1);
    EXPECT_EQ(db.rows("customers"), checkpointed[1] - 10);
    EXPECT_EQ(db.rows("audit_log"), 0u);
    // Writes after a restore must not reach the snapshot either, so a
    // second restore from it gives the same counts.
    ASSERT_TRUE(db.restore(snap, e));
    for (std::size_t i = 0; i < std::size(kTables); ++i) {
      EXPECT_EQ(db.rows(kTables[i]), checkpointed[i]) << kTables[i];
    }
    EXPECT_TRUE(db.engine().find_table("orders")->check_index());
  }
}

TEST(Snapshot, WrongSnapshotTypeRejected) {
  env::Environment e;
  WebServer server;
  Database db;
  ASSERT_TRUE(server.start(e));
  ASSERT_TRUE(db.start(e));
  EXPECT_FALSE(server.restore(db.snapshot(), e));
}

TEST(Snapshot, RestorePreservesLeakedFootprint) {
  // The EDN crux: a truly generic restore brings leaked descriptors back.
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kFdExhaustion;
  fault.symptom = core::Symptom::kErrorReturn;
  fault.fds_per_leak = 4;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(is_failure(server.handle(item("GET /", i), e)));
  }
  const auto leaked_footprint = server.fd_footprint();
  EXPECT_EQ(leaked_footprint, WebServerConfig{}.base_fds + 12);

  const auto snap = server.snapshot();
  ASSERT_TRUE(server.restore(snap, e));
  EXPECT_EQ(server.fd_footprint(), leaked_footprint);
  EXPECT_EQ(e.fds().held_by("apache"), leaked_footprint);
}

TEST(Rejuvenate, DropsLeaksToBaseline) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kFdExhaustion;
  fault.symptom = core::Symptom::kErrorReturn;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  for (int i = 0; i < 3; ++i) server.handle(item("GET /", i), e);
  EXPECT_GT(server.fd_footprint(), WebServerConfig{}.base_fds);

  server.rejuvenate(e);
  EXPECT_EQ(server.fd_footprint(), WebServerConfig{}.base_fds);
  EXPECT_EQ(server.leaked_units(), 0u);
  EXPECT_TRUE(server.running());
}

TEST(Rejuvenate, WebServerPrunesCacheAndLog) {
  env::Environment e;
  WebServer server;
  ASSERT_TRUE(server.start(e));
  WorkItem w = item("GET /big");
  w.write_bytes = 512;
  server.handle(w, e);
  EXPECT_GT(e.disk().used(), 0u);
  server.rejuvenate(e);
  EXPECT_EQ(e.disk().used_under("/var/cache/apache"), 0u);
  EXPECT_EQ(e.disk().stat("/var/log/apache/access_log")->size, 0u);
}

// ------------------------------------------------- fault mechanics

TEST(Fault, PoisonItemCrashesDeterministically) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kBoundaryInput;
  fault.symptom = core::Symptom::kCrash;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  WorkItem poison = item("GET /very-long-url");
  poison.poison = true;
  const auto r = server.handle(poison, e);
  EXPECT_EQ(r.status, StepStatus::kCrash);
  EXPECT_FALSE(server.running());
}

TEST(Fault, NonPoisonItemsUnaffected) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kBoundaryInput;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  EXPECT_FALSE(is_failure(server.handle(item("GET /normal"), e)));
}

TEST(Fault, SymptomControlsFailureKind) {
  env::Environment e;
  Desktop desktop;
  ActiveFault fault;
  fault.trigger = core::Trigger::kUiEventSequence;
  fault.symptom = core::Symptom::kHang;
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));
  WorkItem poison = item("click:panel-menu");
  poison.poison = true;
  EXPECT_EQ(desktop.handle(poison, e).status, StepStatus::kHang);
}

TEST(Fault, DeterministicLeakFailsAtLimit) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kDeterministicLeak;
  fault.symptom = core::Symptom::kCrash;
  fault.leak_limit = 5;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  int failures = 0;
  for (int i = 0; i < 5; ++i) {
    if (is_failure(server.handle(item("GET /", i), e))) ++failures;
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(server.leaked_units(), 5u);
}

TEST(Fault, HostnameChangeBites) {
  env::Environment e;
  Desktop desktop;
  ActiveFault fault;
  fault.trigger = core::Trigger::kHostnameChanged;
  fault.symptom = core::Symptom::kErrorReturn;
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));
  EXPECT_FALSE(is_failure(desktop.handle(item("open:calendar-view"), e)));
  e.set_hostname("renamed");
  EXPECT_TRUE(is_failure(desktop.handle(item("open:calendar-view"), e)));
  // Rejuvenation re-reads the hostname.
  desktop.rejuvenate(e);
  EXPECT_FALSE(is_failure(desktop.handle(item("open:calendar-view"), e)));
}

TEST(Fault, DnsErrorOnlyOnLookupItems) {
  env::Environment e;
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kDnsError;
  fault.symptom = core::Symptom::kErrorReturn;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  e.dns().break_until(env::DnsHealth::kErroring, 1000);

  EXPECT_FALSE(is_failure(server.handle(item("GET /static"), e)));
  WorkItem lookup = item("GET /cgi");
  lookup.lookup_host = "peer.example.net";
  EXPECT_TRUE(is_failure(server.handle(lookup, e)));
  // After the DNS heals, the same item succeeds.
  e.advance(2000);
  EXPECT_FALSE(is_failure(server.handle(lookup, e)));
}

TEST(Fault, RaceTriggersOnlyInHazardWindow) {
  env::Environment e;
  Database db;
  ActiveFault fault;
  fault.trigger = core::Trigger::kRaceCondition;
  fault.symptom = core::Symptom::kCrash;
  fault.hazard_start = 0.0;
  fault.hazard_width = 1.0;  // every interleaving is hazardous
  db.arm_fault(fault);
  ASSERT_TRUE(db.start(e));
  WorkItem racy = item("SELECT 1");
  racy.racy = true;
  EXPECT_TRUE(is_failure(db.handle(racy, e)));

  ActiveFault never = fault;
  never.hazard_width = 0.0;  // empty window: never triggers
  env::Environment e2;       // fresh environment (port 3306 is free here)
  Database db2;
  db2.arm_fault(never);
  ASSERT_TRUE(db2.start(e2));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(is_failure(db2.handle(racy, e2)));
  }
}

TEST(Fault, UnknownTransientFiresExactlyOnce) {
  env::Environment e;
  Desktop desktop;
  ActiveFault fault;
  fault.trigger = core::Trigger::kUnknownTransient;
  fault.symptom = core::Symptom::kCrash;
  desktop.arm_fault(fault);
  ASSERT_TRUE(desktop.start(e));
  EXPECT_TRUE(is_failure(desktop.handle(item("click:panel-menu"), e)));
  // The app crashed; bring it back without touching the hidden condition.
  const auto snap = desktop.snapshot();
  ASSERT_TRUE(desktop.restore(snap, e));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(is_failure(desktop.handle(item("click:panel-menu", i), e)));
  }
}

TEST(Fault, ProcessTableChildrenAccumulate) {
  env::EnvironmentConfig config;
  config.process_slots = WebServerConfig{}.worker_pool + 3;
  env::Environment e(config);
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kProcessTableFull;
  fault.symptom = core::Symptom::kHang;
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));

  WorkItem heavy = item("POST /cgi-bin/form");
  heavy.heavy = true;
  EXPECT_FALSE(is_failure(server.handle(heavy, e)));
  EXPECT_FALSE(is_failure(server.handle(heavy, e)));
  EXPECT_FALSE(is_failure(server.handle(heavy, e)));
  // Table now full of hung children: next heavy item fails.
  EXPECT_TRUE(is_failure(server.handle(heavy, e)));
  EXPECT_EQ(e.processes().count_hung_owned_by("apache"), 3u);
}

TEST(Fault, EntropyShortageOnSslItems) {
  env::EnvironmentConfig config;
  config.entropy_bits = 0;
  config.entropy_refill_per_tick = 0;
  env::Environment e(config);
  WebServer server;
  ActiveFault fault;
  fault.trigger = core::Trigger::kEntropyShortage;
  fault.symptom = core::Symptom::kErrorReturn;  // keep the server running
  server.arm_fault(fault);
  ASSERT_TRUE(server.start(e));
  WorkItem ssl = item("GET https://secure/checkout");
  ssl.entropy_bits = 256;
  EXPECT_TRUE(is_failure(server.handle(ssl, e)));
  EXPECT_FALSE(is_failure(server.handle(item("GET /plain"), e)));
}

}  // namespace
}  // namespace faultstudy::apps
