#include "apps/sql/engine.hpp"

#include <algorithm>
#include <span>

namespace faultstudy::apps::sql {

namespace {
ExecResult crash(std::string message) {
  ExecResult r;
  r.status = ExecStatus::kCrash;
  r.message = std::move(message);
  return r;
}
ExecResult error(std::string message) {
  ExecResult r;
  r.status = ExecStatus::kError;
  r.message = std::move(message);
  return r;
}

/// Each predicate's column index in `schema`, -1 when unknown.
std::vector<int> resolve(const Schema& schema,
                         const std::vector<Predicate>& where) {
  std::vector<int> columns;
  columns.reserve(where.size());
  for (const Predicate& p : where) columns.push_back(schema.find(p.column));
  return columns;
}

/// `columns[i]` is where[i]'s column index in `row`, -1 when unknown.
bool matches(std::span<const Value> row, const std::vector<Predicate>& where,
             const std::vector<int>& columns, std::string* err) {
  for (std::size_t i = 0; i < where.size(); ++i) {
    if (columns[i] < 0) {
      *err = "unknown column " + where[i].column;
      return false;
    }
    if (!evaluate(where[i].op, row[static_cast<std::size_t>(columns[i])],
                  where[i].literal)) {
      return false;
    }
  }
  return true;
}

/// The slots of `table`'s live rows that satisfy every predicate, in heap
/// order. WHERE columns are resolved once; when all resolve and one
/// constrains column 0 with an op other than !=, only that index range is
/// scanned, else the whole heap. Sets `err` and returns nothing when a
/// scanned row reaches a predicate on an unknown column.
std::vector<Slot> matching_slots(const Table& table,
                                 const std::vector<Predicate>& where,
                                 std::string* err) {
  const std::vector<int> columns = resolve(table.schema(), where);
  const Predicate* key = nullptr;
  if (std::find(columns.begin(), columns.end(), -1) == columns.end()) {
    for (std::size_t i = 0; i < where.size() && key == nullptr; ++i) {
      if (columns[i] == 0 && where[i].op != CompareOp::kNe) key = &where[i];
    }
  }
  // Index candidates come in heap order, so hits (and ORDER BY ties) keep
  // the order a heap scan gives.
  std::vector<Slot> slots = key != nullptr
                                ? table.index_range(key->op, key->literal)
                                : table.scan_heap();
  std::size_t kept = 0;
  for (const Slot slot : slots) {
    if (matches(table.row(slot), where, columns, err)) slots[kept++] = slot;
    if (!err->empty()) return {};
  }
  slots.resize(kept);
  return slots;
}
}  // namespace

ExecResult Engine::execute(std::string_view sql) {
  const auto statements = parse(sql);
  if (!statements.ok()) return error(statements.error());
  return execute(statements.value());
}

ExecResult Engine::execute(const std::vector<Statement>& statements) {
  ExecResult last;
  for (const Statement& statement : statements) {
    last = run(statement);
    if (last.status != ExecStatus::kOk) return last;
  }
  return last;
}

ExecResult Engine::run(const Statement& statement) {
  return std::visit(
      [this](const auto& node) -> ExecResult {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, SelectStatement>) {
          return run_select(node);
        } else if constexpr (std::is_same_v<T, InsertStatement>) {
          return run_insert(node);
        } else if constexpr (std::is_same_v<T, UpdateStatement>) {
          return run_update(node);
        } else if constexpr (std::is_same_v<T, DeleteStatement>) {
          return run_delete(node);
        } else if constexpr (std::is_same_v<T, CreateStatement>) {
          return run_create(node);
        } else {
          return run_admin(node);
        }
      },
      statement.node);
}

const Table* Engine::find_table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Engine::mutable_table(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  std::shared_ptr<Table>& table = it->second;
  if (table.use_count() > 1) table = std::make_shared<Table>(*table);
  return table.get();
}

ExecResult Engine::run_select(const SelectStatement& s) {
  const Table* table = find_table(s.table);
  if (table == nullptr) return error("unknown table " + s.table);

  if (s.count_star && s.where.empty()) {
    // --- mysql-ei-03: "the use of a count clause on an empty table
    // crashes MySQL ... missing check for empty tables" ---
    if (flags_.count_on_empty_crash && table->row_count() == 0) {
      return crash("segfault in COUNT(*) fast path: empty-table check "
                   "missing");
    }
    ExecResult r;
    r.affected = static_cast<std::int64_t>(table->row_count());
    return r;
  }

  std::string err;
  std::vector<Slot> hits = matching_slots(*table, s.where, &err);
  if (!err.empty()) return error(err);

  if (s.count_star) {
    if (flags_.count_on_empty_crash && hits.empty()) {
      return crash("segfault in COUNT(*): empty result, check missing");
    }
    ExecResult r;
    r.affected = static_cast<std::int64_t>(hits.size());
    return r;
  }

  if (s.order_by.has_value()) {
    // --- mysql-ei-02: "a query which selects zero records and has an
    // 'order by' clause will cause the server to crash ... missing
    // initialization statements" in the sort path ---
    if (flags_.orderby_empty_missing_init && hits.empty()) {
      return crash("uninitialized sort buffer dereferenced for empty "
                   "result set");
    }
    const int col = table->schema().find(s.order_by->column);
    if (col < 0) return error("unknown column " + s.order_by->column);
    const auto before = [&](Slot a, Slot b) {
      const int cmp = compare(table->row(a)[static_cast<std::size_t>(col)],
                              table->row(b)[static_cast<std::size_t>(col)]);
      return s.order_by->descending ? cmp > 0 : cmp < 0;
    };
    // On hits already in order a stable sort changes nothing, ties
    // included, so it is skipped.
    if (!std::is_sorted(hits.begin(), hits.end(), before)) {
      std::stable_sort(hits.begin(), hits.end(), before);
    }
  }

  // Projection columns resolve once; an unknown one is an error only if
  // some row is projected.
  std::vector<int> projection;
  const std::string* unknown = nullptr;
  for (const auto& name : s.columns) {
    projection.push_back(table->schema().find(name));
    if (projection.back() < 0 && unknown == nullptr) unknown = &name;
  }
  const std::size_t limit =
      s.limit.has_value() ? static_cast<std::size_t>(std::max<std::int64_t>(0, *s.limit))
                          : hits.size();
  ExecResult r;
  r.rows.reserve(std::min(limit, hits.size()));
  for (std::size_t i = 0; i < hits.size() && i < limit; ++i) {
    const std::span<const Value> row = table->row(hits[i]);
    if (s.columns.empty()) {
      r.rows.emplace_back(row.begin(), row.end());
    } else {
      if (unknown != nullptr) return error("unknown column " + *unknown);
      Row projected;
      projected.reserve(projection.size());
      for (const int col : projection) {
        projected.push_back(row[static_cast<std::size_t>(col)]);
      }
      r.rows.push_back(std::move(projected));
    }
  }
  r.affected = static_cast<std::int64_t>(r.rows.size());
  return r;
}

ExecResult Engine::run_insert(const InsertStatement& s) {
  const Table* table = find_table(s.table);
  if (table == nullptr) return error("unknown table " + s.table);
  if (s.values.size() != table->schema().columns.size()) {
    return error("arity mismatch for " + s.table);
  }
  mutable_table(s.table)->insert(s.values);
  ExecResult r;
  r.affected = 1;
  return r;
}

ExecResult Engine::run_update(const UpdateStatement& s) {
  const Table* found = find_table(s.table);
  if (found == nullptr) return error("unknown table " + s.table);
  const int col = found->schema().find(s.column);
  if (col < 0) return error("unknown column " + s.column);
  std::string err;

  if (flags_.update_index_scan_bug && col == 0) {
    // --- mysql-ei-01, the buggy path: drive the update through the index
    // scan cursor. Moving a key forward leaves the stale entry behind
    // (duplicate values in the index); the post-statement consistency
    // check fires and the server dies. ---
    Table* table = mutable_table(s.table);
    const std::vector<int> columns = resolve(table->schema(), s.where);
    std::int64_t touched = 0;
    for (auto cursor = table->index_scan(); !cursor.done(); cursor.next()) {
      const Slot slot = cursor.slot();
      if (!table->is_live(slot)) continue;
      if (!matches(table->row(slot), s.where, columns, &err)) {
        if (!err.empty()) return error(err);
        continue;
      }
      table->update_cell(slot, col, s.value,
                         /*corrupt_index_on_key_move=*/true);
      ++touched;
      // The scan trips over the stale entry as soon as one exists — the
      // crash is mid-statement, leaving the update half applied (as the
      // real server did).
      if (!table->check_index()) {
        return crash("index consistency check failed during UPDATE: "
                     "duplicate values in the index");
      }
    }
    ExecResult r;
    r.affected = touched;
    return r;
  }

  // The fixed algorithm (the paper's fix): "first scanning for all matching
  // rows and then updating the found rows". When no matched cell would
  // change, the table is not written, so it stays shared.
  const std::vector<Slot> hits = matching_slots(*found, s.where, &err);
  if (!err.empty()) return error(err);
  const auto changes = [&](Slot slot) {
    return compare(found->row(slot)[static_cast<std::size_t>(col)],
                   s.value) != 0;
  };
  if (std::any_of(hits.begin(), hits.end(), changes)) {
    Table* table = mutable_table(s.table);
    for (Slot slot : hits) table->update_cell(slot, col, s.value);
  }
  ExecResult r;
  r.affected = static_cast<std::int64_t>(hits.size());
  return r;
}

ExecResult Engine::run_delete(const DeleteStatement& s) {
  const Table* table = find_table(s.table);
  if (table == nullptr) return error("unknown table " + s.table);
  std::string err;
  const std::vector<Slot> hits = matching_slots(*table, s.where, &err);
  if (!err.empty()) return error(err);
  if (!hits.empty()) {
    Table* target = mutable_table(s.table);
    for (Slot slot : hits) target->erase(slot);
  }
  ExecResult r;
  r.affected = static_cast<std::int64_t>(hits.size());
  return r;
}

ExecResult Engine::run_create(const CreateStatement& s) {
  if (tables_.contains(s.table)) return error("table exists: " + s.table);
  tables_.emplace(s.table, std::make_shared<Table>(s.schema));
  return {};
}

ExecResult Engine::run_admin(const AdminStatement& s) {
  switch (s.kind) {
    case AdminStatement::Kind::kOptimize: {
      if (find_table(s.table) == nullptr) {
        return error("unknown table " + s.table);
      }
      // --- mysql-ei-04: "an OPTIMIZE TABLE query crashes the server ...
      // caused by a missing initialization statement" ---
      if (flags_.optimize_missing_init) {
        return crash("OPTIMIZE TABLE used an uninitialized repair context");
      }
      mutable_table(s.table)->compact();
      return {};
    }
    case AdminStatement::Kind::kLockTables:
      if (find_table(s.table) == nullptr) {
        return error("unknown table " + s.table);
      }
      locked_table_ = s.table;
      return {};
    case AdminStatement::Kind::kUnlockTables:
      locked_table_.clear();
      return {};
    case AdminStatement::Kind::kFlushTables:
      // --- mysql-ei-05: "a FLUSH TABLES command after a LOCK TABLES
      // command crashes the server": the flush path re-acquires locks the
      // session already holds. ---
      if (flags_.flush_after_lock_bug && holds_lock()) {
        return crash("FLUSH TABLES deadlocked on the session's own LOCK "
                     "TABLES lock and aborted");
      }
      return {};
  }
  return error("unhandled admin statement");
}

}  // namespace faultstudy::apps::sql
