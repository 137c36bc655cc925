// Table heap + ordered index for the mini SQL engine.
//
// The index is an ordered multimap from the first column's value to row
// slots, scanned through an explicit cursor. The cursor is what makes the
// paper's mysql-ei-01 bug expressible: an UPDATE that modifies the indexed
// column *while scanning the index tree* re-encounters rows it moved ahead
// of the cursor and corrupts the index with duplicates.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/sql/ast.hpp"
#include "apps/sql/value.hpp"

namespace faultstudy::apps::sql {

using Slot = std::uint32_t;

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const noexcept { return schema_; }
  std::size_t row_count() const noexcept { return live_rows_; }

  /// Appends a row (must match the schema arity); indexes column 0.
  Slot insert(Row row);

  /// Marks a slot dead and removes its index entry.
  void erase(Slot slot);

  bool is_live(Slot slot) const noexcept;
  const Row& row(Slot slot) const { return rows_.at(slot); }

  /// In-place cell update, maintaining the index when column 0 changes.
  /// If `corrupt_index_on_key_move` is set (the injected mysql-ei-01 bug),
  /// the OLD index entry is left behind, creating duplicate index values.
  void update_cell(Slot slot, int column, Value value,
                   bool corrupt_index_on_key_move = false);

  /// All live slots in heap order.
  std::vector<Slot> scan_heap() const;

  /// Ordered index scan cursor over (key, slot) pairs.
  class IndexCursor {
   public:
    bool done() const noexcept { return it_ == end_; }
    Slot slot() const { return it_->second; }
    const Value& key() const { return it_->first; }
    void next() { ++it_; }

   private:
    friend class Table;
    using Iter = std::multimap<Value, Slot, bool (*)(const Value&, const Value&)>::const_iterator;
    IndexCursor(Iter it, Iter end) : it_(it), end_(end) {}
    Iter it_;
    Iter end_;
  };

  IndexCursor index_scan() const;

  /// The live slots the index lists under a key k with `k op key` (op is
  /// not kNe), in heap order, each once. Exact on an index the mysql-ei-01
  /// bug corrupted too: a stale entry adds a candidate whose row no longer
  /// matches, so callers still evaluate their predicates on every slot.
  std::vector<Slot> index_range(CompareOp op, const Value& key) const;

  /// Index entries per key value (tests use this to detect the planted
  /// duplicate-key corruption).
  std::size_t index_entries() const noexcept { return index_.size(); }

  /// Verifies index/heap consistency: every live row indexed exactly once
  /// under its current key. Returns false when corrupted.
  bool check_index() const;

  /// True when erased rows still occupy heap slots (compact() reclaims them).
  bool has_dead_slots() const noexcept { return live_rows_ != rows_.size(); }

  /// OPTIMIZE TABLE-style compaction: rebuilds heap and index from live
  /// rows, dropping dead slots.
  void compact();

 private:
  static bool value_less(const Value& a, const Value& b) {
    return compare(a, b) < 0;
  }

  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> dead_;
  std::size_t live_rows_ = 0;
  std::multimap<Value, Slot, bool (*)(const Value&, const Value&)> index_{
      &Table::value_less};
};

}  // namespace faultstudy::apps::sql
