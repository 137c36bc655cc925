// Table heap + ordered index for the mini SQL engine.
//
// Storage is flat and chunked, so that copying a table (the copy-on-write
// clone, see engine.hpp) copies pointers, not rows:
//   * the heap is a list of chunks, each holding kChunkRows consecutive
//     slots' cells row-major, `arity` cells per slot; an erased slot stays
//     in place, marked dead, until compact();
//   * the index is a list of leaves, each a sorted vector of (key, slot)
//     entries, the key being the first column's value; read in order, the
//     leaves are one sorted sequence. A new entry goes in after every entry
//     with an equal key, so equal keys keep insertion order, as in a
//     multimap.
// A copy shares every chunk and leaf with the original; a write copies
// only the chunk or leaf it touches, and only if another table still
// shares it. Sharing follows the engine's thread-safety rules: a table
// that more than one lane reads keeps its own reference to each of its
// chunks and leaves and is never written, so a lane about to write one
// always sees use_count() > 1 and copies it first.
//
// The index is scanned through an explicit cursor. The cursor is what
// makes the paper's mysql-ei-01 bug expressible: an UPDATE that modifies
// the indexed column *while scanning the index* leaves the row's old entry
// behind and corrupts the index with duplicates.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "apps/sql/ast.hpp"
#include "apps/sql/value.hpp"

namespace faultstudy::apps::sql {

using Slot = std::uint32_t;

class Table {
  struct IndexEntry {
    Value key;
    Slot slot;
  };
  using Cells = std::vector<Value>;      ///< one chunk of the heap
  using Leaf = std::vector<IndexEntry>;  ///< one sorted run of the index
  /// An index entry's place: leaf number and offset in the leaf. The end
  /// of the index is {leaves, 0}.
  struct Pos {
    std::size_t leaf = 0;
    std::size_t at = 0;
    bool operator==(const Pos&) const = default;
  };

 public:
  /// Slots per heap chunk, and the most entries a leaf holds before it
  /// splits in two.
  static constexpr Slot kChunkRows = 64;
  static constexpr std::size_t kLeafEntries = 64;

  Table() = default;
  explicit Table(Schema schema)
      : schema_(std::move(schema)), arity_(schema_.columns.size()) {}

  const Schema& schema() const noexcept { return schema_; }
  std::size_t row_count() const noexcept { return live_rows_; }

  /// Appends a row (must match the schema arity); indexes column 0.
  Slot insert(const Row& row);

  /// Marks a slot dead and removes its index entry.
  void erase(Slot slot);

  bool is_live(Slot slot) const noexcept {
    return slot < dead_.size() && !dead_[slot];
  }
  /// The slot's cells; a dead slot keeps the values it had when erased.
  std::span<const Value> row(Slot slot) const {
    const Cells& chunk = *heap_[slot / kChunkRows];
    return {chunk.data() + std::size_t{slot % kChunkRows} * arity_, arity_};
  }

  /// In-place cell update, maintaining the index when column 0 changes.
  /// If `corrupt_index_on_key_move` is set (the injected mysql-ei-01 bug),
  /// the OLD index entry is left behind, creating duplicate index values.
  void update_cell(Slot slot, int column, Value value,
                   bool corrupt_index_on_key_move = false);

  /// All live slots in heap order.
  std::vector<Slot> scan_heap() const;

  /// Ordered index scan cursor over (key, slot) entries: a position in the
  /// index. An index write shifts the entries under it, so a cursor is only
  /// meaningful while the index is unchanged. The one scan that writes (the
  /// mysql-ei-01 buggy UPDATE) checks the index after every row it updates
  /// and crashes on the first key move, before it steps again, so it sees
  /// the entries a multimap walk would.
  class IndexCursor {
   public:
    bool done() const noexcept { return pos_.leaf >= table_->leaves_.size(); }
    Slot slot() const { return table_->entry(pos_).slot; }
    const Value& key() const { return table_->entry(pos_).key; }
    void next() noexcept { table_->advance(pos_); }

   private:
    friend class Table;
    explicit IndexCursor(const Table& table) : table_(&table) {}
    const Table* table_;
    Pos pos_;
  };

  IndexCursor index_scan() const { return IndexCursor(*this); }

  /// The live slots the index lists under a key k with `k op key` (op is
  /// not kNe), in heap order, each once. Exact on an index the mysql-ei-01
  /// bug corrupted too: a stale entry adds a candidate whose row no longer
  /// matches, so callers still evaluate their predicates on every slot.
  std::vector<Slot> index_range(CompareOp op, const Value& key) const;

  /// Index entries per key value (tests use this to detect the planted
  /// duplicate-key corruption).
  std::size_t index_entries() const noexcept { return index_size_; }

  /// Verifies index/heap consistency: every live row indexed exactly once
  /// under its current key. Returns false when corrupted.
  bool check_index() const;

  /// True when erased rows still occupy heap slots (compact() reclaims them).
  bool has_dead_slots() const noexcept { return live_rows_ != dead_.size(); }

  /// OPTIMIZE TABLE-style compaction: rebuilds heap and index from live
  /// rows, dropping dead slots.
  void compact();

 private:
  const IndexEntry& entry(Pos p) const { return (*leaves_[p.leaf])[p.at]; }
  /// Steps `p` to the next entry in key order.
  void advance(Pos& p) const noexcept {
    if (++p.at == leaves_[p.leaf]->size()) {
      ++p.leaf;
      p.at = 0;
    }
  }
  /// The first entry whose key is not below `key` / is above `key`.
  Pos lower_bound(const Value& key) const;
  Pos upper_bound(const Value& key) const;

  /// The slot's cells, for writing.
  Value* mutable_row(Slot slot);
  /// Adds (key, slot) after every entry whose key equals `key`.
  void index_insert(const Value& key, Slot slot);
  /// Removes the first entry (key, slot), if there is one.
  void index_erase(const Value& key, Slot slot);

  Schema schema_;
  std::size_t arity_ = 0;
  std::vector<std::shared_ptr<Cells>> heap_;  ///< kChunkRows slots each
  std::vector<bool> dead_;                    ///< one per slot
  std::size_t live_rows_ = 0;
  std::vector<std::shared_ptr<Leaf>> leaves_;  ///< non-empty, in key order
  std::size_t index_size_ = 0;
};

}  // namespace faultstudy::apps::sql
