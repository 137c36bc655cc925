#include "apps/sql/table.hpp"

#include <algorithm>
#include <tuple>

namespace faultstudy::apps::sql {

Slot Table::insert(Row row) {
  const auto slot = static_cast<Slot>(rows_.size());
  if (!row.empty()) index_.emplace(row[0], slot);
  rows_.push_back(std::move(row));
  dead_.push_back(false);
  ++live_rows_;
  return slot;
}

void Table::erase(Slot slot) {
  if (slot >= rows_.size() || dead_[slot]) return;
  dead_[slot] = true;
  --live_rows_;
  const auto [lo, hi] = index_.equal_range(rows_[slot][0]);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == slot) {
      index_.erase(it);
      break;
    }
  }
}

bool Table::is_live(Slot slot) const noexcept {
  return slot < rows_.size() && !dead_[slot];
}

void Table::update_cell(Slot slot, int column, Value value,
                        bool corrupt_index_on_key_move) {
  if (!is_live(slot)) return;
  Row& r = rows_[slot];
  if (column < 0 || static_cast<std::size_t>(column) >= r.size()) return;

  if (column == 0 && compare(r[0], value) != 0) {
    if (!corrupt_index_on_key_move) {
      // Correct behavior: move the index entry to the new key.
      const auto [lo, hi] = index_.equal_range(r[0]);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == slot) {
          index_.erase(it);
          break;
        }
      }
    }
    // The buggy path (mysql-ei-01) skips the erase: the stale entry stays
    // behind, so the row is now indexed under two keys.
    index_.emplace(value, slot);
  }
  r[static_cast<std::size_t>(column)] = std::move(value);
}

std::vector<Slot> Table::scan_heap() const {
  std::vector<Slot> out;
  for (Slot s = 0; s < rows_.size(); ++s) {
    if (!dead_[s]) out.push_back(s);
  }
  return out;
}

Table::IndexCursor Table::index_scan() const {
  return IndexCursor(index_.begin(), index_.end());
}

std::vector<Slot> Table::index_range(CompareOp op, const Value& key) const {
  auto lo = index_.begin();
  auto hi = index_.end();
  switch (op) {
    case CompareOp::kEq:
      std::tie(lo, hi) = index_.equal_range(key);
      break;
    case CompareOp::kLt:
      hi = index_.lower_bound(key);
      break;
    case CompareOp::kLe:
      hi = index_.upper_bound(key);
      break;
    case CompareOp::kGt:
      lo = index_.upper_bound(key);
      break;
    case CompareOp::kGe:
      lo = index_.lower_bound(key);
      break;
    case CompareOp::kNe:
      break;
  }
  std::vector<Slot> out;
  for (auto it = lo; it != hi; ++it) {
    if (is_live(it->second)) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Table::check_index() const {
  if (index_.size() != live_rows_) return false;
  for (const auto& [key, slot] : index_) {
    if (!is_live(slot)) return false;
    if (compare(rows_[slot][0], key) != 0) return false;
  }
  return true;
}

void Table::compact() {
  std::vector<Row> live;
  live.reserve(live_rows_);
  for (Slot s = 0; s < rows_.size(); ++s) {
    if (!dead_[s]) live.push_back(std::move(rows_[s]));
  }
  rows_.clear();
  dead_.clear();
  index_.clear();
  live_rows_ = 0;
  for (auto& row : live) insert(std::move(row));
}

}  // namespace faultstudy::apps::sql
