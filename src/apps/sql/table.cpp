#include "apps/sql/table.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace faultstudy::apps::sql {

namespace {
/// Orders index entries against a bare key, for lower_bound/upper_bound.
struct KeyOrder {
  template <class Entry>
  bool operator()(const Entry& e, const Value& key) const noexcept {
    return compare(e.key, key) < 0;
  }
  template <class Entry>
  bool operator()(const Value& key, const Entry& e) const noexcept {
    return compare(key, e.key) < 0;
  }
};

/// `part`'s target for writing: copied first, with room for `capacity`
/// elements, when another table shares it.
template <class Part>
Part& unshare(std::shared_ptr<Part>& part, std::size_t capacity) {
  if (part.use_count() > 1) {
    auto copy = std::make_shared<Part>();
    copy->reserve(capacity);
    copy->assign(part->begin(), part->end());
    part = std::move(copy);
  }
  return *part;
}
}  // namespace

Slot Table::insert(const Row& row) {
  if (row.size() != arity_) {
    throw std::invalid_argument("row arity does not match the schema");
  }
  const auto slot = static_cast<Slot>(dead_.size());
  if (slot % kChunkRows == 0) heap_.push_back(std::make_shared<Cells>());
  Cells& chunk = unshare(heap_.back(), std::size_t{kChunkRows} * arity_);
  chunk.insert(chunk.end(), row.begin(), row.end());
  dead_.push_back(false);
  ++live_rows_;
  if (arity_ > 0) index_insert(row[0], slot);
  return slot;
}

void Table::erase(Slot slot) {
  if (!is_live(slot)) return;
  dead_[slot] = true;
  --live_rows_;
  if (arity_ > 0) index_erase(row(slot)[0], slot);
}

void Table::update_cell(Slot slot, int column, Value value,
                        bool corrupt_index_on_key_move) {
  if (!is_live(slot)) return;
  if (column < 0 || static_cast<std::size_t>(column) >= arity_) return;
  const Value& old = row(slot)[static_cast<std::size_t>(column)];
  if (compare(old, value) == 0) return;  // equal values are identical
  if (column == 0) {
    // Correct behavior: move the index entry to the new key. The buggy
    // path (mysql-ei-01) skips the erase: the stale entry stays behind,
    // so the row is now indexed under two keys.
    if (!corrupt_index_on_key_move) index_erase(old, slot);
    index_insert(value, slot);
  }
  mutable_row(slot)[column] = std::move(value);
}

std::vector<Slot> Table::scan_heap() const {
  std::vector<Slot> out;
  out.reserve(live_rows_);
  for (Slot s = 0; s < dead_.size(); ++s) {
    if (!dead_[s]) out.push_back(s);
  }
  return out;
}

std::vector<Slot> Table::index_range(CompareOp op, const Value& key) const {
  Pos lo;
  Pos hi{leaves_.size(), 0};
  switch (op) {
    case CompareOp::kEq:
      lo = lower_bound(key);
      hi = upper_bound(key);
      break;
    case CompareOp::kLt: hi = lower_bound(key); break;
    case CompareOp::kLe: hi = upper_bound(key); break;
    case CompareOp::kGt: lo = upper_bound(key); break;
    case CompareOp::kGe: lo = lower_bound(key); break;
    case CompareOp::kNe: break;
  }
  std::size_t candidates = hi.at;
  for (std::size_t l = lo.leaf; l < hi.leaf; ++l) {
    candidates += leaves_[l]->size();
  }
  candidates -= lo.at;
  std::vector<Slot> out;
  out.reserve(candidates);
  // Keys that grew with the heap (the common case) list their slots in
  // heap order already; only a list that is not strictly ascending needs
  // sorting, and only such a list can hold a slot twice.
  bool ascending = true;
  for (Pos p = lo; p != hi; advance(p)) {
    const Slot slot = entry(p).slot;
    if (!is_live(slot)) continue;
    if (!out.empty() && slot <= out.back()) ascending = false;
    out.push_back(slot);
  }
  if (!ascending) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

bool Table::check_index() const {
  if (index_size_ != live_rows_) return false;
  for (const auto& leaf : leaves_) {
    for (const auto& [key, slot] : *leaf) {
      if (!is_live(slot)) return false;
      if (compare(row(slot)[0], key) != 0) return false;
    }
  }
  return true;
}

void Table::compact() {
  std::vector<std::shared_ptr<Cells>> heap;
  Leaf entries;  // (key, new slot) per live row
  entries.reserve(live_rows_);
  Slot slot = 0;  // the next live row's new slot
  for (Slot s = 0; s < dead_.size(); ++s) {
    if (dead_[s]) continue;
    if (slot % kChunkRows == 0) {
      heap.push_back(std::make_shared<Cells>());
      heap.back()->reserve(std::size_t{kChunkRows} * arity_);
    }
    const std::span<const Value> cells = row(s);
    heap.back()->insert(heap.back()->end(), cells.begin(), cells.end());
    if (arity_ > 0) entries.push_back({cells[0], slot});
    ++slot;
  }
  heap_ = std::move(heap);
  dead_.assign(slot, false);

  // The index as inserting the live rows in heap order would build it:
  // sorted by key, equal keys in slot order; cut into half-full leaves,
  // as a split leaves them.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const IndexEntry& a, const IndexEntry& b) {
                     return compare(a.key, b.key) < 0;
                   });
  leaves_.clear();
  constexpr std::size_t kHalf = kLeafEntries / 2;
  for (std::size_t i = 0; i < entries.size(); i += kHalf) {
    auto leaf = std::make_shared<Leaf>();
    leaf->reserve(kLeafEntries + 1);
    const auto first = entries.begin() + static_cast<std::ptrdiff_t>(i);
    leaf->assign(first, first + static_cast<std::ptrdiff_t>(
                                    std::min(kHalf, entries.size() - i)));
    leaves_.push_back(std::move(leaf));
  }
  index_size_ = entries.size();
}

Table::Pos Table::lower_bound(const Value& key) const {
  // The first leaf that ends at or above `key` holds the answer.
  const auto leaf = std::partition_point(
      leaves_.begin(), leaves_.end(),
      [&](const auto& l) { return compare(l->back().key, key) < 0; });
  if (leaf == leaves_.end()) return {leaves_.size(), 0};
  const Leaf& entries = **leaf;
  return {static_cast<std::size_t>(leaf - leaves_.begin()),
          static_cast<std::size_t>(
              std::lower_bound(entries.begin(), entries.end(), key,
                               KeyOrder{}) -
              entries.begin())};
}

Table::Pos Table::upper_bound(const Value& key) const {
  // The first leaf that ends above `key` holds the answer.
  const auto leaf = std::partition_point(
      leaves_.begin(), leaves_.end(),
      [&](const auto& l) { return compare(l->back().key, key) <= 0; });
  if (leaf == leaves_.end()) return {leaves_.size(), 0};
  const Leaf& entries = **leaf;
  return {static_cast<std::size_t>(leaf - leaves_.begin()),
          static_cast<std::size_t>(
              std::upper_bound(entries.begin(), entries.end(), key,
                               KeyOrder{}) -
              entries.begin())};
}

Value* Table::mutable_row(Slot slot) {
  Cells& chunk =
      unshare(heap_[slot / kChunkRows], std::size_t{kChunkRows} * arity_);
  return chunk.data() + std::size_t{slot % kChunkRows} * arity_;
}

void Table::index_insert(const Value& key, Slot slot) {
  Pos p = upper_bound(key);
  if (leaves_.empty()) {
    leaves_.push_back(std::make_shared<Leaf>());
  } else if (p.leaf == leaves_.size()) {
    p = {p.leaf - 1, leaves_.back()->size()};  // after the last entry
  }
  Leaf& leaf = unshare(leaves_[p.leaf], kLeafEntries + 1);
  leaf.insert(leaf.begin() + static_cast<std::ptrdiff_t>(p.at),
              IndexEntry{key, slot});
  if (leaf.size() > kLeafEntries) {
    // Split: the upper half moves to a new leaf right after this one.
    const auto half =
        leaf.begin() + static_cast<std::ptrdiff_t>(kLeafEntries / 2);
    auto upper = std::make_shared<Leaf>();
    upper->reserve(kLeafEntries + 1);
    upper->assign(std::make_move_iterator(half),
                  std::make_move_iterator(leaf.end()));
    leaf.erase(half, leaf.end());
    leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(p.leaf + 1),
                   std::move(upper));
  }
  ++index_size_;
}

void Table::index_erase(const Value& key, Slot slot) {
  for (Pos p = lower_bound(key); p.leaf < leaves_.size(); advance(p)) {
    const IndexEntry& e = entry(p);
    if (compare(e.key, key) != 0) return;
    if (e.slot != slot) continue;
    Leaf& leaf = unshare(leaves_[p.leaf], kLeafEntries + 1);
    leaf.erase(leaf.begin() + static_cast<std::ptrdiff_t>(p.at));
    if (leaf.empty()) {
      leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(p.leaf));
    }
    --index_size_;
    return;
  }
}

}  // namespace faultstudy::apps::sql
