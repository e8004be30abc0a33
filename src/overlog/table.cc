#include "src/overlog/table.h"

#include <algorithm>
#include <numeric>

#include "src/base/logging.h"

namespace boom {

std::vector<size_t> TableDef::EffectiveKey() const {
  if (!key_columns.empty()) {
    return key_columns;
  }
  std::vector<size_t> all(columns.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

bool TableDef::KeyCoveredBy(const std::vector<size_t>& cols) const {
  const std::vector<size_t> key = EffectiveKey();
  return std::all_of(key.begin(), key.end(), [&cols](size_t col) {
    return std::find(cols.begin(), cols.end(), col) != cols.end();
  });
}

Table::Table(TableDef def, uint32_t id) : def_(std::move(def)), id_(id) {
  effective_key_ = def_.EffectiveKey();
}

Table::InsertOutcome Table::Insert(Tuple tuple, double now_ms) {
  BOOM_CHECK(tuple.size() == def_.arity())
      << "arity mismatch inserting into " << def_.name << ": got " << tuple.size()
      << ", want " << def_.arity();
  Tuple key = KeyOf(tuple);
  if (def_.ttl_ms > 0) {
    // Stamp, or refresh the lease on re-insertion.
    auto [stamp, fresh] = row_time_.try_emplace(key, now_ms);
    if (fresh || stamp->second != now_ms) {
      stamp->second = now_ms;
      // The engine's clock never runs backwards, so this is an append; an older stamp
      // (a standalone table driven out of order) is placed in order.
      auto pos = expiry_queue_.end();
      if (expiry_head_ < expiry_queue_.size() && now_ms < expiry_queue_.back().first) {
        pos = std::upper_bound(
            expiry_queue_.begin() + static_cast<long>(expiry_head_), expiry_queue_.end(),
            now_ms,
            [](double t, const std::pair<double, Tuple>& entry) { return t < entry.first; });
      }
      expiry_queue_.emplace(pos, now_ms, key);
    }
  }
  // Single hash-table traversal for both the new-key and existing-key cases; the mapped
  // Tuple is only copied (a refcount bump) when the key is actually new.
  auto [it, added] = rows_.try_emplace(std::move(key), tuple);
  if (added) {
    AddRowToIndexes(&it->second);
    ++version_;
    return InsertOutcome::kInserted;
  }
  if (it->second == tuple) {
    return InsertOutcome::kUnchanged;
  }
  if (on_remove_) {
    on_remove_(it->second);
  }
  // The node address is stable: re-index the row under its new payload.
  RemoveRowFromIndexes(&it->second);
  it->second = std::move(tuple);
  AddRowToIndexes(&it->second);
  ++version_;
  return InsertOutcome::kReplaced;
}

bool Table::Erase(const Tuple& tuple) {
  auto it = rows_.find(KeyOf(tuple));
  if (it == rows_.end() || it->second != tuple) {
    return false;
  }
  if (on_remove_) {
    on_remove_(it->second);
  }
  RemoveRowFromIndexes(&it->second);
  rows_.erase(it);
  ++version_;
  return true;
}

bool Table::EraseByKey(const Tuple& key) {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return false;
  }
  if (on_remove_) {
    on_remove_(it->second);
  }
  RemoveRowFromIndexes(&it->second);
  rows_.erase(it);
  ++version_;
  return true;
}

TupleView Table::ProjectView(const Tuple& row, const std::vector<size_t>& cols) {
  project_scratch_.clear();
  for (size_t col : cols) {
    project_scratch_.push_back(row[col]);
  }
  return TupleView::Of(project_scratch_.data(), project_scratch_.size());
}

void Table::IndexRow(Index& index, const std::vector<size_t>& cols, const Tuple* row) {
  const TupleView key = ProjectView(*row, cols);
  auto bucket_it = index.find(key);
  if (bucket_it == index.end()) {
    bucket_it = index.try_emplace(Tuple(key.data, key.size)).first;
  }
  bucket_it->second.push_back(row);
}

void Table::RemoveRowFromIndexes(const Tuple* row) {
  for (auto& [cols, index] : indexes_) {
    auto bucket_it = index.find(ProjectView(*row, cols));
    if (bucket_it == index.end()) {
      continue;
    }
    std::vector<const Tuple*>& bucket = bucket_it->second;
    // find + erase keeps the surviving rows' relative order, which derivation order (and
    // with it trace order) observes.
    auto pos = std::find(bucket.begin(), bucket.end(), row);
    if (pos != bucket.end()) {
      bucket.erase(pos);
    }
    if (bucket.empty()) {
      index.erase(bucket_it);
    }
  }
}

void Table::AddRowToIndexes(const Tuple* row) {
  for (auto& [cols, index] : indexes_) {
    IndexRow(index, cols, row);
  }
}

const Tuple* Table::LookupByKey(const Tuple& key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

bool Table::Contains(const Tuple& tuple) const {
  const Tuple* row = LookupByKey(KeyOf(tuple));
  return row != nullptr && *row == tuple;
}

std::vector<Tuple> Table::Rows() const {
  std::vector<Tuple> out;
  out.reserve(rows_.size());
  for (const auto& [key, row] : rows_) {
    out.push_back(row);
  }
  return out;
}

const Tuple* Table::ProbeKey(const std::vector<size_t>& cols, const Value* vals) {
  ++probes_;
  // Usually the key columns lead `cols`, so `vals` starts with the key and only the probe
  // columns after it need checking. Otherwise project the key out and check every column.
  const size_t key_size = effective_key_.size();
  const Value* key_vals = vals;
  size_t check_from = key_size;
  if (!std::equal(effective_key_.begin(), effective_key_.end(), cols.begin())) {
    project_scratch_.clear();
    for (size_t col : effective_key_) {
      project_scratch_.push_back(vals[std::find(cols.begin(), cols.end(), col) - cols.begin()]);
    }
    key_vals = project_scratch_.data();
    check_from = 0;
  }
  auto it = rows_.find(TupleView::Of(key_vals, key_size));
  if (it == rows_.end()) {
    return nullptr;
  }
  const Tuple& row = it->second;
  for (size_t i = check_from; i < cols.size(); ++i) {
    if (!(row[cols[i]] == vals[i])) {
      return nullptr;
    }
  }
  ++probe_hits_;
  return &row;
}

const Index& Table::GetIndex(const std::vector<size_t>& cols) {
  auto it = indexes_.find(cols);
  if (it != indexes_.end()) {
    return it->second;
  }
  Index& index = indexes_[cols];
  for (const auto& [key, row] : rows_) {
    IndexRow(index, cols, &row);
  }
  return index;
}

const std::vector<const Tuple*>& Table::Probe(const std::vector<size_t>& cols,
                                              const Tuple& probe) {
  const Index& index = GetIndex(cols);
  ++probes_;
  auto it = index.find(probe);
  if (it == index.end()) {
    return empty_result_;
  }
  ++probe_hits_;
  return it->second;
}

const std::vector<const Tuple*>& Table::Probe(const std::vector<size_t>& cols,
                                              const TupleView& probe) {
  const Index& index = GetIndex(cols);
  ++probes_;
  auto it = index.find(probe);
  if (it == index.end()) {
    return empty_result_;
  }
  ++probe_hits_;
  return it->second;
}

void Table::AssertProbeFresh(uint64_t generation) const {
  BOOM_CHECK(version_ == generation)
      << "stale Table::Probe result used after mutation of " << def_.name << " (captured gen "
      << generation << ", now " << version_ << ")";
}

void Table::ObserveClear() const {
  if (on_remove_) {
    for (const auto& [key, row] : rows_) {
      on_remove_(row);
    }
  }
}

void Table::Clear() {
  if (!rows_.empty()) {
    rows_.clear();
    row_time_.clear();
    expiry_queue_.clear();
    expiry_head_ = 0;
    for (auto& [cols, index] : indexes_) {
      index.clear();
    }
    ++version_;
  }
}

std::vector<Tuple> Table::ExpireOlderThan(double cutoff_ms) {
  std::vector<Tuple> expired;
  while (expiry_head_ < expiry_queue_.size() &&
         expiry_queue_[expiry_head_].first < cutoff_ms) {
    auto [stamp, key] = std::move(expiry_queue_[expiry_head_++]);
    auto time_it = row_time_.find(key);
    if (time_it == row_time_.end() || time_it->second != stamp) {
      continue;  // stale: refreshed since, or already expired
    }
    row_time_.erase(time_it);
    auto row_it = rows_.find(key);
    if (row_it != rows_.end()) {
      if (on_remove_) {
        on_remove_(row_it->second);
      }
      expired.push_back(row_it->second);
      RemoveRowFromIndexes(&row_it->second);
      rows_.erase(row_it);
    }
  }
  // Drop the consumed prefix once it is at least half the queue: a compaction moves no more
  // entries than it drops, so the cost stays amortized O(expired).
  if (expiry_head_ * 2 >= expiry_queue_.size()) {
    expiry_queue_.erase(expiry_queue_.begin(),
                        expiry_queue_.begin() + static_cast<long>(expiry_head_));
    expiry_head_ = 0;
  }
  if (!expired.empty()) {
    ++version_;
  }
  return expired;
}

}  // namespace boom
