#include "src/overlog/table.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

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

Table::Table(TableDef def) : def_(std::move(def)) {
  effective_key_ = def_.EffectiveKey();
}

Table::InsertOutcome Table::Insert(Tuple tuple, double now_ms) {
  BOOM_CHECK(tuple.size() == def_.arity())
      << "arity mismatch inserting into " << def_.name << ": got " << tuple.size()
      << ", want " << def_.arity();
  Tuple key = KeyOf(tuple);
  if (def_.ttl_ms > 0) {
    row_time_[key] = now_ms;  // stamp, or refresh the lease on re-insertion
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

const Tuple* Table::ProbeKey(const TupleView& key) {
  ++probes_;
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return nullptr;
  }
  ++probe_hits_;
  return &it->second;
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

uint64_t Table::DistinctCount(size_t col) const {
  if (col >= def_.arity()) {
    return 0;
  }
  std::unordered_set<Tuple, TupleHash, TupleEq> values;
  values.reserve(rows_.size());
  const std::vector<size_t> cols{col};
  for (const auto& [key, row] : rows_) {
    values.insert(row.Project(cols));
  }
  return values.size();
}

void Table::AssertProbeFresh(uint64_t generation) const {
  BOOM_CHECK(version_ == generation)
      << "stale Table::Probe result used after mutation of " << def_.name << " (captured gen "
      << generation << ", now " << version_ << ")";
}

void Table::Clear() {
  if (!rows_.empty()) {
    rows_.clear();
    row_time_.clear();
    for (auto& [cols, index] : indexes_) {
      index.clear();
    }
    ++version_;
  }
}

std::vector<Tuple> Table::ExpireOlderThan(double cutoff_ms) {
  std::vector<Tuple> expired;
  if (def_.ttl_ms <= 0) {
    return expired;
  }
  for (auto it = row_time_.begin(); it != row_time_.end();) {
    if (it->second < cutoff_ms) {
      auto row_it = rows_.find(it->first);
      if (row_it != rows_.end()) {
        expired.push_back(row_it->second);
        RemoveRowFromIndexes(&row_it->second);
        rows_.erase(row_it);
      }
      it = row_time_.erase(it);
    } else {
      ++it;
    }
  }
  if (!expired.empty()) {
    ++version_;
  }
  return expired;
}

}  // namespace boom
