#include "src/overlog/catalog.h"

#include <algorithm>

#include "src/base/logging.h"

namespace boom {

Status Catalog::Declare(const TableDef& def) {
  auto it = tables_.find(def.name);
  if (it != tables_.end()) {
    const TableDef& existing = it->second->def();
    if (existing.arity() != def.arity() || existing.key_columns != def.key_columns ||
        existing.kind != def.kind || existing.ttl_ms != def.ttl_ms) {
      return AlreadyExists("conflicting redefinition of table " + def.name);
    }
    return Status::Ok();
  }
  auto inserted = tables_.emplace(
      def.name, std::make_unique<Table>(def, static_cast<uint32_t>(by_id_.size())));
  Table* table = inserted.first->second.get();
  by_id_.push_back(table);
  auto by_name = [](const Table* a, const Table* b) { return a->name() < b->name(); };
  if (def.ttl_ms > 0) {
    ttl_tables_.insert(
        std::upper_bound(ttl_tables_.begin(), ttl_tables_.end(), table, by_name), table);
  }
  if (def.kind == TableKind::kEvent) {
    event_tables_.insert(
        std::upper_bound(event_tables_.begin(), event_tables_.end(), table, by_name), table);
  }
  return Status::Ok();
}

void Catalog::Truncate(size_t n) {
  auto dropped = [n](const Table* t) { return t->id() >= n; };
  ttl_tables_.erase(std::remove_if(ttl_tables_.begin(), ttl_tables_.end(), dropped),
                    ttl_tables_.end());
  event_tables_.erase(std::remove_if(event_tables_.begin(), event_tables_.end(), dropped),
                      event_tables_.end());
  while (by_id_.size() > n) {
    tables_.erase(by_id_.back()->name());
    by_id_.pop_back();
  }
}

Table* Catalog::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Catalog::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table& Catalog::Get(const std::string& name) {
  Table* t = Find(name);
  BOOM_CHECK(t != nullptr) << "unknown table " << name;
  return *t;
}

const Table& Catalog::Get(const std::string& name) const {
  const Table* t = Find(name);
  BOOM_CHECK(t != nullptr) << "unknown table " << name;
  return *t;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void Catalog::ClearEvents() {
  for (Table* table : event_tables_) {
    table->Clear();
  }
}

}  // namespace boom
