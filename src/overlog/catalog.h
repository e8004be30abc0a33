// Catalog: the set of named tables owned by one Engine instance (one logical node).

#ifndef SRC_OVERLOG_CATALOG_H_
#define SRC_OVERLOG_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/table.h"

namespace boom {

class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Creates a table. Re-declaring an existing table with an identical definition is a no-op;
  // a conflicting redefinition is an error.
  Status Declare(const TableDef& def);

  bool Has(const std::string& name) const { return tables_.count(name) > 0; }

  // nullptr when not declared.
  Table* Find(const std::string& name);
  const Table* Find(const std::string& name) const;

  // Aborts if not declared; use when the planner has already validated the program.
  Table& Get(const std::string& name);
  const Table& Get(const std::string& name) const;

  // Dense ids: tables are numbered 0..size()-1 in declaration order, so an id (Table::id())
  // resolved at compile time stays valid. Only the newest tables are ever dropped.
  size_t size() const { return by_id_.size(); }
  Table& ById(uint32_t id) { return *by_id_[id]; }

  // Drops every table declared after the first `n` (ids >= n): the rollback of a failed
  // install.
  void Truncate(size_t n);

  std::vector<std::string> TableNames() const;

  // Tables with a TTL, sorted by name (the order TableNames-based iteration used). Cached at
  // Declare time so the engine's per-tick expiry pass doesn't allocate every table name.
  const std::vector<Table*>& TtlTables() const { return ttl_tables_; }

  // Clears all tables of kind kEvent (end-of-timestep semantics), without calling removal
  // observers (Table::ObserveClear). Uses a Declare-time cache of event tables, so ticks
  // don't scan the whole catalog.
  void ClearEvents();

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<Table*> by_id_;
  std::vector<Table*> ttl_tables_;    // sorted by name
  std::vector<Table*> event_tables_;  // sorted by name
};

}  // namespace boom

#endif  // SRC_OVERLOG_CATALOG_H_
