// Table: a materialized Overlog relation with primary-key semantics and secondary hash
// indexes that are kept up to date in place.
//
// Overlog tables declare a primary key (subset of columns). Inserting a tuple whose key is
// already present replaces the old row (update-in-place semantics, as in P2/JOL). Tables with
// no declared key treat every column as the key, i.e. plain set semantics.
//
// Every probe takes one of two paths:
//   - Key lookup (ProbeKey): the probe columns cover the whole effective key, so the row map
//     itself answers with 0 or 1 rows. No secondary index exists for such a probe.
//   - Secondary index (Probe): built from the rows on the first probe of a column set, then
//     updated in place by every Insert (new key or replace), Erase/EraseByKey, Clear and
//     ExpireOlderThan. No mutation ever forces a rebuild. A bucket lists its rows in the
//     order they entered the index; removing a row keeps the survivors' relative order.
//
// Event tables hold tuples for a single engine timestep; the Engine clears them between ticks.

#ifndef SRC_OVERLOG_TABLE_H_
#define SRC_OVERLOG_TABLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/tuple.h"

namespace boom {

enum class TableKind {
  kTable,  // persistent across timesteps
  kEvent,  // cleared at the end of each timestep
};

struct TableDef {
  std::string name;
  std::vector<std::string> columns;  // column names (for diagnostics; arity = size)
  std::vector<size_t> key_columns;   // empty => all columns form the key
  TableKind kind = TableKind::kTable;
  // Soft state (P2-style): rows older than this expire unless refreshed by re-insertion.
  // 0 = permanent.
  double ttl_ms = 0;

  size_t arity() const { return columns.size(); }
  // Effective key: declared keys, or all columns when none declared.
  std::vector<size_t> EffectiveKey() const;
  // True when `cols` include every effective key column, so a probe on them matches at
  // most one row: the engine answers it from the row map (a key lookup).
  bool KeyCoveredBy(const std::vector<size_t>& cols) const;
};

// Secondary index: projection of selected columns -> rows having that projection.
// TupleHash/TupleEq are transparent, so probes can use a TupleView (values + precomputed
// hash) without materializing a Tuple.
using Index = std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq>;

class Table {
 public:
  explicit Table(TableDef def);

  const TableDef& def() const { return def_; }
  const std::string& name() const { return def_.name; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  uint64_t version() const { return version_; }

  enum class InsertOutcome {
    kInserted,   // new key
    kReplaced,   // existing key, different row
    kUnchanged,  // identical row already present
  };

  // Inserts or replaces by primary key. Tuple arity must match the declaration. `now_ms`
  // stamps the row for TTL expiry (ignored for permanent tables).
  InsertOutcome Insert(Tuple tuple, double now_ms = 0);

  // Removes the exact tuple if present (key match with identical payload).
  bool Erase(const Tuple& tuple);
  // Removes whatever row currently holds this primary key.
  bool EraseByKey(const Tuple& key);

  // Returns the row with this primary key, or nullptr. The pointer is stable until the next
  // mutation of that key.
  const Tuple* LookupByKey(const Tuple& key) const;
  bool Contains(const Tuple& tuple) const;
  // Key-lookup probe path: `key` holds the values of key_columns(), in that order. Counted
  // in probes()/probe_hits() like an index probe.
  const Tuple* ProbeKey(const TupleView& key);
  // Effective key columns, in the order the row map's keys store them.
  const std::vector<size_t>& key_columns() const { return effective_key_; }

  // Snapshot of all rows (copy; used where mutation during iteration is possible).
  std::vector<Tuple> Rows() const;

  // Visits all rows without copying. Callers must not mutate the table during the visit.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, row] : rows_) {
      fn(row);
    }
  }

  // Returns rows whose projection on `cols` equals `probe`, via the secondary index on
  // `cols` (built on first use). The returned pointers (and the returned vector itself) are
  // valid until the next table mutation; capture probe_generation() before use and call
  // AssertProbeFresh() to enforce that in debug builds.
  const std::vector<const Tuple*>& Probe(const std::vector<size_t>& cols, const Tuple& probe);
  // Precomputed-hash probe path: no Tuple is materialized and the hash is computed once by
  // the caller (TupleView::Of), not re-derived per hash-map operation.
  const std::vector<const Tuple*>& Probe(const std::vector<size_t>& cols,
                                         const TupleView& probe);

  // Builds the secondary index on `cols` now if it does not exist yet. Once built, an index
  // stays current through every mutation, so later Probe(cols, ...) calls are pure reads.
  // The optimizer warms every index its plans will probe right after a (re)compile.
  void WarmIndex(const std::vector<size_t>& cols) { GetIndex(cols); }

  // Generation token for probe-result validity: changes on every mutation that can move or
  // drop rows out of cached indexes (insert, replace, erase, clear, TTL expiry).
  uint64_t probe_generation() const { return version_; }
  // Aborts when the table has mutated since `generation` was captured — i.e. a Probe result
  // taken at that generation is stale. Callers gate this behind debug builds.
  void AssertProbeFresh(uint64_t generation) const;

  void Clear();

  // Soft state: removes rows stamped before `cutoff_ms`, returning the expired rows.
  std::vector<Tuple> ExpireOlderThan(double cutoff_ms);

  // Extracts the primary key projection from a full row.
  Tuple KeyOf(const Tuple& tuple) const { return tuple.Project(effective_key_); }

  // Cost-model statistic: exact count of distinct values in column `col` by full scan.
  // Order-independent (set-based), so the result is deterministic regardless of hash-map
  // iteration order — required for byte-identical re-planning per seed.
  uint64_t DistinctCount(size_t col) const;

  // Runtime counters for perf_table / the metrics registry, covering both probe paths.
  // Plain integers: a table belongs to one engine, and a parallel Cluster runs each engine
  // on one thread at a time.
  uint64_t probes() const { return probes_; }
  uint64_t probe_hits() const { return probe_hits_; }
  // Full rebuilds of an already-built index. Indexes are maintained in place, so this is
  // always 0. Kept only because the system benchmark (bench/system) still reads it for its
  // table.index_rebuilds_per_op row; delete it with the next change to that benchmark.
  uint64_t index_rebuilds() const { return 0; }

 private:
  const Index& GetIndex(const std::vector<size_t>& cols);

  // View of `row` projected on `cols`, held in project_scratch_ until the next call; index
  // maintenance finds buckets through it without building a projected Tuple.
  TupleView ProjectView(const Tuple& row, const std::vector<size_t>& cols);
  // Appends `row` to its bucket in `index` (keyed on `cols`).
  void IndexRow(Index& index, const std::vector<size_t>& cols, const Tuple* row);
  // Removes `row` (identified by address) from every index bucket keyed by its current
  // projection. Call while `row` still holds the payload it was indexed under.
  void RemoveRowFromIndexes(const Tuple* row);
  // Appends `row` (holding its current payload) to every index.
  void AddRowToIndexes(const Tuple* row);

  TableDef def_;
  std::vector<size_t> effective_key_;
  // Key projection -> full row. Node addresses are stable, so indexes hold row pointers.
  std::unordered_map<Tuple, Tuple, TupleHash, TupleEq> rows_;
  std::unordered_map<Tuple, double, TupleHash> row_time_;  // TTL tables only
  std::map<std::vector<size_t>, Index> indexes_;
  uint64_t version_ = 0;
  std::vector<const Tuple*> empty_result_;
  std::vector<Value> project_scratch_;
  uint64_t probes_ = 0;
  uint64_t probe_hits_ = 0;
};

}  // namespace boom

#endif  // SRC_OVERLOG_TABLE_H_
