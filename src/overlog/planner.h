// Planner: validates parsed Overlog rules against the catalog, orders rule bodies for
// evaluation, builds semi-naive variants, and stratifies the program.
//
// Responsibilities:
//   - arity / declaration checking for every atom
//   - safety: every head variable is bound by a positive atom or an assignment; negated atoms
//     and conditions only run once their variables are bound
//   - join ordering: greedy "most-bound-first" ordering of body terms, one variant per
//     positive atom so the evaluator can drive each variant from that atom's delta
//   - stratification: negation and aggregation edges must not appear in dependency cycles;
//     each rule is assigned the stratum of its head table

#ifndef SRC_OVERLOG_PLANNER_H_
#define SRC_OVERLOG_PLANNER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/ast.h"
#include "src/overlog/catalog.h"

namespace boom {

// Observed statistics for one table, harvested by the engine from live table state plus the
// Table runtime counters. Everything here is derived deterministically from table contents
// (set-based distinct counts, monotone counters), so re-planning from stats keeps chaos
// traces byte-identical per seed.
struct TableStats {
  uint64_t rows = 0;
  std::vector<uint64_t> distinct;  // per-column distinct counts (size = arity; may be empty)
  double probe_hit_ratio = 1.0;    // probe_hits / probes observed so far
};

// Optional cost-based planning mode (DESIGN.md §13). Off by default: the default plan is
// byte-identical to the greedy most-bound-first ordering this repo has always produced.
struct PlannerOptions {
  // When true: rule bodies are ordered by the cardinality/selectivity cost model (exhaustive
  // permutation enumeration up to 6 positive atoms, cost-greedy beyond), warm_indexes is
  // populated, and per-step cost estimates are recorded for `olgrun --explain`.
  bool cost_based = false;
  std::unordered_map<std::string, TableStats> stats;  // table name -> observed stats
};

// One argument position of a compiled atom.
struct CompiledArg {
  bool is_const = false;
  Value constant;
  int slot = -1;            // variable slot (when !is_const)
  bool first_binding = false;  // true when this occurrence binds the slot (vs equality check)
};

struct CompiledAtom {
  std::string table;
  // Resolved by Engine::Recompile after compilation (table addresses are stable: the catalog
  // stores tables behind unique_ptr). Saves a string-hash catalog lookup per join step per
  // row; the evaluator falls back to Catalog::Find when null.
  Table* table_ptr = nullptr;
  bool negated = false;
  std::vector<CompiledArg> args;
  // Columns to probe on (const args + already-bound vars at this point in the ordering).
  std::vector<size_t> probe_cols;
  // The probe columns cover the table's whole effective key: the evaluator answers this
  // atom from the row map (Table::ProbeKey, 0 or 1 rows) and no secondary index is built.
  bool key_lookup = false;
};

// An ordered body term ready for evaluation.
struct CompiledStep {
  BodyTerm::Kind kind = BodyTerm::Kind::kAtom;
  CompiledAtom atom;       // kAtom
  int assign_slot = -1;    // kAssign
  Expr assign_expr;        // kAssign
  Expr condition;          // kCondition
  // Cost-based planning only: estimated bindings alive after this step (-1 = not planned).
  double est_rows = -1;
};

// One join ordering. driver_table names the delta relation this variant is driven by
// (empty for the "full" ordering used at seed time and by aggregate rules).
struct CompiledVariant {
  std::string driver_table;
  CompiledAtom driver;              // meaningful when driver_table is nonempty
  std::vector<CompiledStep> steps;  // remaining terms, in evaluation order
  std::vector<int> bound_slots;     // slots guaranteed bound after all steps (sorted)
  // Cost-based planning only: total estimated cost (sum of intermediate binding counts
  // across positive-atom steps; -1 = planned greedily without a cost model).
  double est_cost = -1;
};

struct CompiledHeadArg {
  Expr expr;
  AggKind agg = AggKind::kNone;
  int64_t k = 0;
};

struct CompiledRule {
  std::string name;
  std::string program;
  bool is_delete = false;
  bool is_next = false;
  bool has_agg = false;
  int stratum = 0;

  std::string head_table;
  bool head_is_event = false;
  bool head_has_location = false;
  std::vector<CompiledHeadArg> head_args;

  std::unordered_map<std::string, int> slot_of;  // variable name -> slot
  int num_slots = 0;

  // Semi-naive variants, one per positive body atom (empty for aggregate rules).
  std::vector<CompiledVariant> variants;
  // Ordering that scans the first atom fully; used at seed time and for aggregates.
  CompiledVariant full_variant;
  // True when the body has no positive atoms: evaluated only at seed time.
  bool driverless = false;
  // All tables referenced in the body (positive and negated); lets the engine skip
  // aggregate recomputation when none of them changed.
  std::vector<std::string> body_tables;
  // Exactly one positive atom in the body: aggregate bindings are already distinct per
  // driver row, so the evaluator can skip fingerprint deduplication.
  bool single_positive_atom = false;
  // Aggregate rule whose results can be folded incrementally from driver-table inserts
  // (single-atom body over an insert-only persistent set-semantics table; no bottomk, no
  // remote head). Keeps audit-style rollups O(delta) instead of O(table) per tick.
  bool incremental_agg = false;
};

// Per-stratum evaluation schedule, built once at compile time so Engine::Tick neither
// regroups rules per tick nor scans every rule per fixpoint round.
struct StratumSchedule {
  // Indexes into CompiledProgram::rules, program order throughout.
  std::vector<size_t> agg_rules;    // aggregate rules, reconciled at stratum entry
  std::vector<size_t> seed_rules;   // driverless non-aggregate rules (seed tick only)
  std::vector<size_t> delta_rules;  // semi-naive rules
  // Driver table -> ascending positions in delta_rules having a variant driven by it. A
  // fixpoint round unions the entries for tables that actually received deltas (the "dirty
  // rules") and evaluates only those, in delta_rules order — exactly the order the
  // exhaustive every-rule loop used, so derivation order (and with it send order, watch
  // order, and chaos schedules) is unchanged.
  std::unordered_map<std::string, std::vector<size_t>> delta_rules_by_driver;
};

struct CompiledProgram {
  std::vector<CompiledRule> rules;
  int num_strata = 1;
  std::vector<StratumSchedule> schedule;  // one entry per stratum
  // Cost-based planning only (empty otherwise):
  bool cost_based = false;
  // Every (table, probe columns) secondary index the chosen plans will probe, sorted +
  // deduped (key lookups need none); the engine warms these via Table::WarmIndex right
  // after a successful recompile so first probes inside a tick never pay a cold build.
  std::vector<std::pair<std::string, std::vector<size_t>>> warm_indexes;
};

// Compiles `rules` (typically the union of all installed programs) against tables already
// declared in `catalog`. All referenced tables must be declared. `options` selects the
// optional cost-based planning mode; the default produces the classic greedy plans.
Result<CompiledProgram> CompileRules(const std::vector<Rule>& rules,
                                     const std::vector<std::string>& programs,
                                     const Catalog& catalog,
                                     const PlannerOptions& options = PlannerOptions());

}  // namespace boom

#endif  // SRC_OVERLOG_PLANNER_H_
