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
//   - aggregate plans: how each aggregate rule finds and updates its affected groups

#ifndef SRC_OVERLOG_PLANNER_H_
#define SRC_OVERLOG_PLANNER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/ast.h"
#include "src/overlog/catalog.h"

namespace boom {

// One argument position of a compiled atom.
struct CompiledArg {
  bool is_const = false;
  Value constant;
  int slot = -1;            // variable slot (when !is_const)
  bool first_binding = false;  // true when this occurrence binds the slot (vs equality check)
};

struct CompiledAtom {
  std::string table;
  uint32_t table_id = 0;  // Catalog::ById(table_id) is `table`
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
};

// One join ordering. driver_table names the relation whose rows drive this variant (empty
// only for the full ordering of a body without positive atoms).
struct CompiledVariant {
  std::string driver_table;
  // Meaningful when driver_table is nonempty. Binds its rows as a positive atom; `negated`
  // is set on an aggregate's mark variant driven by a negated atom.
  CompiledAtom driver;
  std::vector<CompiledStep> steps;  // remaining terms, in evaluation order
};

struct CompiledHeadArg {
  Expr expr;
  AggKind agg = AggKind::kNone;
  int64_t k = 0;
};

// How an aggregate rule keeps its groups current (Engine::Tick step 4a). A group is affected
// when a row that entered or left a body table takes part in one of its bindings; only
// affected groups are updated, so no step re-derives every group of a rule.
struct AggregatePlan {
  // One positive body atom over a persistent table, and only count/sum/avg: each group keeps
  // running accumulators that the bindings of every entering row add to and those of every
  // leaving row subtract from (integer inputs only; a group holding other inputs is
  // recomputed). Otherwise each affected group is recomputed with its key bound.
  bool plus_minus = false;
  // The body has a positive event atom. Every binding then includes one of its rows, all
  // inserted this tick and all removed by the event clear, so that atom alone marks groups
  // and it is the rule's only mark variant.
  bool event_driven = false;
  // Group recompute probes full_variant.driver on group_cols: entry i takes its value from
  // group key position group_key_pos[i], or from the atom's constant when that is -1.
  // group_probe is false when a group-key expression is not a constant or a variable of the
  // driver; then one pass over every binding serves all affected groups. An event-table
  // driver (only this tick's rows) is scanned once for all groups instead of probed.
  bool group_probe = false;
  std::vector<size_t> group_cols;
  std::vector<int> group_key_pos;
  bool group_key_lookup = false;  // group_cols cover the driver table's key
};

struct CompiledRule {
  std::string name;
  std::string program;
  bool is_delete = false;
  bool is_next = false;
  bool has_agg = false;
  int stratum = 0;

  std::string head_table;
  uint32_t head_table_id = 0;
  bool head_is_event = false;
  bool head_has_location = false;
  std::vector<CompiledHeadArg> head_args;

  std::unordered_map<std::string, int> slot_of;  // variable name -> slot
  int num_slots = 0;

  // Semi-naive variants, one per positive body atom. An aggregate rule has mark variants
  // instead: each maps a changed row of its driver to the group keys of the bindings the
  // row takes part in. A driver atom that binds every group-key variable needs no join, so
  // its mark variant has no steps.
  std::vector<CompiledVariant> variants;
  // Ordering that scans one positive atom fully; used at seed time and by aggregate rules,
  // whose full variant is driven by the first positive atom binding every group-key
  // variable, so a group can be recomputed by probing the driver with its key.
  CompiledVariant full_variant;
  // True when the body has no positive atoms: evaluated only at seed time.
  bool driverless = false;
  AggregatePlan agg;  // aggregate rules only
};

// Per-stratum evaluation schedule, built once at compile time so Engine::Tick neither
// regroups rules per tick nor scans every rule per fixpoint round.
struct StratumSchedule {
  // Indexes into CompiledProgram::rules, program order throughout.
  std::vector<size_t> agg_rules;    // aggregate rules, updated at stratum entry
  std::vector<size_t> seed_rules;   // driverless non-aggregate rules (seed tick only)
  std::vector<size_t> delta_rules;  // semi-naive rules
  // Driver table id -> ascending positions in delta_rules having a variant driven by it. A
  // fixpoint round unions the entries for tables that actually received deltas (the "dirty
  // rules") and evaluates only those, in delta_rules (program) order, so derivation order
  // (and with it send order, watch order, and chaos schedules) is deterministic.
  std::unordered_map<uint32_t, std::vector<size_t>> delta_rules_by_driver;
  // Table id -> ascending rule ids in agg_rules whose groups that table's inserts can mark
  // (the ± body table, or a mark variant's driver that is not negated).
  std::unordered_map<uint32_t, std::vector<size_t>> agg_rules_by_driver;
};

// An aggregate rule that must see the rows leaving a table: `variant` indexes its mark
// variants, or is -1 for a ± rule's body table.
struct AggReader {
  size_t rule = 0;
  int variant = -1;
};

struct CompiledProgram {
  std::vector<CompiledRule> rules;
  int num_strata = 1;
  std::vector<StratumSchedule> schedule;  // one entry per stratum
  // Table id -> aggregate rules whose groups a row leaving that table can affect, in rule
  // order.
  std::unordered_map<uint32_t, std::vector<AggReader>> agg_readers;
  // By table id (absent past the last table with one): the mark variants driven by a
  // negated atom over that table, in rule order. A row entering the table marks their groups
  // as it enters; a vector, since every insert looks it up.
  std::vector<std::vector<AggReader>> agg_negated_readers;
};

// Compiles `rules` (typically the union of all installed programs) against tables already
// declared in `catalog`. All referenced tables must be declared.
Result<CompiledProgram> CompileRules(const std::vector<Rule>& rules,
                                     const std::vector<std::string>& programs,
                                     const Catalog& catalog);

}  // namespace boom

#endif  // SRC_OVERLOG_PLANNER_H_
