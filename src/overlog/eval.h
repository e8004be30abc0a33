// Evaluator: executes compiled rule variants against the catalog, producing derivations.
//
// The Engine drives semi-naive evaluation by calling EvalFromRows with each rule variant and
// the range of its driver table's delta buffer that the current round consumes. Aggregate
// rules are maintained per affected group (see AggregatePlan): EvalAggBindings finds the
// groups a changed row takes part in (and a ± rule's inputs), and EvalAggGroups recomputes
// chosen groups. Runtime expression errors (e.g. division by zero) drop the offending
// binding and are recorded in errors() — they never abort a tick, matching P2/JOL behaviour.

#ifndef SRC_OVERLOG_EVAL_H_
#define SRC_OVERLOG_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "src/overlog/builtins.h"
#include "src/overlog/catalog.h"
#include "src/overlog/planner.h"

namespace boom {

struct Derivation {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  uint32_t table = 0;  // catalog id of the head table
  Tuple tuple;
  bool remote = false;
  bool next = false;  // @next rule: apply at the following timestep
  std::string dest;   // when remote
};

// Evaluates an expression under rule bindings. Exposed for tests. Call-argument vectors for
// kCall nodes come from a depth-indexed thread-local scratch pool, so steady-state
// evaluation does not allocate per call.
Result<Value> EvalExpr(const Expr& expr, const std::vector<Value>& slots,
                       const std::unordered_map<std::string, int>& slot_of,
                       const BuiltinRegistry& builtins, const EvalContext& ctx);

// The sum<> or avg<> of integer inputs totalling `sum` (exact in 128 bits) over `count`
// bindings. A sum<> outside the 64-bit range is an "integer overflow" error, as for `+`.
Result<Value> FinishIntegerAggregate(AggKind kind, __int128 sum, int64_t count);

class Evaluator {
 public:
  Evaluator(Catalog* catalog, const BuiltinRegistry* builtins, const EvalContext* ctx)
      : catalog_(catalog), builtins_(builtins), ctx_(ctx) {}

  // Drives `variant` from the driver rows [begin, end). The range must stay valid for the
  // call: the evaluator buffers derivations in `out` and never mutates a table itself.
  void EvalFromRows(const CompiledRule& rule, const CompiledVariant& variant,
                    const Tuple* begin, const Tuple* end, std::vector<Derivation>* out);

  // Drives the rule's full variant from the driver table's current contents; for driverless
  // rules the body is evaluated once.
  void EvalFull(const CompiledRule& rule, std::vector<Derivation>* out);

  // Recomputes an aggregate rule from scratch: one head tuple per group, in group-key
  // order. The engine never does this; it is the reference its per-group maintenance is
  // tested against.
  void EvalAggregate(const CompiledRule& rule, std::vector<Tuple>* head_rows);

  // Recomputes the groups `keys` (sorted, distinct) of an aggregate rule: (*rows)[i] is
  // keys[i]'s head row, or an empty Tuple when that group has no binding (or its sum
  // overflows). Costs at most one whole-rule evaluation however many groups are asked for.
  void EvalAggGroups(const CompiledRule& rule, const std::vector<Tuple>& keys,
                     std::vector<Tuple>* rows);

  // Drives `variant` of an aggregate rule (a mark variant, or the full variant) from the
  // rows [begin, end) and appends each binding's group key to `keys` and, when `inputs` is
  // not null, its aggregate inputs (one per aggregate head arg) to `inputs`. A variant with
  // no driver (a body without positive atoms) is evaluated once.
  void EvalAggBindings(const CompiledRule& rule, const CompiledVariant& variant,
                       const Tuple* begin, const Tuple* end, std::vector<Tuple>* keys,
                       std::vector<std::vector<Value>>* inputs = nullptr);

  const std::vector<std::string>& errors() const { return errors_; }
  void ClearErrors() { errors_.clear(); }

  // Runtime errors recorded per tick are capped: a pathological program (e.g. division by
  // zero in a hot rule) should not turn every tick into an allocation storm.
  static constexpr size_t kMaxErrors = 64;

 private:
  void RecordError(const Status& status);

  // The group key (plain head args) of one binding; false after recording an error.
  bool GroupKeyOf(const CompiledRule& rule, const std::vector<Value>& slots, Tuple* key);
  // The aggregate head args' inputs of one binding (scratch, valid until the next call), or
  // nullptr after recording an error.
  const std::vector<Value>* AggInputsOf(const CompiledRule& rule,
                                        const std::vector<Value>& slots);
  // Evaluates the full variant from the driver rows `drive` visits (or once, without a
  // driver) and appends each binding's aggregate inputs to the per-position vectors
  // inputs_of(slots) returns (skipped when it returns nullptr).
  template <typename DriveFn, typename InputsFn>
  void CollectBindings(const CompiledRule& rule, DriveFn&& drive, InputsFn&& inputs_of);
  // Group key -> per-position aggregate inputs over the whole driver table, keeping only
  // the keys in `only` (sorted) when it is not null.
  std::map<Tuple, std::vector<std::vector<Value>>> GroupAllBindings(
      const CompiledRule& rule, const std::vector<Tuple>* only);
  // Folds one group's inputs into its head row; an empty Tuple (error recorded) when an
  // integer sum overflows.
  Tuple FoldGroup(const CompiledRule& rule, const Tuple& key,
                  std::vector<std::vector<Value>>& agg_inputs);

  // Binds `row` against `atom` (driver position): checks constants and repeated variables,
  // writes first-binding slots. Returns false on mismatch.
  bool BindAtomRow(const CompiledAtom& atom, const Tuple& row, std::vector<Value>* slots);

  // Recursing join over variant.steps[step_idx..]; calls Emit at the end of each complete
  // binding.
  template <typename EmitFn>
  void JoinSteps(const CompiledRule& rule, const CompiledVariant& variant, size_t step_idx,
                 std::vector<Value>* slots, EmitFn&& emit);

  void EmitHead(const CompiledRule& rule, const std::vector<Value>& slots,
                std::vector<Derivation>* out);

  // Reusable per-join-depth probe buffer (JoinSteps recursion frames never share a depth,
  // so indexing by step keeps the buffers disjoint). EnsureProbeDepth is called before
  // recursion starts so the outer vector never reallocates while a frame holds a reference.
  void EnsureProbeDepth(size_t n) {
    if (probe_scratch_.size() < n) {
      probe_scratch_.resize(n);
    }
  }
  std::vector<Value>& ProbeScratch(size_t depth) {
    probe_scratch_[depth].clear();
    return probe_scratch_[depth];
  }

  Catalog* catalog_;
  const BuiltinRegistry* builtins_;
  const EvalContext* ctx_;
  std::vector<std::string> errors_;
  // Scratch buffers: allocated once, reused by every rule evaluation. The evaluator is not
  // reentrant (Eval* methods never call each other), so a single set is safe.
  std::vector<std::vector<Value>> probe_scratch_;
  std::vector<Value> slots_scratch_;
  std::vector<Value> head_scratch_;
  std::vector<Value> agg_input_scratch_;
  std::vector<Value> group_probe_scratch_;
};

}  // namespace boom

#endif  // SRC_OVERLOG_EVAL_H_
