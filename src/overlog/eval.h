// Evaluator: executes compiled rule variants against the catalog, producing derivations.
//
// The Engine drives semi-naive evaluation by calling EvalFromRows with each rule variant and
// the delta tuples of that variant's driver table. Aggregate rules are recomputed in full via
// EvalAggregate. Runtime expression errors (e.g. division by zero) drop the offending binding
// and are recorded in errors() — they never abort a tick, matching P2/JOL behaviour.

#ifndef SRC_OVERLOG_EVAL_H_
#define SRC_OVERLOG_EVAL_H_

#include <string>
#include <vector>

#include "src/overlog/builtins.h"
#include "src/overlog/catalog.h"
#include "src/overlog/planner.h"

namespace boom {

struct Derivation {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  std::string table;
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

class Evaluator {
 public:
  Evaluator(Catalog* catalog, const BuiltinRegistry* builtins, const EvalContext* ctx)
      : catalog_(catalog), builtins_(builtins), ctx_(ctx) {}

  // Drives `variant` from the given driver rows.
  void EvalFromRows(const CompiledRule& rule, const CompiledVariant& variant,
                    const std::vector<Tuple>& driver_rows, std::vector<Derivation>* out);

  // Drives the rule's full variant from the driver table's current contents; for driverless
  // rules the body is evaluated once.
  void EvalFull(const CompiledRule& rule, std::vector<Derivation>* out);

  // Recomputes an aggregate rule from scratch: one head tuple per group.
  void EvalAggregate(const CompiledRule& rule, std::vector<Tuple>* head_rows);

  // For incremental aggregates: evaluates the (single-atom) body over just `driver_rows`
  // and returns one (group key, agg input values) pair per satisfied binding.
  void EvalAggBindings(const CompiledRule& rule, const std::vector<Tuple>& driver_rows,
                       std::vector<std::pair<Tuple, std::vector<Value>>>* out);

  const std::vector<std::string>& errors() const { return errors_; }
  void ClearErrors() { errors_.clear(); }

  // Runtime errors recorded per tick are capped: a pathological program (e.g. division by
  // zero in a hot rule) should not turn every tick into an allocation storm.
  static constexpr size_t kMaxErrors = 64;

 private:
  struct AggGroup {
    std::vector<std::vector<Value>> agg_inputs;  // one vector per aggregate head arg
  };

  void RecordError(const Status& status);

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
};

}  // namespace boom

#endif  // SRC_OVERLOG_EVAL_H_
