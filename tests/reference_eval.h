// ReferenceEvaluator: a deliberately naive Overlog evaluator, the oracle reference_eval_test
// checks the engine against.
//
// It reads only the parser's AST, Value/Tuple and the builtin registry: no Planner, no
// Evaluator, no Table or Catalog, nothing inside the Engine. Each tick follows the
// stratified, timestep-by-timestep (BSP) Datalog semantics of Interlandi & Tanca, as
// docs/LANGUAGE.md states them for this dialect:
//
//   1. the inbox (the previous tick's @next rows, then the host's rows) is applied;
//   2. stratum by stratum, every aggregate is recomputed from scratch over all its groups,
//      then every other rule enumerates each body binding over the full current state by
//      nested loops, pass after pass, until a pass derives nothing new;
//   3. `delete` matches are applied, event tables clear, and @next rows wait for the next
//      tick.
//
// State is accumulated: a non-aggregate rule fires on a binding only when at least one of
// the binding's positive body rows was inserted (new, or replacing a row with the same key)
// during this tick. A body without positive atoms fires once, on the first tick. An
// aggregate takes one input per satisfying combination of body rows, wildcards included.
//
// Create rejects timers, TTL tables and `@` locations. Keyed heads with more than one
// writer and the builtins whose results depend on call order (f_now, f_rand, f_randint,
// f_unique_id) are the caller's to avoid: evaluation order is what this evaluator leaves
// unspecified.

#ifndef TESTS_REFERENCE_EVAL_H_
#define TESTS_REFERENCE_EVAL_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/ast.h"
#include "src/overlog/builtins.h"

namespace boom {

class ReferenceEvaluator {
 public:
  // Declares the program's tables and inserts its facts. Fails on a program that is
  // unstratifiable (the message starts "unstratifiable"), references an undeclared table,
  // or uses a feature outside the scope above.
  static Result<ReferenceEvaluator> Create(Program program);

  Status Enqueue(const std::string& table, Tuple row);
  // Runs one timestep. Non-OK on a runtime expression error or a fixpoint that does not
  // converge.
  Status Tick();

  std::vector<std::string> TableNames() const;
  // The rows of `table`, or for an event table the rows it held during the last tick.
  std::set<Tuple> Rows(const std::string& table) const;

 private:
  using Bindings = std::map<std::string, Value>;
  // (bindings, whether one of the binding's positive rows was inserted this tick)
  using BindingFn = std::function<Status(const Bindings&, bool)>;

  struct TableState {
    TableDef def;
    std::set<Tuple> rows;
    std::set<Tuple> fresh;      // rows inserted this tick
    std::set<Tuple> last_tick;  // event tables: the rows held during the last tick
  };

  ReferenceEvaluator() = default;
  Status Stratify();

  // Key-replacing insert; true when the table changed (the row is then fresh).
  bool Insert(const std::string& table, const Tuple& row);
  Result<Value> Eval(const Expr& expr, const Bindings& b) const;
  // Calls `visit` for every satisfying binding of `rule`'s body.
  Status ForEachBinding(const Rule& rule, const BindingFn& visit) const;
  Status FinishBinding(const Rule& rule, Bindings* b, bool fresh, const BindingFn& visit) const;
  Status RecomputeAggregate(const Rule& rule);

  Program program_;
  BuiltinRegistry builtins_ = BuiltinRegistry::Standard();
  EvalContext ctx_;
  std::map<std::string, TableState> tables_;
  std::vector<int> rule_stratum_;  // by rule index
  int num_strata_ = 1;
  std::vector<std::pair<std::string, Tuple>> inbox_;
  std::set<std::pair<std::string, Tuple>> next_;  // @next rows for the next tick
  bool ticked_ = false;
};

}  // namespace boom

#endif  // TESTS_REFERENCE_EVAL_H_
