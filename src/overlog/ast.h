// Abstract syntax for Overlog programs.
//
// An Overlog program is a set of table/event/timer declarations plus rules:
//
//   r1 fqpath(Path, F) :- file(F, Par, Name, _), fqpath(PPath, Par),
//                         Path := path_join(PPath, Name);
//
// Rule bodies are sequences of terms: positive or negated relational atoms, `Var := expr`
// assignments, and boolean condition expressions. Heads may carry aggregate functions
// (count/sum/min/max/avg/bottomk) and an `@`-location argument that turns the derivation
// into a network send when it differs from the rule's body location.

#ifndef SRC_OVERLOG_AST_H_
#define SRC_OVERLOG_AST_H_

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/overlog/table.h"
#include "src/overlog/value.h"

namespace boom {

enum class ExprKind { kConst, kVar, kCall };

struct Expr {
  ExprKind kind = ExprKind::kConst;
  Value constant;          // kConst
  std::string var;         // kVar
  // kVar: slot index resolved by the planner for compiled rules (-1 = unresolved; the
  // evaluator then falls back to a by-name lookup in the rule's slot map).
  int slot = -1;
  std::string fn;          // kCall: builtin name; operators use their symbol ("+", "==", ...)
  std::vector<Expr> args;  // kCall

  static Expr Const(Value v) {
    Expr e;
    e.kind = ExprKind::kConst;
    e.constant = std::move(v);
    return e;
  }
  static Expr Var(std::string name) {
    Expr e;
    e.kind = ExprKind::kVar;
    e.var = std::move(name);
    return e;
  }
  static Expr Call(std::string fn, std::vector<Expr> args) {
    Expr e;
    e.kind = ExprKind::kCall;
    e.fn = std::move(fn);
    e.args = std::move(args);
    return e;
  }

  bool is_var() const { return kind == ExprKind::kVar; }
  bool is_const() const { return kind == ExprKind::kConst; }

  void CollectVars(std::set<std::string>* out) const;
  std::string ToString() const;
};

enum class AggKind { kNone, kCount, kSum, kMin, kMax, kAvg, kBottomK };

const char* AggKindName(AggKind kind);

// One argument position in a rule head: a plain expression or an aggregate.
struct HeadArg {
  Expr expr;                    // the aggregated expression when agg != kNone
  AggKind agg = AggKind::kNone;
  int64_t k = 0;                // bottomk only
  std::string ToString() const;
};

// A relational atom in a rule body.
struct Atom {
  std::string table;
  std::vector<Expr> args;  // variables or constants (constants act as equality filters)
  bool negated = false;
  bool has_location = false;  // args[0] written as @Var
  std::string ToString() const;
};

struct HeadAtom {
  std::string table;
  std::vector<HeadArg> args;
  bool has_location = false;  // args[0] written as @Var

  bool HasAggregate() const;
  std::string ToString() const;
};

struct Assignment {
  std::string var;
  Expr expr;
  std::string ToString() const { return var + " := " + expr.ToString(); }
};

// A body term in textual order; the planner reorders for evaluability.
struct BodyTerm {
  enum class Kind { kAtom, kAssign, kCondition };
  Kind kind = Kind::kAtom;
  Atom atom;
  Assignment assign;
  Expr condition;

  static BodyTerm MakeAtom(Atom a) {
    BodyTerm t;
    t.kind = Kind::kAtom;
    t.atom = std::move(a);
    return t;
  }
  static BodyTerm MakeAssign(Assignment a) {
    BodyTerm t;
    t.kind = Kind::kAssign;
    t.assign = std::move(a);
    return t;
  }
  static BodyTerm MakeCondition(Expr e) {
    BodyTerm t;
    t.kind = Kind::kCondition;
    t.condition = std::move(e);
    return t;
  }
  std::string ToString() const;
};

struct Rule {
  std::string name;  // optional textual label ("r1"); auto-generated when omitted
  int line = 0;      // 1-based source line of the rule head (0 = built programmatically)
  bool is_delete = false;
  // `head(...)@next :- body` — the derived tuples become visible at the NEXT timestep
  // (Dedalus-style deferral). This is how Overlog programs express state updates guarded by
  // non-monotonic tests on the state being updated (e.g. "create file unless path exists").
  bool is_next = false;
  HeadAtom head;
  std::vector<BodyTerm> body;
  std::string ToString() const;
};

// `timer hb(250);` fires event hb(LocalAddr) every 250 virtual milliseconds.
struct TimerDecl {
  std::string name;
  double period_ms = 0;

  // A timer re-arms at deadline + period, so a period that is not finite and positive
  // would never move past the current time (the analyzer's `bad-timer-period`).
  bool valid_period() const { return period_ms > 0 && std::isfinite(period_ms); }
};

struct Fact {
  std::string table;
  Tuple tuple;
};

struct Program {
  std::string name;
  std::vector<TableDef> tables;
  // `extern table t(...)` / `extern event e(...)`: schema expectations for relations owned
  // outside this rule set (another installed program, a timer, or a C++ actor feeding the
  // inbox). Install-time behavior is declare-or-verify, same as an ordinary declaration; the
  // analyzer exempts externs from the producer/reader checks.
  std::vector<TableDef> externs;
  std::vector<Rule> rules;
  std::vector<TimerDecl> timers;
  std::vector<std::string> watches;
  std::vector<Fact> facts;
  // Host-coupling contract recorded by ProgramBuilder: events the embedding C++ feeds
  // (Enqueue/network) and relations it reads back (watches, direct catalog lookups).
  // Carried with the program so any later analysis pass sees the same context the
  // builder's strict pass did.
  std::vector<std::string> external_inputs;
  std::vector<std::string> external_outputs;

  // Pretty-printed source form (used by the metaprogramming rewriter and diagnostics).
  std::string ToString() const;
};

}  // namespace boom

#endif  // SRC_OVERLOG_AST_H_
