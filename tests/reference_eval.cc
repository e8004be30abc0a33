#include "tests/reference_eval.h"

#include <algorithm>
#include <limits>

namespace boom {

namespace {

// The parser names each `_` occurrence _Anon<N>: a fresh variable in a positive atom, an
// existential one in a negated atom.
bool IsWildcard(const std::string& var) { return var.rfind("_Anon", 0) == 0; }

std::vector<size_t> KeyOf(const TableDef& def) {
  if (!def.key_columns.empty()) {
    return def.key_columns;
  }
  std::vector<size_t> all(def.arity());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return all;
}

bool SameKey(const std::vector<size_t>& key, const Tuple& a, const Tuple& b) {
  return std::all_of(key.begin(), key.end(), [&](size_t c) { return a[c] == b[c]; });
}

// One aggregate over one group's inputs, in the dialect's terms: count of inputs; exact
// integer sum/avg (sum<> past 64 bits is an error), else a double one; min/max by the
// Value order; bottomk<k> the k smallest, as a list.
Result<Value> Fold(const HeadArg& arg, std::vector<Value> inputs) {
  const int64_t n = static_cast<int64_t>(inputs.size());
  switch (arg.agg) {
    case AggKind::kCount:
      return Value(n);
    case AggKind::kSum:
    case AggKind::kAvg: {
      const bool ints =
          std::all_of(inputs.begin(), inputs.end(), [](const Value& v) { return v.is_int(); });
      if (!ints) {
        double sum = 0;
        for (const Value& v : inputs) {
          sum += v.ToDouble();
        }
        return Value(arg.agg == AggKind::kSum ? sum : sum / static_cast<double>(n));
      }
      __int128 sum = 0;
      for (const Value& v : inputs) {
        sum += v.as_int();
      }
      if (arg.agg == AggKind::kAvg) {
        return Value(static_cast<double>(sum) / static_cast<double>(n));
      }
      if (sum < std::numeric_limits<int64_t>::min() ||
          sum > std::numeric_limits<int64_t>::max()) {
        return InvalidArgument("integer overflow in sum<>");
      }
      return Value(static_cast<int64_t>(sum));
    }
    case AggKind::kMin:
      return *std::min_element(inputs.begin(), inputs.end());
    case AggKind::kMax:
      return *std::max_element(inputs.begin(), inputs.end());
    case AggKind::kBottomK: {
      std::sort(inputs.begin(), inputs.end());
      inputs.resize(std::min(inputs.size(), static_cast<size_t>(arg.k)));
      return Value(ValueList(std::move(inputs)));
    }
    case AggKind::kNone:
      break;
  }
  return Internal("not an aggregate");
}

}  // namespace

Result<ReferenceEvaluator> ReferenceEvaluator::Create(Program program) {
  ReferenceEvaluator ref;
  ref.ctx_.local_address = "local";
  std::vector<TableDef> defs = program.externs;
  defs.insert(defs.end(), program.tables.begin(), program.tables.end());
  for (const TableDef& def : defs) {
    if (def.ttl_ms > 0) {
      return Unimplemented("ttl table " + def.name);
    }
    auto [it, added] = ref.tables_.emplace(def.name, TableState{def, {}, {}, {}});
    if (!added && it->second.def.arity() != def.arity()) {
      return InvalidArgument("conflicting declarations of " + def.name);
    }
  }
  if (!program.timers.empty()) {
    return Unimplemented("timer " + program.timers[0].name);
  }
  auto check_arity = [&](const std::string& table, size_t arity) {
    auto it = ref.tables_.find(table);
    if (it == ref.tables_.end()) {
      return InvalidArgument("undeclared table " + table);
    }
    if (it->second.def.arity() != arity) {
      return InvalidArgument("arity mismatch for " + table);
    }
    return Status::Ok();
  };
  for (const Rule& rule : program.rules) {
    if (rule.head.has_location) {
      return Unimplemented("rule " + rule.name + ": @ location");
    }
    BOOM_RETURN_IF_ERROR(check_arity(rule.head.table, rule.head.args.size()));
    for (const BodyTerm& t : rule.body) {
      if (t.kind != BodyTerm::Kind::kAtom) {
        continue;
      }
      if (t.atom.has_location) {
        return Unimplemented("rule " + rule.name + ": @ location");
      }
      for (const Expr& arg : t.atom.args) {
        if (arg.kind == ExprKind::kCall) {
          return Unimplemented("rule " + rule.name + ": expression in an atom");
        }
      }
      BOOM_RETURN_IF_ERROR(check_arity(t.atom.table, t.atom.args.size()));
    }
  }
  for (const Fact& fact : program.facts) {
    BOOM_RETURN_IF_ERROR(check_arity(fact.table, fact.tuple.size()));
  }
  ref.program_ = std::move(program);
  BOOM_RETURN_IF_ERROR(ref.Stratify());
  for (const Fact& fact : ref.program_.facts) {
    ref.Insert(fact.table, fact.tuple);
  }
  return ref;
}

// A table's stratum is at least each body table's stratum of every rule deriving it in the
// same tick, plus one through negation or aggregation. Without a cycle through such an edge
// no stratum exceeds the number of tables, so passing that bound is a proof of one. A
// deferred rule (delete, @next) runs once its body is final: after its positive body
// tables' strata and above its negated ones.
Status ReferenceEvaluator::Stratify() {
  std::map<std::string, int> stratum;
  const int bound = static_cast<int>(tables_.size());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : program_.rules) {
      if (rule.is_delete || rule.is_next) {
        continue;
      }
      for (const BodyTerm& t : rule.body) {
        if (t.kind != BodyTerm::Kind::kAtom) {
          continue;
        }
        const int step = t.atom.negated || rule.head.HasAggregate() ? 1 : 0;
        int& head = stratum[rule.head.table];
        if (head < stratum[t.atom.table] + step) {
          head = stratum[t.atom.table] + step;
          changed = true;
          if (head > bound) {
            return InvalidArgument("unstratifiable: negation or aggregation cycle through " +
                                   rule.head.table);
          }
        }
      }
    }
  }
  rule_stratum_.clear();
  for (const Rule& rule : program_.rules) {
    int s = stratum[rule.head.table];
    if (rule.is_delete || rule.is_next) {
      s = 0;
      for (const BodyTerm& t : rule.body) {
        if (t.kind == BodyTerm::Kind::kAtom) {
          s = std::max(s, stratum[t.atom.table] + (t.atom.negated ? 1 : 0));
        }
      }
    }
    rule_stratum_.push_back(s);
    num_strata_ = std::max(num_strata_, s + 1);
  }
  return Status::Ok();
}

Status ReferenceEvaluator::Enqueue(const std::string& table, Tuple row) {
  auto it = tables_.find(table);
  if (it == tables_.end() || it->second.def.arity() != row.size()) {
    return InvalidArgument("bad enqueue into " + table);
  }
  inbox_.emplace_back(table, std::move(row));
  return Status::Ok();
}

bool ReferenceEvaluator::Insert(const std::string& table, const Tuple& row) {
  TableState& t = tables_.at(table);
  if (t.rows.count(row) > 0) {
    return false;
  }
  const std::vector<size_t> key = KeyOf(t.def);
  for (auto it = t.rows.begin(); it != t.rows.end(); ++it) {
    if (SameKey(key, *it, row)) {
      t.fresh.erase(*it);
      t.rows.erase(it);
      break;
    }
  }
  t.rows.insert(row);
  t.fresh.insert(row);
  return true;
}

Result<Value> ReferenceEvaluator::Eval(const Expr& expr, const Bindings& b) const {
  switch (expr.kind) {
    case ExprKind::kConst:
      return expr.constant;
    case ExprKind::kVar: {
      auto it = b.find(expr.var);
      if (it == b.end()) {
        return InvalidArgument("unbound variable " + expr.var);
      }
      return it->second;
    }
    case ExprKind::kCall: {
      std::vector<Value> args;
      for (const Expr& a : expr.args) {
        BOOM_ASSIGN_OR_RETURN(Value v, Eval(a, b));
        args.push_back(std::move(v));
      }
      return builtins_.Call(ctx_, expr.fn, args);
    }
  }
  return Internal("bad expression");
}

Status ReferenceEvaluator::ForEachBinding(const Rule& rule, const BindingFn& visit) const {
  std::vector<const Atom*> positive;
  for (const BodyTerm& t : rule.body) {
    if (t.kind == BodyTerm::Kind::kAtom && !t.atom.negated) {
      positive.push_back(&t.atom);
    }
  }
  Bindings b;
  // Nested loops, one per positive atom in body order: every row of the atom's table that
  // agrees with the bindings so far extends them.
  std::function<Status(size_t, bool)> join = [&](size_t i, bool fresh) -> Status {
    if (i == positive.size()) {
      Bindings full = b;
      return FinishBinding(rule, &full, fresh, visit);
    }
    const Atom& atom = *positive[i];
    const TableState& table = tables_.at(atom.table);
    for (const Tuple& row : table.rows) {
      std::vector<std::string> bound_here;
      bool match = true;
      for (size_t c = 0; c < atom.args.size() && match; ++c) {
        const Expr& arg = atom.args[c];
        if (arg.is_const()) {
          match = row[c] == arg.constant;
        } else if (auto it = b.find(arg.var); it != b.end()) {
          match = row[c] == it->second;
        } else {
          b.emplace(arg.var, row[c]);
          bound_here.push_back(arg.var);
        }
      }
      if (match) {
        BOOM_RETURN_IF_ERROR(join(i + 1, fresh || table.fresh.count(row) > 0));
      }
      for (const std::string& var : bound_here) {
        b.erase(var);
      }
    }
    return Status::Ok();
  };
  return join(0, false);
}

Status ReferenceEvaluator::FinishBinding(const Rule& rule, Bindings* b, bool fresh,
                                         const BindingFn& visit) const {
  // Assignments as soon as their inputs are bound; one whose target is already bound is an
  // equality test.
  std::vector<const Assignment*> pending;
  for (const BodyTerm& t : rule.body) {
    if (t.kind == BodyTerm::Kind::kAssign) {
      pending.push_back(&t.assign);
    }
  }
  while (!pending.empty()) {
    const size_t before = pending.size();
    for (auto it = pending.begin(); it != pending.end();) {
      std::set<std::string> vars;
      (*it)->expr.CollectVars(&vars);
      if (!std::all_of(vars.begin(), vars.end(),
                       [&](const std::string& v) { return b->count(v) > 0; })) {
        ++it;
        continue;
      }
      BOOM_ASSIGN_OR_RETURN(Value v, Eval((*it)->expr, *b));
      auto [slot, added] = b->emplace((*it)->var, v);
      if (!added && !(slot->second == v)) {
        return Status::Ok();
      }
      it = pending.erase(it);
    }
    if (pending.size() == before) {
      return InvalidArgument("rule " + rule.name + ": an assignment's inputs are never bound");
    }
  }
  for (const BodyTerm& t : rule.body) {
    if (t.kind == BodyTerm::Kind::kCondition) {
      BOOM_ASSIGN_OR_RETURN(Value v, Eval(t.condition, *b));
      if (!v.Truthy()) {
        return Status::Ok();
      }
    }
  }
  for (const BodyTerm& t : rule.body) {
    if (t.kind != BodyTerm::Kind::kAtom || !t.atom.negated) {
      continue;
    }
    for (const Tuple& row : tables_.at(t.atom.table).rows) {
      bool match = true;
      for (size_t c = 0; c < t.atom.args.size() && match; ++c) {
        const Expr& arg = t.atom.args[c];
        if (arg.is_var() && IsWildcard(arg.var)) {
          continue;
        }
        BOOM_ASSIGN_OR_RETURN(Value v, Eval(arg, *b));
        match = row[c] == v;
      }
      if (match) {
        return Status::Ok();
      }
    }
  }
  return visit(*b, fresh);
}

Status ReferenceEvaluator::RecomputeAggregate(const Rule& rule) {
  // Group key -> the inputs of each aggregate head argument.
  std::map<Tuple, std::vector<std::vector<Value>>> groups;
  BOOM_RETURN_IF_ERROR(ForEachBinding(rule, [&](const Bindings& b, bool) -> Status {
    std::vector<Value> key;
    std::vector<Value> inputs;
    for (const HeadArg& arg : rule.head.args) {
      BOOM_ASSIGN_OR_RETURN(Value v, Eval(arg.expr, b));
      (arg.agg == AggKind::kNone ? key : inputs).push_back(std::move(v));
    }
    std::vector<std::vector<Value>>& group = groups[Tuple(std::move(key))];
    group.resize(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      group[i].push_back(std::move(inputs[i]));
    }
    return Status::Ok();
  }));
  std::set<Tuple> rows;
  for (auto& [key, inputs] : groups) {
    std::vector<Value> row;
    size_t k = 0;
    size_t a = 0;
    for (const HeadArg& arg : rule.head.args) {
      if (arg.agg == AggKind::kNone) {
        row.push_back(key[k++]);
      } else {
        BOOM_ASSIGN_OR_RETURN(Value v, Fold(arg, std::move(inputs[a++])));
        row.push_back(std::move(v));
      }
    }
    rows.insert(Tuple(std::move(row)));
  }
  // The rule is its head's only writer: the head now holds exactly these rows.
  TableState& head = tables_.at(rule.head.table);
  for (auto it = head.rows.begin(); it != head.rows.end();) {
    if (rows.count(*it) == 0) {
      head.fresh.erase(*it);
      it = head.rows.erase(it);
    } else {
      ++it;
    }
  }
  for (const Tuple& row : rows) {
    Insert(rule.head.table, row);
  }
  return Status::Ok();
}

Status ReferenceEvaluator::Tick() {
  for (auto& [name, t] : tables_) {
    t.fresh.clear();
  }
  const bool first = !ticked_;
  ticked_ = true;
  if (first) {
    for (auto& [name, t] : tables_) {
      t.fresh = t.rows;
    }
  }
  std::vector<std::pair<std::string, Tuple>> inbox(next_.begin(), next_.end());
  next_.clear();
  inbox.insert(inbox.end(), inbox_.begin(), inbox_.end());
  inbox_.clear();
  for (const auto& [table, row] : inbox) {
    Insert(table, row);
  }

  std::set<std::pair<std::string, Tuple>> deletes;
  constexpr int kMaxPasses = 10000;
  for (int s = 0; s < num_strata_; ++s) {
    for (size_t r = 0; r < program_.rules.size(); ++r) {
      if (rule_stratum_[r] == s && program_.rules[r].head.HasAggregate()) {
        BOOM_RETURN_IF_ERROR(RecomputeAggregate(program_.rules[r]));
      }
    }
    for (int pass = 0;; ++pass) {
      if (pass == kMaxPasses) {
        return Internal("no fixpoint after " + std::to_string(kMaxPasses) + " passes");
      }
      bool changed = false;
      for (size_t r = 0; r < program_.rules.size(); ++r) {
        const Rule& rule = program_.rules[r];
        if (rule_stratum_[r] != s || rule.head.HasAggregate()) {
          continue;
        }
        const bool driverless =
            std::none_of(rule.body.begin(), rule.body.end(), [](const BodyTerm& t) {
              return t.kind == BodyTerm::Kind::kAtom && !t.atom.negated;
            });
        std::vector<Tuple> heads;
        BOOM_RETURN_IF_ERROR(ForEachBinding(rule, [&](const Bindings& b, bool fresh) -> Status {
          if (!fresh && !(driverless && first)) {
            return Status::Ok();
          }
          std::vector<Value> row;
          for (const HeadArg& arg : rule.head.args) {
            BOOM_ASSIGN_OR_RETURN(Value v, Eval(arg.expr, b));
            row.push_back(std::move(v));
          }
          heads.emplace_back(std::move(row));
          return Status::Ok();
        }));
        for (const Tuple& row : heads) {
          if (rule.is_delete) {
            deletes.emplace(rule.head.table, row);
          } else if (rule.is_next) {
            next_.emplace(rule.head.table, row);
          } else {
            changed = Insert(rule.head.table, row) || changed;
          }
        }
      }
      if (!changed) {
        break;
      }
    }
  }

  for (const auto& [table, row] : deletes) {
    TableState& t = tables_.at(table);
    t.rows.erase(row);
    t.fresh.erase(row);
  }
  for (auto& [name, t] : tables_) {
    if (t.def.kind == TableKind::kEvent) {
      t.last_tick = std::move(t.rows);
      t.rows.clear();
    }
  }
  return Status::Ok();
}

std::vector<std::string> ReferenceEvaluator::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, t] : tables_) {
    names.push_back(name);
  }
  return names;
}

std::set<Tuple> ReferenceEvaluator::Rows(const std::string& table) const {
  const TableState& t = tables_.at(table);
  return t.def.kind == TableKind::kEvent ? t.last_tick : t.rows;
}

}  // namespace boom
