#include "src/overlog/eval.h"

#include <algorithm>
#include <limits>
#include <map>

#include "src/base/logging.h"

namespace boom {

namespace {

// Depth-indexed scratch pool for kCall argument vectors: every rule body evaluation calls
// EvalExpr, so the per-call `std::vector<Value> args` allocation was pure hot-path churn.
// One buffer per call-nesting depth; unique_ptr keeps buffer addresses stable while the
// pool itself grows under a deeper recursion.
std::vector<Value>& CallArgsScratch(size_t depth) {
  thread_local std::vector<std::unique_ptr<std::vector<Value>>> pool;
  while (pool.size() <= depth) {
    pool.push_back(std::make_unique<std::vector<Value>>());
  }
  pool[depth]->clear();
  return *pool[depth];
}

Result<Value> EvalExprAtDepth(const Expr& expr, const std::vector<Value>& slots,
                              const std::unordered_map<std::string, int>& slot_of,
                              const BuiltinRegistry& builtins, const EvalContext& ctx,
                              size_t depth) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return expr.constant;
    case ExprKind::kVar: {
      if (expr.slot >= 0) {  // planner-resolved fast path
        return slots[static_cast<size_t>(expr.slot)];
      }
      auto it = slot_of.find(expr.var);
      if (it == slot_of.end()) {
        return Internal("unbound variable " + expr.var);
      }
      return slots[static_cast<size_t>(it->second)];
    }
    case ExprKind::kCall: {
      std::vector<Value>& args = CallArgsScratch(depth);
      args.reserve(expr.args.size());
      for (const Expr& a : expr.args) {
        Result<Value> v = EvalExprAtDepth(a, slots, slot_of, builtins, ctx, depth + 1);
        if (!v.ok()) {
          return v;
        }
        args.push_back(std::move(v).value());
      }
      return builtins.Call(ctx, expr.fn, args);
    }
  }
  return Internal("bad expression kind");
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const std::vector<Value>& slots,
                       const std::unordered_map<std::string, int>& slot_of,
                       const BuiltinRegistry& builtins, const EvalContext& ctx) {
  return EvalExprAtDepth(expr, slots, slot_of, builtins, ctx, 0);
}

void Evaluator::RecordError(const Status& status) {
  if (errors_.size() < kMaxErrors) {
    errors_.push_back(status.ToString());
  }
}

bool Evaluator::BindAtomRow(const CompiledAtom& atom, const Tuple& row,
                            std::vector<Value>* slots) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const CompiledArg& arg = atom.args[i];
    if (arg.is_const) {
      if (!(row[i] == arg.constant)) {
        return false;
      }
    } else if (arg.first_binding) {
      (*slots)[static_cast<size_t>(arg.slot)] = row[i];
    } else {
      if (!(row[i] == (*slots)[static_cast<size_t>(arg.slot)])) {
        return false;
      }
    }
  }
  return true;
}

template <typename EmitFn>
void Evaluator::JoinSteps(const CompiledRule& rule, const CompiledVariant& variant,
                          size_t step_idx, std::vector<Value>* slots, EmitFn&& emit) {
  if (step_idx == variant.steps.size()) {
    emit(*slots);
    return;
  }
  const CompiledStep& step = variant.steps[step_idx];
  switch (step.kind) {
    case BodyTerm::Kind::kCondition: {
      Result<Value> v = EvalExpr(step.condition, *slots, rule.slot_of, *builtins_, *ctx_);
      if (!v.ok()) {
        RecordError(v.status());
        return;
      }
      if (v->Truthy()) {
        JoinSteps(rule, variant, step_idx + 1, slots, emit);
      }
      return;
    }
    case BodyTerm::Kind::kAssign: {
      Result<Value> v = EvalExpr(step.assign_expr, *slots, rule.slot_of, *builtins_, *ctx_);
      if (!v.ok()) {
        RecordError(v.status());
        return;
      }
      (*slots)[static_cast<size_t>(step.assign_slot)] = std::move(v).value();
      JoinSteps(rule, variant, step_idx + 1, slots, emit);
      return;
    }
    case BodyTerm::Kind::kAtom: {
      const CompiledAtom& atom = step.atom;
      Table* table = &catalog_->ById(atom.table_id);
      auto probe_value = [&atom, slots](size_t col) -> const Value& {
        const CompiledArg& arg = atom.args[col];
        return arg.is_const ? arg.constant : (*slots)[static_cast<size_t>(arg.slot)];
      };
      // Build the probe key from const and pre-bound argument positions in a per-depth
      // scratch buffer; the table is probed by view (precomputed hash, no Tuple built).
      std::vector<Value>& probe_vals = ProbeScratch(step_idx);
      for (size_t col : atom.probe_cols) {
        probe_vals.push_back(probe_value(col));
      }
      if (atom.key_lookup) {
        // ProbeKey already checked every probe column, key and non-key.
        const Tuple* row = table->ProbeKey(atom.probe_cols, probe_vals.data());
        if (atom.negated) {
          if (row == nullptr) {
            JoinSteps(rule, variant, step_idx + 1, slots, emit);
          }
        } else if (row != nullptr && BindAtomRow(atom, *row, slots)) {
          JoinSteps(rule, variant, step_idx + 1, slots, emit);
        }
        return;
      }
      const std::vector<const Tuple*>& rows =
          table->Probe(atom.probe_cols, TupleView::Of(probe_vals.data(), probe_vals.size()));
#ifndef NDEBUG
      // Derivations are buffered until the rule finishes, so nothing may mutate the probed
      // table while we iterate its rows; debug builds enforce that here.
      const uint64_t probe_gen = table->probe_generation();
#endif
      if (atom.negated) {
        if (rows.empty()) {
          JoinSteps(rule, variant, step_idx + 1, slots, emit);
        }
        return;
      }
      for (const Tuple* row : rows) {
        if (BindAtomRow(atom, *row, slots)) {
          JoinSteps(rule, variant, step_idx + 1, slots, emit);
        }
      }
#ifndef NDEBUG
      table->AssertProbeFresh(probe_gen);
#endif
      return;
    }
  }
}

void Evaluator::EmitHead(const CompiledRule& rule, const std::vector<Value>& slots,
                         std::vector<Derivation>* out) {
  std::vector<Value>& vals = head_scratch_;
  vals.clear();
  vals.reserve(rule.head_args.size());
  for (const CompiledHeadArg& arg : rule.head_args) {
    Result<Value> v = EvalExpr(arg.expr, slots, rule.slot_of, *builtins_, *ctx_);
    if (!v.ok()) {
      RecordError(v.status());
      return;
    }
    vals.push_back(std::move(v).value());
  }
  Derivation d;
  d.kind = rule.is_delete ? Derivation::Kind::kDelete : Derivation::Kind::kInsert;
  d.next = rule.is_next;
  d.table = rule.head_table_id;
  if (rule.head_has_location) {
    if (!vals[0].is_string()) {
      RecordError(InvalidArgument("rule " + rule.name + ": @location must be a string, got " +
                                  vals[0].ToString()));
      return;
    }
    if (vals[0].as_string() != ctx_->local_address) {
      d.remote = true;
      d.dest = vals[0].as_string();
    }
  }
  d.tuple = Tuple(vals.data(), vals.size());  // copy out of the scratch; Values are cheap
  out->push_back(std::move(d));
}

void Evaluator::EvalFromRows(const CompiledRule& rule, const CompiledVariant& variant,
                             const Tuple* begin, const Tuple* end,
                             std::vector<Derivation>* out) {
  EnsureProbeDepth(variant.steps.size());
  // Reused scratch: unbound slots are never read (planner safety guarantees bound-before-
  // use), so resetting to nil is only for debuggability, not correctness.
  std::vector<Value>& slots = slots_scratch_;
  slots.assign(static_cast<size_t>(rule.num_slots), Value());
  auto emit = [this, &rule, out](const std::vector<Value>& s) { EmitHead(rule, s, out); };
  for (const Tuple* row = begin; row != end; ++row) {
    if (BindAtomRow(variant.driver, *row, &slots)) {
      JoinSteps(rule, variant, 0, &slots, emit);
    }
  }
}

void Evaluator::EvalFull(const CompiledRule& rule, std::vector<Derivation>* out) {
  const CompiledVariant& variant = rule.full_variant;
  if (variant.driver_table.empty()) {
    EnsureProbeDepth(variant.steps.size());
    std::vector<Value>& slots = slots_scratch_;
    slots.assign(static_cast<size_t>(rule.num_slots), Value());
    JoinSteps(rule, variant, 0, &slots,
              [this, &rule, out](const std::vector<Value>& s) { EmitHead(rule, s, out); });
    return;
  }
  // Nothing mutates a table while the rule evaluates (derivations are buffered), so the
  // driver is visited in place.
  EnsureProbeDepth(variant.steps.size());
  std::vector<Value>& slots = slots_scratch_;
  slots.assign(static_cast<size_t>(rule.num_slots), Value());
  auto emit = [this, &rule, out](const std::vector<Value>& s) { EmitHead(rule, s, out); };
  catalog_->ById(variant.driver.table_id).ForEach([&](const Tuple& row) {
    if (BindAtomRow(variant.driver, row, &slots)) {
      JoinSteps(rule, variant, 0, &slots, emit);
    }
  });
}

Result<Value> FinishIntegerAggregate(AggKind kind, __int128 sum, int64_t count) {
  if (kind == AggKind::kAvg) {
    return Value(static_cast<double>(sum) / static_cast<double>(count));
  }
  if (sum < std::numeric_limits<int64_t>::min() || sum > std::numeric_limits<int64_t>::max()) {
    return InvalidArgument("integer overflow in sum<> over " + std::to_string(count) +
                           " inputs");
  }
  return Value(static_cast<int64_t>(sum));
}

bool Evaluator::GroupKeyOf(const CompiledRule& rule, const std::vector<Value>& slots,
                           Tuple* key) {
  std::vector<Value>& vals = head_scratch_;
  vals.clear();
  for (const CompiledHeadArg& arg : rule.head_args) {
    if (arg.agg != AggKind::kNone) {
      continue;
    }
    Result<Value> v = EvalExpr(arg.expr, slots, rule.slot_of, *builtins_, *ctx_);
    if (!v.ok()) {
      RecordError(v.status());
      return false;
    }
    vals.push_back(std::move(v).value());
  }
  *key = Tuple(vals.data(), vals.size());
  return true;
}

const std::vector<Value>* Evaluator::AggInputsOf(const CompiledRule& rule,
                                                 const std::vector<Value>& slots) {
  std::vector<Value>& vals = agg_input_scratch_;
  vals.clear();
  for (const CompiledHeadArg& arg : rule.head_args) {
    if (arg.agg == AggKind::kNone) {
      continue;
    }
    Result<Value> v = EvalExpr(arg.expr, slots, rule.slot_of, *builtins_, *ctx_);
    if (!v.ok()) {
      RecordError(v.status());
      return nullptr;
    }
    vals.push_back(std::move(v).value());
  }
  return &vals;
}

void Evaluator::EvalAggBindings(const CompiledRule& rule, const CompiledVariant& variant,
                                const Tuple* begin, const Tuple* end,
                                std::vector<Tuple>* keys,
                                std::vector<std::vector<Value>>* inputs) {
  EnsureProbeDepth(variant.steps.size());
  std::vector<Value>& slots = slots_scratch_;
  slots.assign(static_cast<size_t>(rule.num_slots), Value());
  auto emit = [&](const std::vector<Value>& bound) {
    Tuple key;
    if (!GroupKeyOf(rule, bound, &key)) {
      return;
    }
    if (inputs != nullptr) {
      const std::vector<Value>* values = AggInputsOf(rule, bound);
      if (values == nullptr) {
        return;
      }
      inputs->push_back(*values);
    }
    keys->push_back(std::move(key));
  };
  if (variant.driver_table.empty()) {
    JoinSteps(rule, variant, 0, &slots, emit);
    return;
  }
  for (const Tuple* row = begin; row != end; ++row) {
    if (BindAtomRow(variant.driver, *row, &slots)) {
      JoinSteps(rule, variant, 0, &slots, emit);
    }
  }
}

template <typename DriveFn, typename InputsFn>
void Evaluator::CollectBindings(const CompiledRule& rule, DriveFn&& drive,
                                InputsFn&& inputs_of) {
  const CompiledVariant& variant = rule.full_variant;
  // Every binding is a distinct combination of body rows (a wildcard is a slot too, and
  // tables are sets), and each is one aggregate input.
  auto emit = [&](const std::vector<Value>& slots) {
    const std::vector<Value>* values = AggInputsOf(rule, slots);
    if (values == nullptr) {
      return;
    }
    if (std::vector<std::vector<Value>>* inputs = inputs_of(slots)) {
      inputs->resize(values->size());
      for (size_t j = 0; j < values->size(); ++j) {
        (*inputs)[j].push_back((*values)[j]);
      }
    }
  };
  EnsureProbeDepth(variant.steps.size());
  std::vector<Value>& slots = slots_scratch_;
  slots.assign(static_cast<size_t>(rule.num_slots), Value());
  if (variant.driver_table.empty()) {
    JoinSteps(rule, variant, 0, &slots, emit);
    return;
  }
  drive([&](const Tuple& row) {
    if (BindAtomRow(variant.driver, row, &slots)) {
      JoinSteps(rule, variant, 0, &slots, emit);
    }
  });
}

std::map<Tuple, std::vector<std::vector<Value>>> Evaluator::GroupAllBindings(
    const CompiledRule& rule, const std::vector<Tuple>* only) {
  std::map<Tuple, std::vector<std::vector<Value>>> groups;
  const uint32_t driver = rule.full_variant.driver.table_id;
  CollectBindings(
      rule, [&](auto&& visit) { catalog_->ById(driver).ForEach(visit); },
      [&](const std::vector<Value>& slots) -> std::vector<std::vector<Value>>* {
        Tuple key;
        if (!GroupKeyOf(rule, slots, &key) ||
            (only != nullptr && !std::binary_search(only->begin(), only->end(), key))) {
          return nullptr;
        }
        return &groups[std::move(key)];
      });
  return groups;
}

Tuple Evaluator::FoldGroup(const CompiledRule& rule, const Tuple& key,
                           std::vector<std::vector<Value>>& agg_inputs) {
  std::vector<Value> vals;
  vals.reserve(rule.head_args.size());
  size_t key_idx = 0;
  size_t agg_idx = 0;
  for (const CompiledHeadArg& arg : rule.head_args) {
    if (arg.agg == AggKind::kNone) {
      vals.push_back(key[key_idx++]);
      continue;
    }
    std::vector<Value>& inputs = agg_inputs[agg_idx++];
    switch (arg.agg) {
      case AggKind::kCount:
        vals.push_back(Value(static_cast<int64_t>(inputs.size())));
        break;
      case AggKind::kSum:
      case AggKind::kAvg: {
        if (std::all_of(inputs.begin(), inputs.end(),
                        [](const Value& v) { return v.is_int(); })) {
          __int128 sum = 0;
          for (const Value& v : inputs) {
            sum += v.as_int();
          }
          Result<Value> v =
              FinishIntegerAggregate(arg.agg, sum, static_cast<int64_t>(inputs.size()));
          if (!v.ok()) {
            RecordError(v.status());
            return Tuple();
          }
          vals.push_back(std::move(v).value());
          break;
        }
        double sum = 0;
        for (const Value& v : inputs) {
          sum += v.ToDouble();
        }
        vals.push_back(
            Value(arg.agg == AggKind::kSum ? sum : sum / static_cast<double>(inputs.size())));
        break;
      }
      case AggKind::kMin:
        vals.push_back(*std::min_element(inputs.begin(), inputs.end()));
        break;
      case AggKind::kMax:
        vals.push_back(*std::max_element(inputs.begin(), inputs.end()));
        break;
      case AggKind::kBottomK: {
        std::sort(inputs.begin(), inputs.end());
        ValueList list;
        size_t n = std::min(inputs.size(), static_cast<size_t>(arg.k));
        list.assign(inputs.begin(), inputs.begin() + static_cast<long>(n));
        vals.push_back(Value(std::move(list)));
        break;
      }
      case AggKind::kNone:
        break;
    }
  }
  return Tuple(std::move(vals));
}

void Evaluator::EvalAggregate(const CompiledRule& rule, std::vector<Tuple>* head_rows) {
  for (auto& [key, inputs] : GroupAllBindings(rule, nullptr)) {
    Tuple row = FoldGroup(rule, key, inputs);
    if (!row.empty()) {
      head_rows->push_back(std::move(row));
    }
  }
}

void Evaluator::EvalAggGroups(const CompiledRule& rule, const std::vector<Tuple>& keys,
                              std::vector<Tuple>* rows) {
  rows->assign(keys.size(), Tuple());
  const AggregatePlan& plan = rule.agg;
  if (!plan.group_probe) {
    // One pass over every binding serves all the groups.
    std::map<Tuple, std::vector<std::vector<Value>>> groups = GroupAllBindings(rule, &keys);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = groups.find(keys[i]);
      if (it != groups.end()) {
        (*rows)[i] = FoldGroup(rule, keys[i], it->second);
      }
    }
    return;
  }
  const CompiledAtom& atom = rule.full_variant.driver;
  Table& driver = catalog_->ById(atom.table_id);
  if (driver.def().kind == TableKind::kEvent) {
    // An event table holds only this tick's rows: one pass over it serves every group, and a
    // row's group is known once the row binds.
    std::vector<std::vector<std::vector<Value>>> inputs(keys.size());
    const Tuple* row_now = nullptr;
    const Tuple* keyed_row = nullptr;
    std::vector<std::vector<Value>>* group = nullptr;
    CollectBindings(
        rule,
        [&](auto&& visit) {
          driver.ForEach([&](const Tuple& row) {
            row_now = &row;
            visit(row);
          });
        },
        [&](const std::vector<Value>& slots) {
          if (keyed_row != row_now) {
            keyed_row = row_now;
            group = nullptr;
            Tuple key;
            if (GroupKeyOf(rule, slots, &key)) {
              auto it = std::lower_bound(keys.begin(), keys.end(), key);
              if (it != keys.end() && *it == key) {
                group = &inputs[static_cast<size_t>(it - keys.begin())];
              }
            }
          }
          return group;
        });
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!inputs[i].empty()) {
        (*rows)[i] = FoldGroup(rule, keys[i], inputs[i]);
      }
    }
    return;
  }
  // A group's bindings start at the driver rows its key selects, so each is the group's.
  std::vector<Value>& probe_vals = group_probe_scratch_;
  std::vector<std::vector<Value>> inputs;
  for (size_t i = 0; i < keys.size(); ++i) {
    probe_vals.clear();
    for (size_t c = 0; c < plan.group_cols.size(); ++c) {
      const int pos = plan.group_key_pos[c];
      probe_vals.push_back(pos < 0 ? atom.args[plan.group_cols[c]].constant
                                   : keys[i][static_cast<size_t>(pos)]);
    }
    auto drive = [&](auto&& visit) {
      if (plan.group_cols.empty()) {
        driver.ForEach(visit);
      } else if (plan.group_key_lookup) {
        if (const Tuple* row = driver.ProbeKey(plan.group_cols, probe_vals.data())) {
          visit(*row);
        }
      } else {
        for (const Tuple* row : driver.Probe(
                 plan.group_cols, TupleView::Of(probe_vals.data(), probe_vals.size()))) {
          visit(*row);
        }
      }
    };
    inputs.clear();
    CollectBindings(rule, drive,
                    [&inputs](const std::vector<Value>&) { return &inputs; });
    if (!inputs.empty()) {
      (*rows)[i] = FoldGroup(rule, keys[i], inputs);
    }
  }
}

}  // namespace boom
