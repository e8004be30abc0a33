#include "src/overlog/eval.h"

#include <algorithm>
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

void Evaluator::EvalAggBindings(const CompiledRule& rule, const Tuple* begin,
                                const Tuple* end,
                                std::vector<std::pair<Tuple, std::vector<Value>>>* out) {
  const CompiledVariant& variant = rule.full_variant;
  std::vector<size_t> agg_positions;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (rule.head_args[i].agg != AggKind::kNone) {
      agg_positions.push_back(i);
    }
  }
  EnsureProbeDepth(variant.steps.size());
  std::vector<Value>& slots = slots_scratch_;
  slots.assign(static_cast<size_t>(rule.num_slots), Value());
  auto emit = [&](const std::vector<Value>& bound) {
    std::vector<Value> key_vals;
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      if (rule.head_args[i].agg != AggKind::kNone) {
        continue;
      }
      Result<Value> v = EvalExpr(rule.head_args[i].expr, bound, rule.slot_of, *builtins_, *ctx_);
      if (!v.ok()) {
        RecordError(v.status());
        return;
      }
      key_vals.push_back(std::move(v).value());
    }
    std::vector<Value> inputs;
    inputs.reserve(agg_positions.size());
    for (size_t pos : agg_positions) {
      Result<Value> v =
          EvalExpr(rule.head_args[pos].expr, bound, rule.slot_of, *builtins_, *ctx_);
      if (!v.ok()) {
        RecordError(v.status());
        return;
      }
      inputs.push_back(std::move(v).value());
    }
    out->emplace_back(Tuple(std::move(key_vals)), std::move(inputs));
  };
  for (const Tuple* row = begin; row != end; ++row) {
    if (BindAtomRow(variant.driver, *row, &slots)) {
      JoinSteps(rule, variant, 0, &slots, emit);
    }
  }
}

void Evaluator::EvalAggregate(const CompiledRule& rule, std::vector<Tuple>* head_rows) {
  const CompiledVariant& variant = rule.full_variant;

  // Positions of aggregate vs plain head args.
  std::vector<size_t> agg_positions;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (rule.head_args[i].agg != AggKind::kNone) {
      agg_positions.push_back(i);
    }
  }

  // group key -> accumulated agg inputs; dedup on full binding fingerprints. With a single
  // positive atom, driver rows are already distinct, so no dedup is needed.
  std::map<Tuple, AggGroup> groups;
  std::unordered_map<size_t, std::vector<Tuple>> seen_fingerprints;  // hash -> tuples
  const bool need_dedup = !rule.single_positive_atom;

  auto emit = [&](const std::vector<Value>& slots) {
    if (need_dedup) {
      // Fingerprint over all slots the planner guarantees bound.
      std::vector<Value> fp_vals;
      fp_vals.reserve(variant.bound_slots.size());
      for (int s : variant.bound_slots) {
        fp_vals.push_back(slots[static_cast<size_t>(s)]);
      }
      Tuple fingerprint(std::move(fp_vals));
      std::vector<Tuple>& bucket = seen_fingerprints[fingerprint.hash()];
      for (const Tuple& t : bucket) {
        if (t == fingerprint) {
          return;  // duplicate binding
        }
      }
      bucket.push_back(fingerprint);
    }

    // Group key from plain head args.
    std::vector<Value> key_vals;
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      if (rule.head_args[i].agg != AggKind::kNone) {
        continue;
      }
      Result<Value> v = EvalExpr(rule.head_args[i].expr, slots, rule.slot_of, *builtins_, *ctx_);
      if (!v.ok()) {
        RecordError(v.status());
        return;
      }
      key_vals.push_back(std::move(v).value());
    }
    AggGroup& group = groups[Tuple(std::move(key_vals))];
    if (group.agg_inputs.empty()) {
      group.agg_inputs.resize(agg_positions.size());
    }
    for (size_t j = 0; j < agg_positions.size(); ++j) {
      const CompiledHeadArg& arg = rule.head_args[agg_positions[j]];
      Result<Value> v = EvalExpr(arg.expr, slots, rule.slot_of, *builtins_, *ctx_);
      if (!v.ok()) {
        RecordError(v.status());
        return;
      }
      group.agg_inputs[j].push_back(std::move(v).value());
    }
  };

  EnsureProbeDepth(variant.steps.size());
  std::vector<Value>& slots = slots_scratch_;
  slots.assign(static_cast<size_t>(rule.num_slots), Value());
  if (variant.driver_table.empty()) {
    JoinSteps(rule, variant, 0, &slots, emit);
  } else {
    catalog_->ById(variant.driver.table_id).ForEach([&](const Tuple& row) {
      if (BindAtomRow(variant.driver, row, &slots)) {
        JoinSteps(rule, variant, 0, &slots, emit);
      }
    });
  }

  // Fold each group into a head tuple.
  for (auto& [key, group] : groups) {
    std::vector<Value> vals;
    vals.reserve(rule.head_args.size());
    size_t key_idx = 0;
    size_t agg_idx = 0;
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      const CompiledHeadArg& arg = rule.head_args[i];
      if (arg.agg == AggKind::kNone) {
        vals.push_back(key[key_idx++]);
        continue;
      }
      std::vector<Value>& inputs = group.agg_inputs[agg_idx++];
      switch (arg.agg) {
        case AggKind::kCount:
          vals.push_back(Value(static_cast<int64_t>(inputs.size())));
          break;
        case AggKind::kSum: {
          bool all_int = true;
          for (const Value& v : inputs) {
            all_int = all_int && v.is_int();
          }
          if (all_int) {
            int64_t sum = 0;
            for (const Value& v : inputs) {
              sum += v.as_int();
            }
            vals.push_back(Value(sum));
          } else {
            double sum = 0;
            for (const Value& v : inputs) {
              sum += v.ToDouble();
            }
            vals.push_back(Value(sum));
          }
          break;
        }
        case AggKind::kMin:
          vals.push_back(*std::min_element(inputs.begin(), inputs.end()));
          break;
        case AggKind::kMax:
          vals.push_back(*std::max_element(inputs.begin(), inputs.end()));
          break;
        case AggKind::kAvg: {
          double sum = 0;
          for (const Value& v : inputs) {
            sum += v.ToDouble();
          }
          vals.push_back(Value(inputs.empty() ? 0.0 : sum / static_cast<double>(inputs.size())));
          break;
        }
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
    head_rows->push_back(Tuple(std::move(vals)));
  }
}

}  // namespace boom
