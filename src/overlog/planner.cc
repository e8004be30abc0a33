#include "src/overlog/planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/base/logging.h"

namespace boom {

namespace {

// Working state for compiling a single rule.
class RuleCompiler {
 public:
  RuleCompiler(const Rule& rule, const std::string& program, const Catalog& catalog,
               const PlannerOptions& options)
      : rule_(rule), program_(program), catalog_(catalog), options_(options) {}

  Result<CompiledRule> Run() {
    CompiledRule out;
    out.name = rule_.name;
    out.program = program_;
    out.is_delete = rule_.is_delete;
    out.is_next = rule_.is_next;
    out.has_agg = rule_.head.HasAggregate();
    if (out.is_next && out.has_agg) {
      return Err("@next cannot be combined with aggregates");
    }
    if (out.is_next && out.is_delete) {
      return Err("@next cannot be combined with delete (deletes already defer)");
    }
    out.head_table = rule_.head.table;
    out.head_has_location = rule_.head.has_location;

    const Table* head_table = catalog_.Find(rule_.head.table);
    if (head_table == nullptr) {
      return Err("head table '" + rule_.head.table + "' is not declared");
    }
    if (head_table->def().arity() != rule_.head.args.size()) {
      return Err("head arity mismatch for " + rule_.head.table + ": rule has " +
                 std::to_string(rule_.head.args.size()) + " args, table has " +
                 std::to_string(head_table->def().arity()));
    }
    out.head_is_event = head_table->def().kind == TableKind::kEvent;
    if (out.is_delete) {
      if (out.head_is_event) {
        return Err("cannot delete from event table " + rule_.head.table);
      }
      if (out.has_agg) {
        return Err("delete rules cannot use aggregates");
      }
    }
    BOOM_RETURN_IF_ERROR(ValidateBodyAtoms());
    AssignSlots(&out);

    // Gather positive atom indices in the body.
    std::vector<size_t> positive_atoms;
    for (size_t i = 0; i < rule_.body.size(); ++i) {
      const BodyTerm& t = rule_.body[i];
      if (t.kind == BodyTerm::Kind::kAtom) {
        out.body_tables.push_back(t.atom.table);
        if (!t.atom.negated) {
          positive_atoms.push_back(i);
        }
      }
    }
    out.driverless = positive_atoms.empty();
    out.single_positive_atom = positive_atoms.size() == 1;

    // Full ordering (seed evaluation and aggregate rules): drive from the first positive
    // atom's full table contents, or no driver at all when the body has none.
    {
      Result<CompiledVariant> full = PlanVariant(
          out, positive_atoms.empty() ? -1 : static_cast<int>(positive_atoms[0]),
          positive_atoms);
      if (!full.ok()) {
        return full.status();
      }
      out.full_variant = std::move(full).value();
    }

    if (!out.has_agg) {
      for (size_t atom_idx : positive_atoms) {
        Result<CompiledVariant> variant =
            PlanVariant(out, static_cast<int>(atom_idx), positive_atoms);
        if (!variant.ok()) {
          return variant.status();
        }
        out.variants.push_back(std::move(variant).value());
      }
    }

    // Resolve kVar expressions to slot indexes so evaluation never hashes a variable name.
    for (CompiledHeadArg& arg : out.head_args) {
      ResolveExprSlots(&arg.expr, out);
    }
    ResolveVariantSlots(&out.full_variant, out);
    for (CompiledVariant& variant : out.variants) {
      ResolveVariantSlots(&variant, out);
    }
    return out;
  }

 private:
  Status Err(const std::string& msg) const {
    return InvalidArgument("rule " + rule_.name + ": " + msg);
  }

  Status ValidateBodyAtoms() const {
    for (const BodyTerm& t : rule_.body) {
      if (t.kind != BodyTerm::Kind::kAtom) {
        continue;
      }
      const Table* table = catalog_.Find(t.atom.table);
      if (table == nullptr) {
        return Err("body table '" + t.atom.table + "' is not declared");
      }
      if (table->def().arity() != t.atom.args.size()) {
        return Err("arity mismatch for " + t.atom.table + ": atom has " +
                   std::to_string(t.atom.args.size()) + " args, table has " +
                   std::to_string(table->def().arity()));
      }
    }
    return Status::Ok();
  }

  void AssignSlots(CompiledRule* out) {
    auto intern = [out](const std::string& var) {
      auto [it, added] = out->slot_of.emplace(var, out->num_slots);
      if (added) {
        ++out->num_slots;
      }
      return it->second;
    };
    for (const BodyTerm& t : rule_.body) {
      std::set<std::string> vars;
      switch (t.kind) {
        case BodyTerm::Kind::kAtom:
          for (const Expr& a : t.atom.args) {
            a.CollectVars(&vars);
          }
          break;
        case BodyTerm::Kind::kAssign:
          vars.insert(t.assign.var);
          t.assign.expr.CollectVars(&vars);
          break;
        case BodyTerm::Kind::kCondition:
          t.condition.CollectVars(&vars);
          break;
      }
      for (const std::string& v : vars) {
        intern(v);
      }
    }
    for (const HeadArg& a : rule_.head.args) {
      std::set<std::string> vars;
      a.expr.CollectVars(&vars);
      for (const std::string& v : vars) {
        intern(v);
      }
    }
    // Compile head args.
    for (const HeadArg& a : rule_.head.args) {
      CompiledHeadArg ch;
      ch.expr = a.expr;
      ch.agg = a.agg;
      ch.k = a.k;
      out->head_args.push_back(std::move(ch));
    }
  }

  static void ResolveExprSlots(Expr* e, const CompiledRule& out) {
    if (e->kind == ExprKind::kVar) {
      auto it = out.slot_of.find(e->var);
      if (it != out.slot_of.end()) {
        e->slot = it->second;
      }
    }
    for (Expr& a : e->args) {
      ResolveExprSlots(&a, out);
    }
  }
  static void ResolveVariantSlots(CompiledVariant* variant, const CompiledRule& out) {
    for (CompiledStep& step : variant->steps) {
      ResolveExprSlots(&step.assign_expr, out);
      ResolveExprSlots(&step.condition, out);
    }
  }

  bool ExprVarsBound(const Expr& e, const std::set<int>& bound,
                     const CompiledRule& out) const {
    std::set<std::string> vars;
    e.CollectVars(&vars);
    for (const std::string& v : vars) {
      if (bound.count(out.slot_of.at(v)) == 0) {
        return false;
      }
    }
    return true;
  }

  static bool IsAnonVar(const std::string& name) {
    return name.rfind("_Anon", 0) == 0;
  }

  // Compiles an atom given the current bound-slot set; updates `bound` with new bindings.
  CompiledAtom CompileAtom(const Atom& atom, const CompiledRule& out,
                           std::set<int>* bound, bool is_probe) const {
    CompiledAtom ca;
    ca.table = atom.table;
    ca.negated = atom.negated;
    std::set<int> locally_bound;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Expr& arg = atom.args[i];
      CompiledArg carg;
      if (arg.is_const()) {
        carg.is_const = true;
        carg.constant = arg.constant;
        ca.probe_cols.push_back(i);
      } else {
        int slot = out.slot_of.at(arg.var);
        carg.slot = slot;
        bool already = bound->count(slot) > 0 || locally_bound.count(slot) > 0;
        if (already) {
          carg.first_binding = false;
          // Pre-bound vars participate in the index probe; within-atom repeats are checked
          // after binding instead.
          if (bound->count(slot) > 0 && locally_bound.count(slot) == 0) {
            ca.probe_cols.push_back(i);
          }
        } else {
          carg.first_binding = true;
          locally_bound.insert(slot);
        }
      }
      ca.args.push_back(std::move(carg));
    }
    ca.key_lookup = is_probe && catalog_.Find(atom.table)->def().KeyCoveredBy(ca.probe_cols);
    if (!atom.negated) {
      for (int s : locally_bound) {
        bound->insert(s);
      }
    }
    return ca;
  }

  // True when all *named* variables of a negated atom are bound (anonymous ones are
  // existential).
  bool NegatedAtomReady(const Atom& atom, const CompiledRule& out,
                        const std::set<int>& bound) const {
    for (const Expr& arg : atom.args) {
      if (arg.is_var() && !IsAnonVar(arg.var) &&
          bound.count(out.slot_of.at(arg.var)) == 0) {
        return false;
      }
    }
    return true;
  }

  // Cost model: estimated rows matched when probing `ca` (rows scaled down by the distinct
  // count of each probe column, then by the observed probe-hit ratio). All inputs come from
  // PlannerOptions::stats; unknown tables estimate as a single row so const-bound atoms
  // still order ahead of unconstrained scans via their probe columns.
  double EstimatedMatches(const CompiledAtom& ca) const {
    auto it = options_.stats.find(ca.table);
    const TableStats* ts = it == options_.stats.end() ? nullptr : &it->second;
    double est = ts != nullptr ? std::max<double>(1.0, static_cast<double>(ts->rows)) : 1.0;
    if (ca.probe_cols.empty() && !ca.args.empty()) {
      // No bound or constant column: the "probe" is a cross product with every row. Stats
      // say nothing useful here — a table empty at plan time (every event table) can hold
      // rows mid-tick — so penalize unconditionally; a connected order always costs less
      // when one exists.
      return std::max(est, kCrossProductPenalty);
    }
    for (size_t col : ca.probe_cols) {
      uint64_t distinct =
          (ts != nullptr && col < ts->distinct.size()) ? ts->distinct[col] : 1;
      est /= static_cast<double>(std::max<uint64_t>(distinct, 1));
    }
    if (ts != nullptr && !ca.probe_cols.empty()) {
      est *= ts->probe_hit_ratio;
    }
    return std::max(est, 1e-3);
  }

  static constexpr double kCrossProductPenalty = 1e4;

  // Chooses the evaluation order for one variant. Under cost-based planning with >= 2
  // non-driver positive atoms, enumerates every permutation of those atoms (up to 6; the
  // cost-greedy fallback inside OrderBody handles wider bodies), costs each candidate as the
  // sum of estimated intermediate binding counts, and keeps the strictly cheapest —
  // permutations are generated in lexicographic order of body positions, so ties resolve to
  // body order deterministically.
  Result<CompiledVariant> PlanVariant(const CompiledRule& out, int driver_idx,
                                      const std::vector<size_t>& positive_atoms) const {
    std::vector<size_t> rest;
    for (size_t idx : positive_atoms) {
      if (static_cast<int>(idx) != driver_idx) {
        rest.push_back(idx);
      }
    }
    if (!options_.cost_based || rest.size() < 2 || rest.size() > 6) {
      return OrderBody(out, driver_idx, nullptr);
    }
    std::sort(rest.begin(), rest.end());
    bool have_best = false;
    double best_cost = 0;
    CompiledVariant best;
    do {
      Result<CompiledVariant> candidate = OrderBody(out, driver_idx, &rest);
      if (!candidate.ok()) {
        return candidate.status();
      }
      if (!have_best || candidate.value().est_cost < best_cost) {
        have_best = true;
        best_cost = candidate.value().est_cost;
        best = std::move(candidate).value();
      }
    } while (std::next_permutation(rest.begin(), rest.end()));
    return best;
  }

  // Orders one rule body. When `forced_positive` is non-null it dictates the relative order
  // of non-driver positive atoms; otherwise step 2 picks greedily (most-bound-first by
  // default, cheapest-estimated-matches under cost-based planning).
  Result<CompiledVariant> OrderBody(const CompiledRule& out, int driver_idx,
                                    const std::vector<size_t>* forced_positive) const {
    CompiledVariant variant;
    std::set<int> bound;
    std::vector<bool> used(rule_.body.size(), false);
    double est_bindings = 1.0;  // per driver row for delta variants
    double cost = 0;
    size_t forced_cursor = 0;

    if (driver_idx >= 0) {
      const Atom& driver_atom = rule_.body[static_cast<size_t>(driver_idx)].atom;
      variant.driver_table = driver_atom.table;
      variant.driver = CompileAtom(driver_atom, out, &bound, /*is_probe=*/false);
      used[static_cast<size_t>(driver_idx)] = true;
    }

    size_t remaining = 0;
    for (size_t i = 0; i < rule_.body.size(); ++i) {
      if (!used[i]) {
        ++remaining;
      }
    }

    while (remaining > 0) {
      bool progressed = false;

      // 1. Emit every ready condition, assignment, and negated atom (cheap filters first).
      for (size_t i = 0; i < rule_.body.size(); ++i) {
        if (used[i]) {
          continue;
        }
        const BodyTerm& t = rule_.body[i];
        if (t.kind == BodyTerm::Kind::kCondition &&
            ExprVarsBound(t.condition, bound, out)) {
          CompiledStep step;
          step.kind = BodyTerm::Kind::kCondition;
          step.condition = t.condition;
          variant.steps.push_back(std::move(step));
          used[i] = true;
          --remaining;
          progressed = true;
        } else if (t.kind == BodyTerm::Kind::kAssign &&
                   ExprVarsBound(t.assign.expr, bound, out)) {
          int slot = out.slot_of.at(t.assign.var);
          CompiledStep step;
          if (bound.count(slot) > 0) {
            // The target is already bound in this ordering (e.g. by the delta-driver atom of
            // another variant): unification semantics turn the assignment into an equality
            // check.
            step.kind = BodyTerm::Kind::kCondition;
            step.condition = Expr::Call("==", {Expr::Var(t.assign.var), t.assign.expr});
          } else {
            step.kind = BodyTerm::Kind::kAssign;
            step.assign_slot = slot;
            step.assign_expr = t.assign.expr;
            bound.insert(slot);
          }
          variant.steps.push_back(std::move(step));
          used[i] = true;
          --remaining;
          progressed = true;
        } else if (t.kind == BodyTerm::Kind::kAtom && t.atom.negated &&
                   NegatedAtomReady(t.atom, out, bound)) {
          CompiledStep step;
          step.kind = BodyTerm::Kind::kAtom;
          step.atom = CompileAtom(t.atom, out, &bound, /*is_probe=*/true);
          variant.steps.push_back(std::move(step));
          used[i] = true;
          --remaining;
          progressed = true;
        }
      }
      if (progressed) {
        continue;
      }

      // 2. Pick the next positive atom: the forced enumeration order when planning
      //    cost-based candidates, the cheapest estimated probe under cost-greedy fallback,
      //    or the classic most-bound/const-count heuristic by default.
      int best = -1;
      if (forced_positive != nullptr) {
        while (forced_cursor < forced_positive->size() &&
               used[(*forced_positive)[forced_cursor]]) {
          ++forced_cursor;
        }
        if (forced_cursor < forced_positive->size()) {
          best = static_cast<int>((*forced_positive)[forced_cursor++]);
        }
      } else if (options_.cost_based) {
        double best_est = 0;
        for (size_t i = 0; i < rule_.body.size(); ++i) {
          if (used[i]) {
            continue;
          }
          const BodyTerm& t = rule_.body[i];
          if (t.kind != BodyTerm::Kind::kAtom || t.atom.negated) {
            continue;
          }
          std::set<int> trial_bound = bound;
          CompiledAtom trial = CompileAtom(t.atom, out, &trial_bound, /*is_probe=*/true);
          double est = EstimatedMatches(trial);
          if (best < 0 || est < best_est) {
            best_est = est;
            best = static_cast<int>(i);
          }
        }
      } else {
        int best_score = -1;
        for (size_t i = 0; i < rule_.body.size(); ++i) {
          if (used[i]) {
            continue;
          }
          const BodyTerm& t = rule_.body[i];
          if (t.kind != BodyTerm::Kind::kAtom || t.atom.negated) {
            continue;
          }
          int score = 0;
          for (const Expr& arg : t.atom.args) {
            if (arg.is_const() ||
                (arg.is_var() && bound.count(out.slot_of.at(arg.var)) > 0)) {
              ++score;
            }
          }
          if (score > best_score) {
            best_score = score;
            best = static_cast<int>(i);
          }
        }
      }
      if (best < 0) {
        return Err("cannot order rule body: unbound condition, assignment, or negation");
      }
      CompiledStep step;
      step.kind = BodyTerm::Kind::kAtom;
      step.atom = CompileAtom(rule_.body[static_cast<size_t>(best)].atom, out, &bound,
                              /*is_probe=*/true);
      if (options_.cost_based) {
        est_bindings *= EstimatedMatches(step.atom);
        cost += est_bindings;
        step.est_rows = est_bindings;
      }
      variant.steps.push_back(std::move(step));
      used[static_cast<size_t>(best)] = true;
      --remaining;
    }

    // Safety: all head variables (plain and aggregated) must be bound.
    for (const HeadArg& a : rule_.head.args) {
      if (!ExprVarsBound(a.expr, bound, out)) {
        return Err("unsafe head: variable in " + a.ToString() +
                   " is not bound by the body");
      }
    }
    variant.bound_slots.assign(bound.begin(), bound.end());
    if (options_.cost_based) {
      variant.est_cost = cost;
    }
    return variant;
  }

  const Rule& rule_;
  const std::string& program_;
  const Catalog& catalog_;
  const PlannerOptions& options_;
};

// Iterative Tarjan SCC over table dependency graph.
class SccFinder {
 public:
  explicit SccFinder(const std::map<std::string, std::set<std::string>>& adj) : adj_(adj) {}

  // Returns component id per node; ids are in reverse topological order of the condensation
  // (Tarjan property: a component is numbered after all components it can reach).
  std::map<std::string, int> Run() {
    for (const auto& [node, succs] : adj_) {
      if (index_.count(node) == 0) {
        Strongconnect(node);
      }
    }
    return component_;
  }

  int num_components() const { return next_component_; }

 private:
  void Strongconnect(const std::string& root) {
    struct Frame {
      std::string node;
      std::vector<std::string> succs;
      size_t next_succ = 0;
    };
    std::vector<Frame> stack;
    auto push_node = [this, &stack](const std::string& n) {
      index_[n] = lowlink_[n] = next_index_++;
      tarjan_stack_.push_back(n);
      on_stack_.insert(n);
      Frame f;
      f.node = n;
      auto it = adj_.find(n);
      if (it != adj_.end()) {
        f.succs.assign(it->second.begin(), it->second.end());
      }
      stack.push_back(std::move(f));
    };
    push_node(root);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_succ < frame.succs.size()) {
        const std::string& succ = frame.succs[frame.next_succ++];
        if (index_.count(succ) == 0) {
          push_node(succ);
        } else if (on_stack_.count(succ) > 0) {
          lowlink_[frame.node] = std::min(lowlink_[frame.node], index_[succ]);
        }
      } else {
        if (lowlink_[frame.node] == index_[frame.node]) {
          while (true) {
            std::string top = tarjan_stack_.back();
            tarjan_stack_.pop_back();
            on_stack_.erase(top);
            component_[top] = next_component_;
            if (top == frame.node) {
              break;
            }
          }
          ++next_component_;
        }
        std::string done = frame.node;
        stack.pop_back();
        if (!stack.empty()) {
          lowlink_[stack.back().node] =
              std::min(lowlink_[stack.back().node], lowlink_[done]);
        }
      }
    }
  }

  const std::map<std::string, std::set<std::string>>& adj_;
  std::map<std::string, int> index_;
  std::map<std::string, int> lowlink_;
  std::map<std::string, int> component_;
  std::vector<std::string> tarjan_stack_;
  std::set<std::string> on_stack_;
  int next_index_ = 0;
  int next_component_ = 0;
};

}  // namespace

Result<CompiledProgram> CompileRules(const std::vector<Rule>& rules,
                                     const std::vector<std::string>& programs,
                                     const Catalog& catalog,
                                     const PlannerOptions& options) {
  CompiledProgram out;
  out.cost_based = options.cost_based;
  for (size_t i = 0; i < rules.size(); ++i) {
    const std::string program = i < programs.size() ? programs[i] : "";
    Result<CompiledRule> compiled = RuleCompiler(rules[i], program, catalog, options).Run();
    if (!compiled.ok()) {
      return compiled.status();
    }
    out.rules.push_back(std::move(compiled).value());
  }

  // --- incremental-aggregate eligibility ---
  // A table is insert-only when no delete rule targets it and no aggregate rule derives it
  // (aggregate reconciliation can retract rows).
  {
    std::set<std::string> mutated;
    for (const CompiledRule& cr : out.rules) {
      if (cr.is_delete || cr.has_agg) {
        mutated.insert(cr.head_table);
      }
    }
    for (CompiledRule& cr : out.rules) {
      if (!cr.has_agg || !cr.single_positive_atom || cr.body_tables.size() != 1 ||
          cr.head_has_location) {
        continue;
      }
      const Table* driver = catalog.Find(cr.body_tables[0]);
      if (driver == nullptr || driver->def().kind != TableKind::kTable ||
          driver->def().ttl_ms > 0 ||  // soft-state rows expire: not insert-only
          driver->def().EffectiveKey().size() != driver->def().arity() ||
          mutated.count(cr.body_tables[0]) > 0) {
        continue;
      }
      bool kinds_ok = true;
      for (const CompiledHeadArg& arg : cr.head_args) {
        if (arg.agg == AggKind::kBottomK) {
          kinds_ok = false;
        }
      }
      cr.incremental_agg = kinds_ok;
    }
  }

  // --- stratification ---
  // Dependency edges body_table -> head_table; an edge is "negative" when the body atom is
  // negated or the rule aggregates. Delete rules impose no derivation edges (deletions apply
  // at tick boundaries).
  std::map<std::string, std::set<std::string>> adj;
  std::map<std::pair<std::string, std::string>, int> weight;  // max weight per edge
  auto touch = [&adj](const std::string& t) { adj[t]; };

  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& rule = rules[i];
    touch(rule.head.table);
    for (const BodyTerm& t : rule.body) {
      if (t.kind != BodyTerm::Kind::kAtom) {
        continue;
      }
      touch(t.atom.table);
      if (rule.is_delete || rule.is_next) {
        continue;  // deferred heads impose no same-timestep derivation edge
      }
      int w = (t.atom.negated || rule.head.HasAggregate()) ? 1 : 0;
      adj[t.atom.table].insert(rule.head.table);
      auto key = std::make_pair(t.atom.table, rule.head.table);
      auto it = weight.find(key);
      if (it == weight.end()) {
        weight[key] = w;
      } else {
        it->second = std::max(it->second, w);
      }
    }
  }

  SccFinder scc(adj);
  std::map<std::string, int> component = scc.Run();

  // Any negative edge inside one SCC makes the program unstratifiable.
  for (const auto& [edge, w] : weight) {
    if (w > 0 && component[edge.first] == component[edge.second]) {
      return InvalidArgument("unstratifiable program: negation/aggregation cycle through " +
                             edge.first + " and " + edge.second);
    }
  }

  // Longest-path strata over the condensation. Tarjan numbers components in reverse
  // topological order, so iterating components from high to low visits sources first.
  std::map<int, int> comp_stratum;
  for (const auto& [node, comp] : component) {
    comp_stratum[comp] = 0;
  }
  std::vector<std::pair<int, std::string>> order;  // (component, node) sorted desc
  order.reserve(component.size());
  for (const auto& [node, comp] : component) {
    order.emplace_back(comp, node);
  }
  std::sort(order.begin(), order.end(), std::greater<>());
  for (const auto& [comp, node] : order) {
    for (const std::string& succ : adj[node]) {
      int succ_comp = component[succ];
      if (succ_comp == comp) {
        continue;
      }
      int w = weight[{node, succ}];
      comp_stratum[succ_comp] =
          std::max(comp_stratum[succ_comp], comp_stratum[comp] + w);
    }
  }

  auto table_stratum = [&](const std::string& table) {
    auto it = component.find(table);
    return it == component.end() ? 0 : comp_stratum[it->second];
  };

  int max_stratum = 0;
  for (size_t i = 0; i < out.rules.size(); ++i) {
    CompiledRule& cr = out.rules[i];
    if (cr.is_delete || cr.is_next) {
      // Deferred heads run once their body tables are final.
      int s = 0;
      for (const BodyTerm& t : rules[i].body) {
        if (t.kind == BodyTerm::Kind::kAtom) {
          s = std::max(s, table_stratum(t.atom.table));
        }
      }
      cr.stratum = s;
    } else {
      cr.stratum = table_stratum(cr.head_table);
    }
    max_stratum = std::max(max_stratum, cr.stratum);
  }
  out.num_strata = max_stratum + 1;

  // Build the per-stratum schedule (see StratumSchedule): rules grouped by role, plus the
  // driver-table index that lets the engine's fixpoint visit only dirty rules per round.
  out.schedule.assign(static_cast<size_t>(out.num_strata), StratumSchedule{});
  for (size_t i = 0; i < out.rules.size(); ++i) {
    const CompiledRule& cr = out.rules[i];
    StratumSchedule& sched = out.schedule[static_cast<size_t>(cr.stratum)];
    if (cr.has_agg) {
      sched.agg_rules.push_back(i);
      continue;
    }
    if (cr.driverless) {
      sched.seed_rules.push_back(i);
      continue;
    }
    size_t pos = sched.delta_rules.size();
    sched.delta_rules.push_back(i);
    for (const CompiledVariant& v : cr.variants) {
      std::vector<size_t>& driven = sched.delta_rules_by_driver[v.driver_table];
      if (driven.empty() || driven.back() != pos) {  // variants may share a driver table
        driven.push_back(pos);
      }
    }
  }

  if (options.cost_based) {
    // Automatic index selection: every secondary index any chosen plan will probe, sorted
    // + deduped for the engine's post-recompile WarmIndex sweep.
    std::set<std::pair<std::string, std::vector<size_t>>> warm;
    auto collect = [&warm](const CompiledVariant& v) {
      for (const CompiledStep& step : v.steps) {
        if (step.kind == BodyTerm::Kind::kAtom && !step.atom.probe_cols.empty() &&
            !step.atom.key_lookup) {
          warm.emplace(step.atom.table, step.atom.probe_cols);
        }
      }
    };
    for (const CompiledRule& cr : out.rules) {
      collect(cr.full_variant);
      for (const CompiledVariant& v : cr.variants) {
        collect(v);
      }
    }
    out.warm_indexes.assign(warm.begin(), warm.end());
  }
  return out;
}

}  // namespace boom
