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
  RuleCompiler(const Rule& rule, const std::string& program, const Catalog& catalog)
      : rule_(rule), program_(program), catalog_(catalog) {}

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
    out.head_table_id = head_table->id();
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
      if (t.kind == BodyTerm::Kind::kAtom && !t.atom.negated) {
        positive_atoms.push_back(i);
      }
    }
    out.driverless = positive_atoms.empty();

    if (out.has_agg) {
      BOOM_RETURN_IF_ERROR(PlanAggregate(positive_atoms, &out));
    } else {
      // Full ordering (seed evaluation): drive from the first positive atom's full table
      // contents, or no driver at all when the body has none.
      BOOM_ASSIGN_OR_RETURN(
          out.full_variant,
          OrderBody(out, positive_atoms.empty() ? -1 : static_cast<int>(positive_atoms[0])));
      for (size_t atom_idx : positive_atoms) {
        BOOM_ASSIGN_OR_RETURN(CompiledVariant variant,
                              OrderBody(out, static_cast<int>(atom_idx)));
        out.variants.push_back(std::move(variant));
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

  // Builtins whose result changes from call to call. A ± aggregate re-evaluates a leaving
  // row's binding, which must give what it gave when the row entered.
  static bool CallsVaryingBuiltin(const Expr& e) {
    if (e.kind == ExprKind::kCall &&
        (e.fn == "f_now" || e.fn == "f_rand" || e.fn == "f_randint" || e.fn == "f_unique_id")) {
      return true;
    }
    return std::any_of(e.args.begin(), e.args.end(), CallsVaryingBuiltin);
  }

  // True when every group-key variable is an argument of body atom `idx`.
  bool AtomBindsGroupKey(size_t idx, const std::set<std::string>& group_vars) const {
    std::set<std::string> atom_vars;
    for (const Expr& arg : rule_.body[idx].atom.args) {
      arg.CollectVars(&atom_vars);
    }
    return std::includes(atom_vars.begin(), atom_vars.end(), group_vars.begin(),
                         group_vars.end());
  }

  // The mark variant driven by body atom `idx` (a negated atom drives it like a positive
  // one): the bare atom when it binds the whole group key, else a join ordering from it.
  Result<CompiledVariant> MarkVariant(const CompiledRule& out, size_t idx,
                                      const std::set<std::string>& group_vars) const {
    if (!AtomBindsGroupKey(idx, group_vars)) {
      return OrderBody(out, static_cast<int>(idx));
    }
    Atom atom = rule_.body[idx].atom;
    atom.negated = false;
    CompiledVariant variant;
    std::set<int> bound;
    variant.driver_table = atom.table;
    variant.driver = CompileAtom(atom, out, &bound, /*is_probe=*/false);
    variant.driver.negated = rule_.body[idx].atom.negated;
    return variant;
  }

  // Fills out->full_variant, out->variants (mark variants) and out->agg; see AggregatePlan.
  Status PlanAggregate(const std::vector<size_t>& positive_atoms, CompiledRule* out) const {
    std::set<std::string> group_vars;
    for (const HeadArg& a : rule_.head.args) {
      if (a.agg == AggKind::kNone) {
        a.expr.CollectVars(&group_vars);
      }
    }
    int driver = positive_atoms.empty() ? -1 : static_cast<int>(positive_atoms[0]);
    for (size_t idx : positive_atoms) {
      if (AtomBindsGroupKey(idx, group_vars)) {
        driver = static_cast<int>(idx);
        break;
      }
    }
    int event_atom = -1;  // the first positive event atom
    for (size_t idx : positive_atoms) {
      if (event_atom < 0 &&
          catalog_.Find(rule_.body[idx].atom.table)->def().kind == TableKind::kEvent) {
        event_atom = static_cast<int>(idx);
      }
    }
    BOOM_ASSIGN_OR_RETURN(out->full_variant, OrderBody(*out, driver));

    AggregatePlan& plan = out->agg;
    plan.event_driven = event_atom >= 0;
    size_t atoms = 0;
    bool varying = false;
    for (const BodyTerm& t : rule_.body) {
      atoms += t.kind == BodyTerm::Kind::kAtom ? 1 : 0;
      varying = varying || CallsVaryingBuiltin(t.condition) || CallsVaryingBuiltin(t.assign.expr);
    }
    bool additive = true;
    for (const HeadArg& a : rule_.head.args) {
      varying = varying || CallsVaryingBuiltin(a.expr);
      additive = additive && (a.agg == AggKind::kNone || a.agg == AggKind::kCount ||
                              a.agg == AggKind::kSum || a.agg == AggKind::kAvg);
    }
    plan.plus_minus = !plan.event_driven && atoms == 1 && positive_atoms.size() == 1 &&
                      additive && !varying;

    // Group recompute: map the group key onto the driver's columns.
    if (driver >= 0 && AtomBindsGroupKey(static_cast<size_t>(driver), group_vars)) {
      std::map<std::string, int> key_pos;  // group variable -> its first group-key position
      int pos = 0;
      plan.group_probe = true;
      for (const HeadArg& a : rule_.head.args) {
        if (a.agg != AggKind::kNone) {
          continue;
        }
        if (a.expr.is_var()) {
          key_pos.emplace(a.expr.var, pos);
        } else if (!a.expr.is_const()) {
          plan.group_probe = false;
        }
        ++pos;
      }
      const Atom& atom = rule_.body[static_cast<size_t>(driver)].atom;
      for (size_t col = 0; col < atom.args.size() && plan.group_probe; ++col) {
        if (atom.args[col].is_const()) {
          plan.group_cols.push_back(col);
          plan.group_key_pos.push_back(-1);
        } else if (auto it = key_pos.find(atom.args[col].var); it != key_pos.end()) {
          plan.group_cols.push_back(col);
          plan.group_key_pos.push_back(it->second);
          key_pos.erase(it);  // a repeated variable is checked when the row binds
        }
      }
      plan.group_key_lookup = !plan.group_cols.empty() &&
                              catalog_.Find(atom.table)->def().KeyCoveredBy(plan.group_cols);
    }

    if (plan.plus_minus) {
      return Status::Ok();  // the full variant's bindings of each changed row do the marking
    }
    for (size_t i = 0; i < rule_.body.size(); ++i) {
      const bool marks = plan.event_driven ? static_cast<int>(i) == event_atom
                                           : rule_.body[i].kind == BodyTerm::Kind::kAtom;
      if (marks) {
        BOOM_ASSIGN_OR_RETURN(CompiledVariant variant, MarkVariant(*out, i, group_vars));
        out->variants.push_back(std::move(variant));
      }
    }
    return Status::Ok();
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
    const Table* table = catalog_.Find(atom.table);
    CompiledAtom ca;
    ca.table = atom.table;
    ca.table_id = table->id();
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
    ca.key_lookup = is_probe && table->def().KeyCoveredBy(ca.probe_cols);
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

  // Orders one rule body greedily: after the driver atom, repeatedly emit every ready
  // filter (condition, assignment, negated atom), then the positive atom with the most bound
  // or constant arguments, the earliest in body order on a tie.
  Result<CompiledVariant> OrderBody(const CompiledRule& out, int driver_idx) const {
    CompiledVariant variant;
    std::set<int> bound;
    std::vector<bool> used(rule_.body.size(), false);

    if (driver_idx >= 0) {
      const Atom& driver_atom = rule_.body[static_cast<size_t>(driver_idx)].atom;
      variant.driver_table = driver_atom.table;
      if (driver_atom.negated) {
        // An aggregate's mark variant driven by a negated atom binds its rows like a
        // positive atom's.
        Atom positive = driver_atom;
        positive.negated = false;
        variant.driver = CompileAtom(positive, out, &bound, /*is_probe=*/false);
        variant.driver.negated = true;
      } else {
        variant.driver = CompileAtom(driver_atom, out, &bound, /*is_probe=*/false);
      }
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

      // 2. Pick the next positive atom: most bound/constant arguments first.
      int best = -1;
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
      if (best < 0) {
        return Err("cannot order rule body: unbound condition, assignment, or negation");
      }
      CompiledStep step;
      step.kind = BodyTerm::Kind::kAtom;
      step.atom = CompileAtom(rule_.body[static_cast<size_t>(best)].atom, out, &bound,
                              /*is_probe=*/true);
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
    return variant;
  }

  const Rule& rule_;
  const std::string& program_;
  const Catalog& catalog_;
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
                                     const Catalog& catalog) {
  CompiledProgram out;
  for (size_t i = 0; i < rules.size(); ++i) {
    const std::string program = i < programs.size() ? programs[i] : "";
    Result<CompiledRule> compiled = RuleCompiler(rules[i], program, catalog).Run();
    if (!compiled.ok()) {
      return compiled.status();
    }
    out.rules.push_back(std::move(compiled).value());
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
      // Deferred heads run once their body tables are final: in the stratum of the highest
      // positive one, and above every negated one (whose stratum may still be deriving it).
      int s = 0;
      for (const BodyTerm& t : rules[i].body) {
        if (t.kind == BodyTerm::Kind::kAtom) {
          s = std::max(s, table_stratum(t.atom.table) + (t.atom.negated ? 1 : 0));
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
  // driver-table indexes that let the engine visit only dirty rules, and the tables whose
  // removals aggregate rules must see.
  out.schedule.assign(static_cast<size_t>(out.num_strata), StratumSchedule{});
  for (size_t i = 0; i < out.rules.size(); ++i) {
    const CompiledRule& cr = out.rules[i];
    StratumSchedule& sched = out.schedule[static_cast<size_t>(cr.stratum)];
    if (cr.has_agg) {
      sched.agg_rules.push_back(i);
      auto reads = [&](uint32_t table_id, int variant) {
        if (variant >= 0 && cr.variants[static_cast<size_t>(variant)].driver.negated) {
          // A row entering a negated table can end bindings whose other rows a later change
          // (in a lower stratum, say) removes: its groups are marked as it enters.
          if (out.agg_negated_readers.size() <= table_id) {
            out.agg_negated_readers.resize(table_id + 1);
          }
          out.agg_negated_readers[table_id].push_back(AggReader{i, variant});
        } else {
          std::vector<size_t>& driven = sched.agg_rules_by_driver[table_id];
          if (driven.empty() || driven.back() != i) {
            driven.push_back(i);
          }
        }
        // The event clear only removes bindings of an event-driven rule, and when its head is
        // an event too, the rows those bindings derived are gone by then.
        if (!(cr.agg.event_driven && cr.head_is_event)) {
          out.agg_readers[table_id].push_back(AggReader{i, variant});
        }
      };
      if (cr.agg.plus_minus) {
        reads(cr.full_variant.driver.table_id, -1);
      }
      for (size_t v = 0; v < cr.variants.size(); ++v) {
        reads(cr.variants[v].driver.table_id, static_cast<int>(v));
      }
      continue;
    }
    if (cr.driverless) {
      sched.seed_rules.push_back(i);
      continue;
    }
    size_t pos = sched.delta_rules.size();
    sched.delta_rules.push_back(i);
    for (const CompiledVariant& v : cr.variants) {
      std::vector<size_t>& driven = sched.delta_rules_by_driver[v.driver.table_id];
      if (driven.empty() || driven.back() != pos) {  // variants may share a driver table
        driven.push_back(pos);
      }
    }
  }

  return out;
}

}  // namespace boom
