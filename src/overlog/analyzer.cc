#include "src/overlog/analyzer.h"

#include <algorithm>
#include <map>

#include "src/base/strings.h"

namespace boom {

namespace {

bool IsAnonVar(const std::string& name) { return name.rfind("_Anon", 0) == 0; }

bool SameSchema(const TableDef& a, const TableDef& b) {
  return a.kind == b.kind && a.columns == b.columns && a.key_columns == b.key_columns &&
         a.ttl_ms == b.ttl_ms;
}

std::string SchemaString(const TableDef& def) {
  std::string out = (def.kind == TableKind::kEvent ? "event " : "table ") + def.name + "(" +
                    StrJoin(def.columns, ", ") + ")";
  if (!def.key_columns.empty()) {
    std::vector<std::string> keys;
    for (size_t k : def.key_columns) {
      keys.push_back(std::to_string(k));
    }
    out += " keys(" + StrJoin(keys, ", ") + ")";
  }
  return out;
}

// Iterative Tarjan SCC over the table dependency graph (same shape as the planner's
// stratification pass, kept separate so the analyzer has no dependency on a catalog).
class SccFinder {
 public:
  explicit SccFinder(const std::map<std::string, std::set<std::string>>& adj) : adj_(adj) {}

  std::map<std::string, int> Run() {
    for (const auto& [node, succs] : adj_) {
      if (index_.count(node) == 0) {
        Strongconnect(node);
      }
    }
    return component_;
  }

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

class Analyzer {
 public:
  Analyzer(const Program& program, const AnalyzerOptions& options)
      : program_(program), options_(options) {}

  AnalyzerReport Run() {
    CollectDeclarations();
    CheckDuplicateRules();
    CheckDuplicateTimers();
    CheckTimerPeriods();
    CheckReferences();
    CheckBindings();
    CheckStratification();
    CheckProducers();
    CheckReaders();
    if (options_.advisories) {
      AdviseIndexes();
    }
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.severity < b.severity;
                     });
    return std::move(report_);
  }

 private:
  void Add(DiagnosticSeverity severity, std::string code, std::string message,
           std::string rule = "", int line = 0) {
    Diagnostic d;
    d.severity = severity;
    d.code = std::move(code);
    d.message = std::move(message);
    d.program = program_.name;
    d.rule = std::move(rule);
    d.line = line;
    report_.diagnostics.push_back(std::move(d));
  }
  void AddError(std::string code, std::string message, std::string rule = "",
                int line = 0) {
    Add(DiagnosticSeverity::kError, std::move(code), std::move(message), std::move(rule),
        line);
  }
  void AddWarning(std::string code, std::string message, std::string rule = "",
                  int line = 0) {
    Add(DiagnosticSeverity::kWarning, std::move(code), std::move(message), std::move(rule),
        line);
  }
  void AddAdvisory(std::string code, std::string message, std::string rule = "",
                   int line = 0) {
    Add(DiagnosticSeverity::kAdvisory, std::move(code), std::move(message),
        std::move(rule), line);
  }

  // Merges regular and extern declarations; flags conflicting redeclarations. Identical
  // redeclarations are legal (modules may both declare a shared relation).
  void CollectDeclarations() {
    auto take = [this](const TableDef& def, bool is_extern) {
      auto it = decls_.find(def.name);
      if (it == decls_.end()) {
        decls_.emplace(def.name, def);
      } else if (!SameSchema(it->second, def)) {
        AddError("redeclaration-conflict",
                 "'" + def.name + "' declared twice with different schemas: " +
                     SchemaString(it->second) + " vs " + SchemaString(def));
      }
      if (is_extern) {
        extern_names_.insert(def.name);
      }
    };
    for (const TableDef& def : program_.tables) {
      take(def, /*is_extern=*/false);
    }
    for (const TableDef& def : program_.externs) {
      take(def, /*is_extern=*/true);
    }
    // Timers implicitly declare (and produce) their event; the parser materializes the
    // declaration, but AST-built programs may carry only the TimerDecl.
    for (const TimerDecl& timer : program_.timers) {
      if (decls_.count(timer.name) == 0) {
        TableDef def;
        def.name = timer.name;
        def.columns = {"Node"};
        def.kind = TableKind::kEvent;
        decls_.emplace(def.name, std::move(def));
      }
    }
  }

  void CheckDuplicateRules() {
    std::map<std::string, const Rule*> seen;
    for (const Rule& rule : program_.rules) {
      auto [it, added] = seen.emplace(rule.name, &rule);
      if (!added) {
        AddError("duplicate-rule",
                 "rule name defined twice (first at line " +
                     std::to_string(it->second->line) +
                     "); profiling and scheduling key rules by name",
                 rule.name, rule.line);
      }
    }
  }

  void CheckDuplicateTimers() {
    std::map<std::string, const TimerDecl*> seen;
    for (const TimerDecl& timer : program_.timers) {
      auto [it, added] = seen.emplace(timer.name, &timer);
      if (!added) {
        AddError("duplicate-timer",
                 "timer '" + timer.name + "' declared twice (the event would fire " +
                     "once per declaration)");
      }
    }
  }

  void CheckTimerPeriods() {
    for (const TimerDecl& timer : program_.timers) {
      if (!timer.valid_period()) {
        AddError("bad-timer-period", BadTimerPeriodMessage(timer));
      }
    }
  }

  bool Known(const std::string& table) const {
    return decls_.count(table) > 0 || options_.external_tables.count(table) > 0;
  }
  // -1 when the schema is unknown (external table).
  int ArityOf(const std::string& table) const {
    auto it = decls_.find(table);
    return it == decls_.end() ? -1 : static_cast<int>(it->second.arity());
  }

  void CheckAtomRef(const std::string& table, size_t arity, const Rule& rule) {
    if (!Known(table)) {
      AddError("undeclared-table", "references undeclared relation '" + table + "'",
               rule.name, rule.line);
      return;
    }
    int want = ArityOf(table);
    if (want >= 0 && static_cast<size_t>(want) != arity) {
      AddError("arity-mismatch",
               "'" + table + "' used with " + std::to_string(arity) + " args, declared with " +
                   std::to_string(want),
               rule.name, rule.line);
    }
  }

  void CheckReferences() {
    for (const Rule& rule : program_.rules) {
      CheckAtomRef(rule.head.table, rule.head.args.size(), rule);
      for (const BodyTerm& term : rule.body) {
        if (term.kind == BodyTerm::Kind::kAtom) {
          CheckAtomRef(term.atom.table, term.atom.args.size(), rule);
        }
      }
    }
    for (const Fact& fact : program_.facts) {
      if (!Known(fact.table)) {
        AddError("undeclared-table",
                 "fact references undeclared relation '" + fact.table + "'");
        continue;
      }
      int want = ArityOf(fact.table);
      if (want >= 0 && static_cast<size_t>(want) != fact.tuple.size()) {
        AddError("arity-mismatch", "fact for '" + fact.table + "' has " +
                                       std::to_string(fact.tuple.size()) +
                                       " values, declared with " + std::to_string(want));
      }
    }
  }

  // Saturation over body terms, mirroring the planner's ordering pass: positive atoms bind
  // their variables; assignments bind their target once the right side is bound; conditions
  // and negated atoms need every (named) variable bound. Whatever cannot be scheduled is an
  // unbound term; head variables must end up in the bound set.
  void CheckBindings() {
    for (const Rule& rule : program_.rules) {
      std::set<std::string> bound;
      std::vector<bool> used(rule.body.size(), false);
      bool progressed = true;
      auto expr_bound = [&bound](const Expr& e) {
        std::set<std::string> vars;
        e.CollectVars(&vars);
        for (const std::string& v : vars) {
          if (bound.count(v) == 0) {
            return false;
          }
        }
        return true;
      };
      while (progressed) {
        progressed = false;
        for (size_t i = 0; i < rule.body.size(); ++i) {
          if (used[i]) {
            continue;
          }
          const BodyTerm& term = rule.body[i];
          bool ready = false;
          switch (term.kind) {
            case BodyTerm::Kind::kAtom:
              if (!term.atom.negated) {
                ready = true;
                for (const Expr& arg : term.atom.args) {
                  arg.CollectVars(&bound);
                }
              } else {
                ready = true;
                for (const Expr& arg : term.atom.args) {
                  if (arg.is_var() && !IsAnonVar(arg.var) && bound.count(arg.var) == 0) {
                    ready = false;
                  }
                }
              }
              break;
            case BodyTerm::Kind::kAssign:
              if (expr_bound(term.assign.expr)) {
                ready = true;
                bound.insert(term.assign.var);
              }
              break;
            case BodyTerm::Kind::kCondition:
              ready = expr_bound(term.condition);
              break;
          }
          if (ready) {
            used[i] = true;
            progressed = true;
          }
        }
      }
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (used[i]) {
          continue;
        }
        const BodyTerm& term = rule.body[i];
        if (term.kind == BodyTerm::Kind::kAtom) {
          AddError("unsafe-negation",
                   "negated atom '" + term.atom.ToString() +
                       "' has variables no positive term binds",
                   rule.name, rule.line);
        } else {
          AddError("unbound-condition",
                   "body term '" + term.ToString() + "' uses variables nothing binds",
                   rule.name, rule.line);
        }
      }
      for (const HeadArg& arg : rule.head.args) {
        std::set<std::string> vars;
        arg.expr.CollectVars(&vars);
        for (const std::string& v : vars) {
          if (bound.count(v) == 0) {
            AddError("unbound-head-var",
                     "head variable '" + v + "' is not bound by the body", rule.name,
                     rule.line);
          }
        }
      }
    }
  }

  // Same dependency graph as the planner: body table -> head table, weight 1 when the body
  // atom is negated or the head aggregates; @next and delete heads defer to the tick
  // boundary and impose no same-timestep edge. A weight-1 edge inside one SCC is a cycle no
  // stratum assignment can break.
  void CheckStratification() {
    std::map<std::string, std::set<std::string>> adj;
    std::map<std::pair<std::string, std::string>, int> weight;
    for (const Rule& rule : program_.rules) {
      adj[rule.head.table];
      for (const BodyTerm& term : rule.body) {
        if (term.kind != BodyTerm::Kind::kAtom) {
          continue;
        }
        adj[term.atom.table];
        if (rule.is_delete || rule.is_next) {
          continue;
        }
        int w = (term.atom.negated || rule.head.HasAggregate()) ? 1 : 0;
        adj[term.atom.table].insert(rule.head.table);
        auto key = std::make_pair(term.atom.table, rule.head.table);
        auto it = weight.find(key);
        if (it == weight.end()) {
          weight[key] = w;
        } else {
          it->second = std::max(it->second, w);
        }
      }
    }
    std::map<std::string, int> component = SccFinder(adj).Run();
    std::set<std::pair<std::string, std::string>> reported;
    for (const auto& [edge, w] : weight) {
      if (w > 0 && component[edge.first] == component[edge.second] &&
          reported.insert(edge).second) {
        AddError("unstratifiable",
                 "negation/aggregation cycle through '" + edge.first + "' and '" +
                     edge.second + "' (no @next deferral breaks it)");
      }
    }
  }

  // Every event needs a source: a rule head (local or @location), a timer, a fact, an
  // extern marking (arrives from the network / another program), or a declared external
  // input (host C++ enqueues it).
  void CheckProducers() {
    std::set<std::string> produced;
    for (const Rule& rule : program_.rules) {
      produced.insert(rule.head.table);
    }
    for (const TimerDecl& timer : program_.timers) {
      produced.insert(timer.name);
    }
    for (const Fact& fact : program_.facts) {
      produced.insert(fact.table);
    }
    for (const TableDef& def : program_.tables) {
      if (def.kind != TableKind::kEvent || produced.count(def.name) > 0 ||
          extern_names_.count(def.name) > 0 ||
          options_.external_inputs.count(def.name) > 0) {
        continue;
      }
      std::string msg = "event '" + def.name +
                        "' has no producing rule, timer, or external source (declare it "
                        "'extern event' if it arrives from outside this program)";
      if (options_.strict_events) {
        AddError("no-producer", std::move(msg));
      } else {
        AddWarning("no-producer", std::move(msg));
      }
    }
  }

  // Warning tier: a relation that rules or facts write but nothing reads. Heads sent with
  // an @location are protocol outputs (the reader is another node), watches and declared
  // external outputs are host-side readers.
  void CheckReaders() {
    if (!options_.warn_unread) {
      return;
    }
    std::set<std::string> written;
    std::set<std::string> consumed;
    for (const Rule& rule : program_.rules) {
      written.insert(rule.head.table);
      if (rule.head.has_location) {
        consumed.insert(rule.head.table);
      }
      for (const BodyTerm& term : rule.body) {
        if (term.kind == BodyTerm::Kind::kAtom) {
          consumed.insert(term.atom.table);
        }
      }
    }
    for (const Fact& fact : program_.facts) {
      written.insert(fact.table);
    }
    for (const std::string& watch : program_.watches) {
      consumed.insert(watch);
    }
    for (const TableDef& def : program_.tables) {
      if (written.count(def.name) == 0 || consumed.count(def.name) > 0 ||
          extern_names_.count(def.name) > 0 ||
          options_.external_outputs.count(def.name) > 0) {
        continue;
      }
      AddWarning("unread-table",
                 "'" + def.name + "' is written but never read, watched, or sent");
    }
  }

  // Advisory tier: mirrors the planner's greedy join ordering (driver = first positive
  // atom, then most-bound-first) and flags every probe whose columns do not cover the
  // probed table's effective key. The engine answers those probes from a secondary index
  // built on first probe and then updated in place, which costs memory and a bucket update
  // per mutation; a key lookup costs neither. One advisory per (table, column set),
  // attributed to the first rule that wants it.
  void AdviseIndexes() {
    std::set<std::pair<std::string, std::vector<size_t>>> seen;
    for (const Rule& rule : program_.rules) {
      std::vector<const Atom*> positives;
      for (const BodyTerm& term : rule.body) {
        if (term.kind == BodyTerm::Kind::kAtom && !term.atom.negated) {
          positives.push_back(&term.atom);
        }
      }
      if (positives.size() < 2) {
        continue;
      }
      std::set<std::string> bound;
      auto bind_atom = [&bound](const Atom& atom) {
        for (const Expr& arg : atom.args) {
          arg.CollectVars(&bound);
        }
      };
      auto probe_cols_of = [&bound](const Atom& atom) {
        std::vector<size_t> cols;
        for (size_t i = 0; i < atom.args.size(); ++i) {
          const Expr& arg = atom.args[i];
          if (arg.is_const() ||
              (arg.is_var() && !IsAnonVar(arg.var) && bound.count(arg.var) > 0)) {
            cols.push_back(i);
          }
        }
        return cols;
      };
      bind_atom(*positives[0]);
      std::vector<bool> taken(positives.size(), false);
      taken[0] = true;
      for (size_t picks = 1; picks < positives.size(); ++picks) {
        size_t best = 0;
        size_t best_bound = 0;
        bool have = false;
        for (size_t i = 1; i < positives.size(); ++i) {
          if (taken[i]) {
            continue;
          }
          size_t n = probe_cols_of(*positives[i]).size();
          if (!have || n > best_bound) {
            have = true;
            best = i;
            best_bound = n;
          }
        }
        taken[best] = true;
        const Atom& atom = *positives[best];
        std::vector<size_t> cols = probe_cols_of(atom);
        bind_atom(atom);
        auto decl = decls_.find(atom.table);
        if (cols.empty() || decl == decls_.end()) {
          continue;  // unconstrained scan, or external table with unknown key
        }
        if (decl->second.KeyCoveredBy(cols)) {
          continue;  // key-covered probe: the engine answers it from the row map
        }
        if (!seen.insert({atom.table, cols}).second) {
          continue;
        }
        std::vector<std::string> pattern;
        std::set<size_t> colset(cols.begin(), cols.end());
        for (size_t i = 0; i < atom.args.size(); ++i) {
          pattern.push_back(colset.count(i) > 0 ? atom.args[i].ToString() : "_");
        }
        AddAdvisory("wants-index",
                    "rule " + rule.name + " wants an index on " + atom.table + "(" +
                        StrJoin(pattern, ",") + "); declare keys(" +
                        StrJoin([&cols] {
                          std::vector<std::string> ks;
                          for (size_t c : cols) {
                            ks.push_back(std::to_string(c));
                          }
                          return ks;
                        }(), ", ") +
                        ") to make it a key lookup; otherwise the engine keeps an "
                        "in-place secondary index",
                    rule.name, rule.line);
      }
    }
  }

  const Program& program_;
  const AnalyzerOptions& options_;
  AnalyzerReport report_;
  std::map<std::string, TableDef> decls_;
  std::set<std::string> extern_names_;
};

}  // namespace

std::string BadTimerPeriodMessage(const TimerDecl& timer) {
  return "timer '" + timer.name + "' has period " + Value(timer.period_ms).ToString() +
         " ms; the period must be finite and > 0";
}

std::string Diagnostic::ToString() const {
  std::string out = severity == DiagnosticSeverity::kError     ? "error["
                    : severity == DiagnosticSeverity::kWarning ? "warning["
                                                               : "advisory[";
  out += code + "] " + program;
  if (!rule.empty()) {
    out += ":" + rule;
  }
  if (line > 0) {
    out += " (line " + std::to_string(line) + ")";
  }
  out += ": " + message;
  return out;
}

bool AnalyzerReport::ok() const { return num_errors() == 0; }

size_t AnalyzerReport::num_errors() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    n += d.severity == DiagnosticSeverity::kError ? 1 : 0;
  }
  return n;
}

size_t AnalyzerReport::num_warnings() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    n += d.severity == DiagnosticSeverity::kWarning ? 1 : 0;
  }
  return n;
}

size_t AnalyzerReport::num_advisories() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    n += d.severity == DiagnosticSeverity::kAdvisory ? 1 : 0;
  }
  return n;
}

std::string AnalyzerReport::ToString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.ToString() + "\n";
  }
  return out;
}

AnalyzerReport AnalyzeProgram(const Program& program, const AnalyzerOptions& options) {
  return Analyzer(program, options).Run();
}

}  // namespace boom
