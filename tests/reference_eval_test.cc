// Differential check of the engine against ReferenceEvaluator (tests/reference_eval.h) on
// seeded random Overlog programs, plus the generator's malformed and unstratifiable
// variants.
//
// The generator writes stratifiable programs with recursion, `notin`, aggregates
// (count/sum/min/max/avg/bottomk over single atoms and joins, with wildcards and repeated
// variables), `delete` rules, `@next`, event tables and a keyed input table, and a host
// input stream of at most one row per key per tick. After every tick every table of the
// engine must equal the reference's, and every event table must have held the same rows.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/overlog/engine.h"
#include "src/overlog/parser.h"
#include "tests/reference_eval.h"

namespace boom {
namespace {

constexpr int kDomain = 3;  // every generated value is an integer in [0, kDomain)
constexpr int kPrograms = 200;
constexpr int kTicks = 8;

enum class Role { kInput, kDerived, kAggregate };

struct GenTable {
  std::string name;
  int arity = 1;
  bool event = false;
  // An input keyed on column 0, or an aggregate head keyed on its group columns.
  bool keyed = false;
  Role role = Role::kInput;
  int level = 0;  // inputs 0; negation and aggregation read only lower levels
  // Every column holds integers (no avg<>/bottomk<> output), so other rules may read it.
  bool readable = true;
  std::vector<std::string> aggs;  // an aggregate head's functions, after its group columns
};

struct GeneratedProgram {
  std::vector<GenTable> tables;
  std::vector<std::string> tokens;

  std::string Source() const {
    std::string s;
    for (const std::string& t : tokens) {
      s += t;
      s += t == ";" ? "\n" : " ";
    }
    return s;
  }
};

// Writes seeded stratifiable programs: negation and aggregation read only lower levels, and
// every value is a small integer, so recursion (with assignments taken mod kDomain) ends.
// Kept out, because their results depend on evaluation order or on time, which the reference
// leaves unspecified:
//   - keyed heads with more than one writer, since which row a key keeps depends on the order
//     of the writes: derived tables are sets, an aggregate head has one rule, and only the
//     host writes the keyed input, at most one row per key per tick;
//   - f_now, f_rand, f_randint and f_unique_id, whose results depend on time or call order;
//   - TTL, timers and remote @addr heads, which bring in time and other nodes.
class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

  GeneratedProgram Generate() {
    GeneratedProgram p;
    DeclareTables(&p);
    tables_ = &p.tables;
    tokens_ = &p.tokens;
    Emit("program gen ;");
    for (const GenTable& t : p.tables) {
      Emit(t.event ? "event" : "table");
      Emit(t.name + " (");
      for (int c = 0; c < t.arity; ++c) {
        Emit((c > 0 ? ", C" : "C") + std::to_string(c));
      }
      Emit(")");
      if (t.keyed) {
        Emit("keys (");
        const int key_cols = t.role == Role::kInput ? 1 : t.arity - static_cast<int>(t.aggs.size());
        for (int c = 0; c < key_cols; ++c) {
          Emit((c > 0 ? ", " : "") + std::to_string(c));
        }
        Emit(")");
      }
      Emit(";");
    }
    // Facts: distinct keys for the keyed input.
    for (int f = Uniform(0, 2), key = 0; f > 0; --f, ++key) {
      const GenTable& t = p.tables[static_cast<size_t>(Uniform(0, 1))];
      Emit(t.name + " ( " + std::to_string(t.keyed ? key : Uniform(0, kDomain - 1)) + " , " +
           std::to_string(Uniform(0, kDomain - 1)) + " ) ;");
    }
    for (const GenTable& t : p.tables) {
      if (t.role == Role::kAggregate) {
        AggregateRule(t);
      } else if (t.role == Role::kDerived) {
        for (int r = Uniform(1, 2); r > 0; --r) {
          DerivedRule(t, /*recursive=*/Chance(0.3));
        }
        if (Chance(0.08)) {
          DriverlessRule(t);
        }
      }
    }
    for (int r = Uniform(0, 2); r > 0; --r) {
      DeleteRule();
    }
    for (int r = Uniform(0, 2); r > 0; --r) {
      NextRule();
    }
    return p;
  }

  // A variant that no negation or aggregation cycle may pass: one rule closes a cycle
  // through `notin` or an aggregate over a derived table of `p`. With `deferred` that rule
  // is an @next rule instead, which no stratum has to order, so the program installs.
  GeneratedProgram Unstratifiable(GeneratedProgram p, bool deferred) {
    tables_ = &p.tables;
    tokens_ = &p.tokens;
    std::vector<const GenTable*> derived;
    for (const GenTable& t : p.tables) {
      if (t.role == Role::kDerived && !t.event) {
        derived.push_back(&t);
      }
    }
    if (derived.empty()) {
      GenTable dx = MakeTable("dx", 2, false, false);
      dx.role = Role::kDerived;
      dx.level = 1;
      tables_->push_back(dx);
      Emit("table dx ( C0 , C1 ) ;");
      derived.push_back(&tables_->back());
    }
    const GenTable t = *derived[static_cast<size_t>(Uniform(0, derived.size() - 1))];
    std::vector<std::string> vars;
    for (int c = 0; c < t.arity; ++c) {
      vars.push_back(std::string(1, static_cast<char>('A' + c)));
    }
    const std::string next = deferred ? " @ next" : "";
    if (t.arity >= 2 && Chance(0.5)) {
      // Aggregation through recursion: t reads its own count.
      std::string head = t.name + " (";
      for (int c = 0; c + 1 < t.arity; ++c) {
        head += " " + vars[static_cast<size_t>(c)] + " ,";
      }
      // An aggregate cannot be deferred; the deferred twin drops the aggregate.
      head += deferred ? " " + vars.back() + " )" : " count < " + vars.back() + " > )";
      Emit("cyc " + head + next + " :- " + Atom(t.name, vars) + " ;");
    } else {
      // Negation through recursion: t negates itself, with its columns reversed.
      std::vector<std::string> reversed(vars.rbegin(), vars.rend());
      Emit("cyc " + Atom(t.name, vars) + next + " :- " + Atom(t.name, vars) + " , notin " +
           Atom(t.name, reversed) + " ;");
    }
    return p;
  }

  // One token dropped, duplicated or replaced by a random one.
  GeneratedProgram Malformed(GeneratedProgram p) {
    static const char* const kNoise[] = {"(", ")", ",", ";", ":-", ":=", "notin", "delete",
                                         "@", "next", "count", "<", ">", "table", "event",
                                         "keys", "A", "_", "7", "i0", "\"s\"", "+", "%"};
    const size_t at = static_cast<size_t>(Uniform(3, p.tokens.size() - 1));
    switch (Uniform(0, 2)) {
      case 0:
        p.tokens.erase(p.tokens.begin() + static_cast<long>(at));
        break;
      case 1:
        p.tokens.insert(p.tokens.begin() + static_cast<long>(at), p.tokens[at]);
        break;
      default:
        p.tokens[at] = kNoise[Uniform(0, std::size(kNoise) - 1)];
        break;
    }
    return p;
  }

 private:
  // A rule body under construction: its text terms and the variables bound so far.
  struct Body {
    std::vector<std::string> terms;
    std::vector<std::string> vars;
    int next_var = 0;
  };

  int Uniform(int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng_); }
  int Uniform(int lo, size_t hi) { return Uniform(lo, static_cast<int>(hi)); }
  bool Chance(double p) { return std::bernoulli_distribution(p)(rng_); }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[static_cast<size_t>(Uniform(0, v.size() - 1))];
  }

  void Emit(const std::string& text) {
    std::istringstream in(text);
    for (std::string tok; in >> tok;) {
      tokens_->push_back(tok);
    }
  }

  static std::string Atom(const std::string& table, const std::vector<std::string>& args) {
    std::string s = table + " (";
    for (size_t i = 0; i < args.size(); ++i) {
      s += (i > 0 ? " , " : " ") + args[i];
    }
    return s + " )";
  }

  static GenTable MakeTable(std::string name, int arity, bool event, bool keyed) {
    GenTable t;
    t.name = std::move(name);
    t.arity = arity;
    t.event = event;
    t.keyed = keyed;
    return t;
  }

  void DeclareTables(GeneratedProgram* p) {
    p->tables.push_back(MakeTable("i0", 2, false, true));
    p->tables.push_back(MakeTable("i1", 2, false, false));
    if (Chance(0.5)) {
      p->tables.push_back(MakeTable("i2", 1, false, false));
    }
    p->tables.push_back(MakeTable("e0", 2, true, false));
    if (Chance(0.5)) {
      p->tables.push_back(MakeTable("e1", 1, true, false));
    }
    int level = 1;
    for (int i = 0, n = Uniform(3, 6); i < n; ++i) {
      if (i > 0 && Chance(0.5)) {
        ++level;
      }
      GenTable t;
      t.level = level;
      if (Chance(0.35)) {
        t.role = Role::kAggregate;
        t.name = "g" + std::to_string(i);
        const int group = Uniform(0, 2);
        const int aggs = Uniform(1, group == 2 ? 1 : 2);  // at most three columns
        t.arity = group + aggs;
        static const char* const kAggs[] = {"count", "sum", "min", "max", "avg", "bottomk"};
        for (int a = 0; a < aggs; ++a) {
          t.aggs.push_back(kAggs[Uniform(0, 5)]);
          // avg<> gives a double and bottomk<> a list: only integer columns are read.
          t.readable = t.readable && t.aggs.back() != "avg" && t.aggs.back() != "bottomk";
        }
        // An event head derives only the groups a tick affects, which are all of them
        // exactly when every binding holds an event row: its rule reads an event.
        t.event = Chance(0.2);
        t.keyed = !t.event && group > 0 && Chance(0.5);  // events have no keys
      } else {
        t.role = Role::kDerived;
        t.name = "d" + std::to_string(i);
        t.arity = Uniform(1, 2);
        t.event = Chance(0.2);
      }
      p->tables.push_back(t);
    }
  }

  // Tables a body may read positively, and those it may negate or aggregate over.
  std::vector<const GenTable*> Readable(int max_level) const {
    std::vector<const GenTable*> out;
    for (const GenTable& t : *tables_) {
      if (t.readable && t.level <= max_level) {
        out.push_back(&t);
      }
    }
    return out;
  }

  // One atom over `t`: each column joins a bound variable, binds a new one, filters on a
  // constant or is a wildcard.
  std::string BodyAtom(const GenTable& t, Body* body, bool negated) {
    std::vector<std::string> args;
    for (int c = 0; c < t.arity; ++c) {
      const int r = Uniform(0, 99);
      if (negated) {
        if (r < 55 && !body->vars.empty()) {
          args.push_back(Pick(body->vars));
        } else if (r < 75) {
          args.push_back(std::to_string(Uniform(0, kDomain - 1)));
        } else {
          args.push_back("_");
        }
        continue;
      }
      if (r < 40 && !body->vars.empty()) {
        args.push_back(Pick(body->vars));  // a join, or a repeated variable in this atom
      } else if (r < 75 && body->next_var < 4) {
        const std::string v(1, static_cast<char>('A' + body->next_var++));
        body->vars.push_back(v);
        args.push_back(v);
      } else if (r < 85) {
        args.push_back(std::to_string(Uniform(0, kDomain - 1)));
      } else {
        args.push_back("_");
      }
    }
    if (!negated && body->vars.empty() && body->next_var < 4) {
      // Bind at least one variable so that heads and aggregates have an input.
      const std::string v(1, static_cast<char>('A' + body->next_var++));
      body->vars.push_back(v);
      args[0] = v;
    }
    return (negated ? "notin " : "") + Atom(t.name, args);
  }

  // Optional assignment (kept inside the domain, so recursion stays finite), condition
  // and negated atom over `negatable`.
  void Filters(Body* body, const std::vector<const GenTable*>& negatable) {
    if (!body->vars.empty() && body->next_var < 4 && Chance(0.2)) {
      const std::string v(1, static_cast<char>('A' + body->next_var++));
      const std::string rhs = Chance(0.5) ? Pick(body->vars) : std::to_string(Uniform(1, 2));
      body->terms.push_back(v + " := ( " + Pick(body->vars) + " + " + rhs + " ) % " +
                            std::to_string(kDomain));
      body->vars.push_back(v);
    }
    if (!body->vars.empty() && Chance(0.3)) {
      static const char* const kOps[] = {"!=", "<", "==", ">="};
      const std::string rhs =
          Chance(0.5) ? Pick(body->vars) : std::to_string(Uniform(0, kDomain - 1));
      body->terms.push_back(Pick(body->vars) + " " + kOps[Uniform(0, 3)] + " " + rhs);
    }
    if (!negatable.empty() && Chance(0.3)) {
      body->terms.push_back(BodyAtom(*Pick(negatable), body, /*negated=*/true));
    }
  }

  std::string HeadArgs(const GenTable& t, const Body& body) {
    std::vector<std::string> args;
    for (int c = 0; c < t.arity; ++c) {
      args.push_back(!body.vars.empty() && Chance(0.85)
                         ? Pick(body.vars)
                         : std::to_string(Uniform(0, kDomain - 1)));
    }
    return Atom(t.name, args);
  }

  void EmitRule(const std::string& head, const Body& body) {
    std::string text = "r" + std::to_string(rule_id_++) + " " + head + " :-";
    for (size_t i = 0; i < body.terms.size(); ++i) {
      text += (i > 0 ? " , " : " ") + body.terms[i];
    }
    Emit(text + " ;");
  }

  std::vector<const GenTable*> Below(int level) const { return Readable(level - 1); }

  void DerivedRule(const GenTable& t, bool recursive) {
    Body body;
    std::vector<const GenTable*> positive = Readable(t.level);
    if (recursive && t.readable) {
      body.terms.push_back(BodyAtom(t, &body, false));
    }
    for (int a = Uniform(1, 2); a > 0; --a) {
      body.terms.push_back(BodyAtom(*Pick(positive), &body, false));
    }
    Filters(&body, Below(t.level));
    EmitRule(HeadArgs(t, body), body);
  }

  // Runs once, at the first tick.
  void DriverlessRule(const GenTable& t) {
    Body body;
    std::vector<const GenTable*> negatable = Below(t.level);
    body.terms.push_back(Chance(0.5) || negatable.empty()
                             ? "0 < 1"
                             : BodyAtom(*Pick(negatable), &body, /*negated=*/true));
    EmitRule(HeadArgs(t, body), body);
  }

  void AggregateRule(const GenTable& t) {
    Body body;
    std::vector<const GenTable*> below = Below(t.level);
    if (t.event) {
      std::vector<const GenTable*> events;
      for (const GenTable* b : below) {
        if (b->event) {
          events.push_back(b);
        }
      }
      body.terms.push_back(BodyAtom(*Pick(events), &body, false));
    }
    for (int a = t.event ? Uniform(0, 1) : Uniform(1, 2); a > 0; --a) {
      body.terms.push_back(BodyAtom(*Pick(below), &body, false));
    }
    Filters(&body, below);
    const int group = t.arity - static_cast<int>(t.aggs.size());
    std::vector<std::string> args;
    for (int c = 0; c < group; ++c) {
      args.push_back(Chance(0.85) ? Pick(body.vars) : std::to_string(Uniform(0, kDomain - 1)));
    }
    for (const std::string& agg : t.aggs) {
      const std::string& v = Pick(body.vars);
      args.push_back(agg == "bottomk" ? "bottomk < 2 , " + v + " >" : agg + " < " + v + " >");
    }
    EmitRule(Atom(t.name, args), body);
  }

  // Deletes from an input or a derived table; the body often reads the target itself.
  void DeleteRule() {
    std::vector<const GenTable*> targets;
    for (const GenTable& t : *tables_) {
      if (!t.event && t.role != Role::kAggregate) {
        targets.push_back(&t);
      }
    }
    const GenTable& target = *Pick(targets);
    Body body;
    std::vector<const GenTable*> any = Readable(std::numeric_limits<int>::max());
    body.terms.push_back(BodyAtom(Chance(0.6) ? target : *Pick(any), &body, false));
    if (Chance(0.6)) {
      body.terms.push_back(BodyAtom(*Pick(any), &body, false));
    }
    Filters(&body, any);
    EmitRule("delete " + HeadArgs(target, body), body);
  }

  // An @next rule into a derived table, often guarded by `notin` over its own head.
  void NextRule() {
    std::vector<const GenTable*> targets;
    for (const GenTable& t : *tables_) {
      if (t.role == Role::kDerived) {
        targets.push_back(&t);
      }
    }
    if (targets.empty()) {
      return;
    }
    const GenTable& target = *Pick(targets);
    Body body;
    std::vector<const GenTable*> any = Readable(std::numeric_limits<int>::max());
    for (int a = Uniform(1, 2); a > 0; --a) {
      body.terms.push_back(BodyAtom(*Pick(any), &body, false));
    }
    Filters(&body, any);
    std::string head = HeadArgs(target, body);
    if (Chance(0.5)) {
      body.terms.push_back("notin " + head);
    }
    EmitRule(head + " @ next", body);
  }

  std::mt19937_64 rng_;
  std::vector<GenTable>* tables_ = nullptr;
  std::vector<std::string>* tokens_ = nullptr;
  int rule_id_ = 0;
};

// The host's rows for one tick: a few rows per persistent input, with at most one row per
// key of the keyed input, and a few events.
std::vector<std::pair<std::string, Tuple>> HostInputs(const GeneratedProgram& p,
                                                      std::mt19937_64* rng) {
  auto uniform = [rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  std::vector<std::pair<std::string, Tuple>> out;
  for (const GenTable& t : p.tables) {
    if (t.role != Role::kInput) {
      continue;
    }
    std::set<int> keys;
    for (int n = uniform(0, t.event ? 3 : 2); n > 0; --n) {
      std::vector<Value> row;
      for (int c = 0; c < t.arity; ++c) {
        row.push_back(Value(uniform(0, kDomain - 1)));
      }
      if (t.keyed && !keys.insert(static_cast<int>(row[0].as_int())).second) {
        continue;
      }
      out.emplace_back(t.name, Tuple(std::move(row)));
    }
  }
  return out;
}

std::string Show(const std::set<Tuple>& rows) {
  std::string s = "{";
  for (const Tuple& t : rows) {
    s += " " + t.ToString();
  }
  return s + " }";
}

std::set<Tuple> EngineRows(const Engine& e, const std::string& table) {
  std::set<Tuple> out;
  e.catalog().Get(table).ForEach([&out](const Tuple& row) { out.insert(row); });
  return out;
}

// Runs `source` on the engine and the reference for `ticks` ticks of `inputs(tick)` and
// returns the first difference ("" when none). Event tables are compared on the rows they
// held during the tick (the engine's watches see them).
template <typename InputsFn>
std::string RunDifferential(const std::string& source, int ticks, InputsFn&& inputs) {
  Result<Program> parsed = ParseProgram(source);
  if (!parsed.ok()) {
    return "parse: " + parsed.status().ToString();
  }
  Result<ReferenceEvaluator> ref = ReferenceEvaluator::Create(*parsed);
  if (!ref.ok()) {
    return "reference: " + ref.status().ToString();
  }
  Engine engine(EngineOptions{});
  Status installed = engine.InstallSource(source);
  if (!installed.ok()) {
    return "install: " + installed.ToString();
  }
  std::map<std::string, std::set<Tuple>> events;
  for (const TableDef& def : parsed->tables) {
    if (def.kind == TableKind::kEvent) {
      engine.AddWatch(def.name, [&events](const std::string& table, const Tuple& row,
                                          bool inserted) {
        if (inserted) {
          events[table].insert(row);
        }
      });
    }
  }
  for (int tick = 0; tick < ticks; ++tick) {
    const std::vector<std::pair<std::string, Tuple>> rows = inputs(tick);
    for (const auto& [table, row] : rows) {
      if (!engine.Enqueue(table, row).ok() || !ref->Enqueue(table, row).ok()) {
        return "enqueue into " + table;
      }
    }
    events.clear();
    const Engine::TickResult result = engine.Tick(tick);
    if (!result.errors.empty()) {
      return "tick " + std::to_string(tick) + ": engine error " + result.errors[0];
    }
    const Status status = ref->Tick();
    if (!status.ok()) {
      return "tick " + std::to_string(tick) + ": reference error " + status.ToString();
    }
    for (const std::string& table : ref->TableNames()) {
      const bool event = engine.catalog().Get(table).def().kind == TableKind::kEvent;
      const std::set<Tuple> got = event ? events[table] : EngineRows(engine, table);
      const std::set<Tuple> want = ref->Rows(table);
      if (got != want) {
        return "tick " + std::to_string(tick) + ", table " + table + ": engine " + Show(got) +
               ", reference " + Show(want);
      }
    }
  }
  return "";
}

TEST(ReferenceEval, EngineMatchesReferenceOnGeneratedPrograms) {
  for (int seed = 1; seed <= kPrograms; ++seed) {
    const GeneratedProgram program = ProgramGenerator(static_cast<uint64_t>(seed)).Generate();
    std::mt19937_64 rng(static_cast<uint64_t>(seed) * 7919);
    const std::string diff = RunDifferential(
        program.Source(), kTicks, [&](int) { return HostInputs(program, &rng); });
    ASSERT_EQ(diff, "") << "seed " << seed << "\n" << program.Source();
  }
}

using Inputs = std::vector<std::pair<std::string, Tuple>>;

std::string RunDifferential(const std::string& source, const std::vector<Inputs>& ticks) {
  return RunDifferential(source, static_cast<int>(ticks.size()),
                         [&](int tick) { return ticks[static_cast<size_t>(tick)]; });
}

// The rows of `table` in the reference after `ticks`.
std::set<Tuple> ReferenceRows(const std::string& source, const std::vector<Inputs>& ticks,
                              const std::string& table) {
  Result<Program> parsed = ParseProgram(source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<ReferenceEvaluator> ref = ReferenceEvaluator::Create(*parsed);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  for (const Inputs& inputs : ticks) {
    for (const auto& [name, row] : inputs) {
      EXPECT_TRUE(ref->Enqueue(name, row).ok());
    }
    EXPECT_TRUE(ref->Tick().ok());
  }
  return ref->Rows(table);
}

// The seeded fixpoint of a recursive join under a min<> aggregate, then two incremental
// edges: one extends the graph, the other improves a->c from 3 to 1 through the aggregate.
TEST(ReferenceEval, ShortestPaths) {
  // Keep in sync with olg/shortest_paths.olg (inlined because unit tests cannot assume the
  // source tree's path at runtime).
  const char* kShortestPaths = R"(
    program shortest_paths;

    table link(From, To, Cost);
    table path_cost(From, To, Cost);
    table shortest(From, To, Cost) keys(0, 1);

    link("a", "b", 1);
    link("b", "c", 2);
    link("a", "c", 5);
    link("c", "d", 1);
    link("b", "d", 9);

    p1 path_cost(F, T, C) :- link(F, T, C);
    p2 path_cost(F, T, C) :- link(F, N, C1), path_cost(N, T, C2), C := C1 + C2;

    s1 shortest(F, T, min<C>) :- path_cost(F, T, C);
  )";
  const std::vector<Inputs> edges = {
      {},
      {{"link", Tuple{Value("d"), Value("e"), Value(2)}}},
      {{"link", Tuple{Value("a"), Value("c"), Value(1)}}},
  };
  EXPECT_EQ(RunDifferential(kShortestPaths, edges), "");
  auto cost = [](const std::set<Tuple>& shortest, const char* from, const char* to) {
    for (const Tuple& row : shortest) {
      if (row[0] == Value(from) && row[1] == Value(to)) {
        return row[2];
      }
    }
    return Value();
  };
  const std::set<Tuple> seeded = ReferenceRows(kShortestPaths, {edges[0]}, "shortest");
  EXPECT_EQ(cost(seeded, "a", "d"), Value(4));  // a-b-c-d
  EXPECT_EQ(cost(seeded, "a", "c"), Value(3));
  const std::set<Tuple> last = ReferenceRows(kShortestPaths, edges, "shortest");
  EXPECT_EQ(cost(last, "a", "c"), Value(1));
  EXPECT_EQ(cost(last, "a", "e"), Value(4));  // a-c-d-e = 1 + 1 + 2
}

// The rule the reference encodes: state accumulates, and a rule fires on a binding only
// when one of its positive rows is new this tick.
TEST(ReferenceEval, RulesFireOnlyOnANewPositiveRow) {
  const char* kNegation = R"(
    program p;
    table a(X); table b(X); table t(X); event kill(X);
    t1 t(X) :- a(X), notin b(X);
    k1 delete b(X) :- kill(X);
  )";
  const std::vector<Inputs> negation = {
      {{"a", Tuple{Value(1)}}, {"b", Tuple{Value(1)}}},
      {{"kill", Tuple{Value(1)}}},
      {},
      {{"a", Tuple{Value(2)}}},
  };
  EXPECT_EQ(RunDifferential(kNegation, negation), "");
  // b(1) is gone, but a(1) is not new: t(1) is never derived. a(2) is.
  EXPECT_EQ(ReferenceRows(kNegation, negation, "t"), (std::set<Tuple>{Tuple{Value(2)}}));

  const char* kRederive = R"(
    program q;
    table a(X); table t(X); event kill(X);
    t1 t(X) :- a(X);
    k1 delete t(X) :- kill(X);
  )";
  const std::vector<Inputs> rederive = {
      {{"a", Tuple{Value(1)}}}, {{"kill", Tuple{Value(1)}}}, {}};
  EXPECT_EQ(RunDifferential(kRederive, rederive), "");
  EXPECT_TRUE(ReferenceRows(kRederive, rederive, "t").empty());  // a(1) remains; t(1) stays
}

// One aggregate input per satisfying combination of body rows: the wildcard's two rows
// count twice.
TEST(ReferenceEval, AggregateInputsAreRowCombinations) {
  const char* kSource = R"(
    program p;
    table a(K, V); table b(V, W); table c(K, N) keys(0);
    c1 c(K, count<V>) :- a(K, V), b(V, _);
  )";
  const std::vector<Inputs> inputs = {{{"a", Tuple{Value(1), Value(7)}},
                                       {"b", Tuple{Value(7), Value(1)}},
                                       {"b", Tuple{Value(7), Value(2)}}}};
  EXPECT_EQ(RunDifferential(kSource, inputs), "");
  EXPECT_EQ(ReferenceRows(kSource, inputs, "c"),
            (std::set<Tuple>{Tuple{Value(1), Value(2)}}));
}

// Cases the generator found, each a stale or wrong row in the engine until fixed: a group is
// found only while its binding is whole, and a deferred rule waits for what it negates.
TEST(ReferenceEval, TickBoundaryAndNegationCases) {
  struct Case {
    const char* name;
    const char* source;
    std::vector<Inputs> ticks;
  };
  const Case cases[] = {
      {"a deletion and the event clear end one binding",
       R"(program p; table a(K, V); event e(K); table g(K, V, N);
          g1 g(K, V, count<K>) :- e(K), a(K, V);
          d1 delete a(K, V) :- e(K), a(K, V);)",
       {{{"e", Tuple{Value(1)}}, {"a", Tuple{Value(1), Value(2)}}}, {}}},
      {"two event tables end one binding",
       R"(program p; event e0(B, A); event e1(A); table g(A, B, N);
          g1 g(A, B, count<A>) :- e1(A), e0(B, A);)",
       {{{"e1", Tuple{Value(1)}}, {"e0", Tuple{Value(2), Value(1)}}}, {}}},
      {"a negated row enters, then a lower aggregate retracts a body row",
       R"(program p; table s(K, V) keys(0); table c(K, N); table b(K, V); event n(K);
          table g(V, N) keys(0);
          c1 c(K, count<V>) :- s(K, V), V > 0;
          g1 g(V, count<K>) :- c(K, _), b(K, V), notin n(K);)",
       {{{"s", Tuple{Value(1), Value(5)}}, {"b", Tuple{Value(1), Value(7)}}},
        {{"n", Tuple{Value(1)}}, {"s", Tuple{Value(1), Value(0)}}}}},
      {"@next negates a table of its own stratum",
       R"(program p; table a(X); table b(X); table t(X);
          t1 t(X)@next :- a(X), notin b(X);
          b1 b(X) :- a(X);)",
       {{{"a", Tuple{Value(1)}}}, {}}},
      {"delete negates a table of its own stratum",
       R"(program p; table a(X); table b(X); table c(X);
          d1 delete c(X) :- a(X), notin b(X);
          b1 b(X) :- a(X);
          c(1);)",
       {{{"a", Tuple{Value(1)}}}, {}}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(RunDifferential(c.source, c.ticks), "") << c.name;
  }
}

// What a failed install must leave: the base program alone, its tables, rows and timer.
struct EngineShape {
  size_t programs;
  std::vector<std::string> tables;
  double next_timer;
  std::set<Tuple> rows;

  static EngineShape Of(const Engine& e) {
    return EngineShape{e.programs().size(), e.catalog().TableNames(), e.NextTimerDeadline(),
                       EngineRows(e, "base_a")};
  }
  bool operator==(const EngineShape& o) const {
    return programs == o.programs && tables == o.tables && next_timer == o.next_timer &&
           rows == o.rows;
  }
};

std::unique_ptr<Engine> BaseEngine() {
  EngineOptions opts;
  opts.max_rounds_per_tick = 1000;
  auto e = std::make_unique<Engine>(opts);
  EXPECT_TRUE(
      e->InstallSource("program base; table base_a(K, V) keys(0); timer base_tk(5); "
                       "base_a(1, 10); base_a(K, V) :- base_tk(K), V := 1;")
          .ok());
  e->Tick(0);
  return e;
}

// Checks that installing `source` on a used engine either fails with a diagnostic and no
// trace, or succeeds and ticks. Returns the install status.
Status InstallOnBase(const std::string& source) {
  std::unique_ptr<Engine> e = BaseEngine();
  const EngineShape before = EngineShape::Of(*e);
  const Status status = e->InstallSource(source);
  if (!status.ok()) {
    EXPECT_FALSE(status.message().empty());
    EXPECT_TRUE(EngineShape::Of(*e) == before) << source;
  }
  for (int tick = 1; tick <= 3; ++tick) {
    e->Tick(tick);  // must neither crash nor hang; a valid mutant may report errors
  }
  return status;
}

TEST(ReferenceEval, MalformedProgramsFailCleanly) {
  int rejected = 0;
  for (int seed = 1; seed <= kPrograms; ++seed) {
    ProgramGenerator gen(static_cast<uint64_t>(seed));
    const GeneratedProgram mutant = gen.Malformed(gen.Generate());
    if (!InstallOnBase(mutant.Source()).ok()) {
      ++rejected;
    }
  }
  // A mutation can leave a valid program (a dropped `notin`, say); most must not.
  EXPECT_GT(rejected, kPrograms / 2);
}

TEST(ReferenceEval, UnstratifiableProgramsAreRejected) {
  for (int seed = 1; seed <= kPrograms; ++seed) {
    {
      ProgramGenerator gen(static_cast<uint64_t>(seed));
      const GeneratedProgram bad = gen.Unstratifiable(gen.Generate(), /*deferred=*/false);
      const Status status = InstallOnBase(bad.Source());
      EXPECT_FALSE(status.ok()) << bad.Source();
      EXPECT_NE(status.message().find("unstratifiable"), std::string::npos)
          << status.ToString();
      Result<Program> parsed = ParseProgram(bad.Source());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      Result<ReferenceEvaluator> ref = ReferenceEvaluator::Create(*parsed);
      ASSERT_FALSE(ref.ok());
      EXPECT_NE(ref.status().message().find("unstratifiable"), std::string::npos);
    }
    {
      // The same cycle deferred by @next is stratifiable, and the two evaluators agree.
      ProgramGenerator gen(static_cast<uint64_t>(seed));
      const GeneratedProgram ok = gen.Unstratifiable(gen.Generate(), /*deferred=*/true);
      std::mt19937_64 rng(static_cast<uint64_t>(seed));
      EXPECT_EQ(RunDifferential(ok.Source(), 4, [&](int) { return HostInputs(ok, &rng); }),
                "")
          << "seed " << seed << "\n"
          << ok.Source();
    }
  }
}

}  // namespace
}  // namespace boom
