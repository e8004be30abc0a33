#include <gtest/gtest.h>

#include "src/overlog/parser.h"
#include "src/overlog/planner.h"

namespace boom {
namespace {

// Parses a program, declares its tables into a catalog, and compiles its rules.
Result<CompiledProgram> Compile(std::string_view src) {
  Result<Program> p = ParseProgram(src);
  if (!p.ok()) {
    return p.status();
  }
  static Catalog* catalog = nullptr;
  // Each call gets a fresh catalog.
  delete catalog;
  catalog = new Catalog();
  for (const TableDef& def : p->tables) {
    Status s = catalog->Declare(def);
    if (!s.ok()) {
      return s;
    }
  }
  std::vector<std::string> programs(p->rules.size(), p->name);
  return CompileRules(p->rules, programs, *catalog);
}

CompiledProgram MustCompile(std::string_view src) {
  Result<CompiledProgram> c = Compile(src);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  return std::move(c).value();
}

TEST(PlannerTest, VariantPerPositiveAtom) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table link(X, Y);
    table reach(X, Y);
    reach(X, Z) :- link(X, Y), reach(Y, Z);
  )");
  ASSERT_EQ(c.rules.size(), 1u);
  EXPECT_EQ(c.rules[0].variants.size(), 2u);
  EXPECT_EQ(c.rules[0].variants[0].driver_table, "link");
  EXPECT_EQ(c.rules[0].variants[1].driver_table, "reach");
}

TEST(PlannerTest, UndeclaredBodyTableRejected) {
  ParserOptions opts;
  opts.known_tables.insert("ghost");
  Result<Program> p = ParseProgram("program t; table a(X); a(X) :- ghost(X);", opts);
  ASSERT_TRUE(p.ok());
  Catalog catalog;
  for (const TableDef& def : p->tables) {
    ASSERT_TRUE(catalog.Declare(def).ok());
  }
  Result<CompiledProgram> c = CompileRules(p->rules, {p->name}, catalog);
  EXPECT_FALSE(c.ok());
}

TEST(PlannerTest, ArityMismatchRejected) {
  Result<CompiledProgram> c = Compile(R"(
    program t;
    table a(X, Y);
    table b(X);
    b(X) :- a(X);
  )");
  EXPECT_FALSE(c.ok());
}

TEST(PlannerTest, UnsafeHeadRejected) {
  Result<CompiledProgram> c = Compile(R"(
    program t;
    table a(X);
    table b(X, Y);
    b(X, Y) :- a(X);
  )");
  EXPECT_FALSE(c.ok());
}

TEST(PlannerTest, UnboundNegationRejected) {
  Result<CompiledProgram> c = Compile(R"(
    program t;
    table a(X);
    table b(X);
    table c(X);
    c(X) :- notin b(X), a(X);
  )");
  // Orderable: a(X) binds X, then notin b(X) runs. Should compile.
  EXPECT_TRUE(c.ok()) << c.status().ToString();
}

TEST(PlannerTest, NegationOnlyBodyRejected) {
  Result<CompiledProgram> c = Compile(R"(
    program t;
    table b(X);
    table c(X);
    c(X) :- notin b(X);
  )");
  EXPECT_FALSE(c.ok());
}

TEST(PlannerTest, StratifiesNegationBelowHead) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table a(X);
    table b(X);
    table diff(X);
    diff(X) :- a(X), notin b(X);
  )");
  EXPECT_EQ(c.rules[0].stratum, 1);
  EXPECT_EQ(c.num_strata, 2);
}

TEST(PlannerTest, RecursionThroughNegationRejected) {
  Result<CompiledProgram> c = Compile(R"(
    program t;
    table a(X);
    table p(X);
    table q(X);
    p(X) :- a(X), notin q(X);
    q(X) :- a(X), notin p(X);
  )");
  EXPECT_FALSE(c.ok());
}

TEST(PlannerTest, AggregateGetsHigherStratum) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table chunk(C, F);
    table cnt(F, N) keys(0);
    table big(F);
    cnt(F, count<C>) :- chunk(C, F);
    big(F) :- cnt(F, N), N > 3;
  )");
  ASSERT_EQ(c.rules.size(), 2u);
  EXPECT_TRUE(c.rules[0].has_agg);
  EXPECT_LT(0, c.rules[0].stratum);
  EXPECT_LE(c.rules[0].stratum, c.rules[1].stratum);
}

TEST(PlannerTest, RecursionThroughAggregateRejected) {
  Result<CompiledProgram> c = Compile(R"(
    program t;
    table x(A, B);
    x(A, count<B>) :- x(B, A);
  )");
  EXPECT_FALSE(c.ok());
}

TEST(PlannerTest, MonotoneRecursionAllowed) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table link(X, Y);
    table reach(X, Y);
    reach(X, Y) :- link(X, Y);
    reach(X, Z) :- link(X, Y), reach(Y, Z);
  )");
  EXPECT_EQ(c.num_strata, 1);
}

TEST(PlannerTest, DeleteFromEventRejected) {
  Result<CompiledProgram> c = Compile(R"(
    program t;
    event e(X);
    table a(X);
    delete e(X) :- a(X);
  )");
  EXPECT_FALSE(c.ok());
}

TEST(PlannerTest, ConditionOrderedAfterBinding) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table a(X);
    table b(Y);
    table out(X, Y);
    out(X, Y) :- a(X), b(Y), X < Y;
  )");
  const CompiledVariant& v = c.rules[0].variants[0];
  // The condition must come after the second atom binds Y.
  ASSERT_EQ(v.steps.size(), 2u);
  EXPECT_EQ(v.steps[0].kind, BodyTerm::Kind::kAtom);
  EXPECT_EQ(v.steps[1].kind, BodyTerm::Kind::kCondition);
}

TEST(PlannerTest, AssignmentChainOrdered) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table a(X);
    table out(X);
    out(Z) :- Z := Y + 1, Y := X * 2, a(X);
  )");
  const CompiledVariant& v = c.rules[0].variants[0];
  ASSERT_EQ(v.steps.size(), 2u);
  EXPECT_EQ(v.steps[0].kind, BodyTerm::Kind::kAssign);
  EXPECT_EQ(v.steps[1].kind, BodyTerm::Kind::kAssign);
}

TEST(PlannerTest, RebindingAssignmentBecomesEqualityCheck) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table a(X);
    table out(X);
    out(X) :- a(X), X := 5;
  )");
  const CompiledVariant& v = c.rules[0].variants[0];
  ASSERT_EQ(v.steps.size(), 1u);
  EXPECT_EQ(v.steps[0].kind, BodyTerm::Kind::kCondition);
  EXPECT_EQ(v.steps[0].condition.fn, "==");
}

TEST(PlannerTest, ProbeColsUseBoundPositions) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table edge(X, Y);
    table twohop(X, Z);
    twohop(X, Z) :- edge(X, Y), edge(Y, Z);
  )");
  const CompiledVariant& v = c.rules[0].variants[0];
  ASSERT_EQ(v.steps.size(), 1u);
  // Second edge atom probes on column 0 (Y bound by the driver).
  EXPECT_EQ(v.steps[0].atom.probe_cols, (std::vector<size_t>{0}));
}

// Greedy most-bound-first breaks ties by body order: after the driver binds U, big(U, N)
// and small(U, S) each have one bound argument, so big (first in the body) is probed
// first even though small is keyed on U. Only small's probe covers its key.
TEST(PlannerTest, GreedyTieProbesFirstBodyAtom) {
  CompiledProgram c = MustCompile(R"(
    program t;
    event probe(U);
    table big(U, N);
    table small(U, S) keys(0);
    table out(U, N, S);
    r1 out(U, N, S) :- probe(U), big(U, N), small(U, S), S == 1;
  )");
  ASSERT_EQ(c.rules.size(), 1u);
  for (const CompiledVariant* v : {&c.rules[0].full_variant, &c.rules[0].variants[0]}) {
    ASSERT_EQ(v->driver_table, "probe");
    ASSERT_GE(v->steps.size(), 2u);
    EXPECT_EQ(v->steps[0].atom.table, "big");
    EXPECT_EQ(v->steps[1].atom.table, "small");
    for (const CompiledStep& step : v->steps) {
      if (step.kind == BodyTerm::Kind::kAtom) {
        EXPECT_EQ(step.atom.key_lookup, step.atom.table == "small") << step.atom.table;
      }
    }
  }
}

TEST(PlannerTest, IncrementalAggEligibility) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table obs(Id, G, V);
    table rollup(G, N) keys(0);
    table keyed_src(Id, V) keys(0);
    table keyed_roll(K, N) keys(0);
    event ev(X);
    table ev_cnt(K, N) keys(0);
    table lo(G, V) keys(0);
    table fresh(G, N) keys(0);
    r1 rollup(G, count<Id>) :- obs(Id, G, _);
    r2 keyed_roll(1, sum<V>) :- keyed_src(_, V);
    r3 ev_cnt(1, count<X>) :- ev(X);
    r4 lo(G, min<V>) :- obs(_, G, V);
    r5 fresh(G, count<Id>) :- obs(Id, G, T), f_now() - T < 10;
  )");
  // r1/r2: one atom over a persistent table, count/sum -> ± (replaced rows are subtracted).
  EXPECT_TRUE(c.rules[0].agg.plus_minus);
  EXPECT_TRUE(c.rules[1].agg.plus_minus);
  EXPECT_TRUE(c.rules[0].variants.empty());
  // r3: an event table is cleared every tick -> event-driven group recompute.
  EXPECT_FALSE(c.rules[2].agg.plus_minus);
  EXPECT_TRUE(c.rules[2].agg.event_driven);
  ASSERT_EQ(c.rules[2].variants.size(), 1u);
  EXPECT_EQ(c.rules[2].variants[0].driver_table, "ev");
  // r4: min<> cannot be adjusted by ±.
  EXPECT_FALSE(c.rules[3].agg.plus_minus);
  // r5: a leaving row's binding must evaluate as it did when the row entered.
  EXPECT_FALSE(c.rules[4].agg.plus_minus);
}

TEST(PlannerTest, AggregateGroupRecomputePlan) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table fchunk(Ch, F) keys(0);
    table hb_chunk(Dn, Ch);
    table chunk_rep(Ch, N) keys(0);
    table job(J, C) keys(0);
    table attempt(A, J, S) keys(0);
    table running(C, N) keys(0);
    rr1 chunk_rep(Ch, count<Dn>) :- fchunk(Ch, _), hb_chunk(Dn, Ch);
    fs0 running(C, count<A>) :- attempt(A, J, "run"), job(J, C);
  )");
  // rr1: fchunk binds the group key and is keyed on it -> a key lookup per group; both
  // atoms bind Ch, so neither mark variant needs a join.
  const CompiledRule& rr1 = c.rules[0];
  EXPECT_FALSE(rr1.agg.plus_minus);
  EXPECT_FALSE(rr1.agg.event_driven);
  EXPECT_EQ(rr1.full_variant.driver_table, "fchunk");
  EXPECT_TRUE(rr1.agg.group_probe);
  EXPECT_EQ(rr1.agg.group_cols, (std::vector<size_t>{0}));
  EXPECT_EQ(rr1.agg.group_key_pos, (std::vector<int>{0}));
  EXPECT_TRUE(rr1.agg.group_key_lookup);
  ASSERT_EQ(rr1.variants.size(), 2u);
  EXPECT_TRUE(rr1.variants[0].steps.empty());
  EXPECT_TRUE(rr1.variants[1].steps.empty());
  ASSERT_EQ(c.agg_readers.count(c.rules[0].variants[1].driver.table_id), 1u);
  // fs0: only job binds C, so it drives the full variant, and attempt's mark variant joins
  // through job to find the group.
  const CompiledRule& fs0 = c.rules[1];
  EXPECT_EQ(fs0.full_variant.driver_table, "job");
  EXPECT_EQ(fs0.agg.group_cols, (std::vector<size_t>{1}));
  ASSERT_EQ(fs0.variants.size(), 2u);
  EXPECT_EQ(fs0.variants[0].driver_table, "attempt");
  EXPECT_FALSE(fs0.variants[0].steps.empty());
  EXPECT_TRUE(fs0.variants[1].steps.empty());
}

TEST(PlannerTest, DriverlessRuleFlagged) {
  CompiledProgram c = MustCompile(R"(
    program t;
    table out(X);
    out(X) :- X := 1 + 2;
  )");
  EXPECT_TRUE(c.rules[0].driverless);
  EXPECT_TRUE(c.rules[0].variants.empty());
}

}  // namespace
}  // namespace boom
