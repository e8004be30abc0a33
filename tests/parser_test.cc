#include <gtest/gtest.h>

#include "src/overlog/parser.h"

namespace boom {
namespace {

Program MustParse(std::string_view src, ParserOptions opts = {}) {
  Result<Program> p = ParseProgram(src, opts);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

TEST(ParserTest, TableAndEventDecls) {
  Program p = MustParse(R"(
    program test;
    table file(FileId, ParentId, Name, IsDir) keys(0);
    event request(Addr, ReqId);
  )");
  ASSERT_EQ(p.tables.size(), 2u);
  EXPECT_EQ(p.tables[0].name, "file");
  EXPECT_EQ(p.tables[0].arity(), 4u);
  EXPECT_EQ(p.tables[0].key_columns, (std::vector<size_t>{0}));
  EXPECT_EQ(p.tables[1].kind, TableKind::kEvent);
}

TEST(ParserTest, KeyIndexOutOfRangeRejected) {
  Result<Program> p = ParseProgram("program t; table x(A) keys(3);");
  EXPECT_FALSE(p.ok());
}

TEST(ParserTest, EventKeysRejected) {
  Result<Program> p = ParseProgram("program t; event x(A) keys(0);");
  EXPECT_FALSE(p.ok());
}

TEST(ParserTest, SimpleRule) {
  Program p = MustParse(R"(
    program test;
    table link(From, To);
    table reach(From, To);
    r1 reach(X, Y) :- link(X, Y);
    r2 reach(X, Z) :- link(X, Y), reach(Y, Z);
  )");
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.rules[0].name, "r1");
  EXPECT_EQ(p.rules[1].body.size(), 2u);
}

TEST(ParserTest, UnlabeledRuleGetsName) {
  Program p = MustParse(R"(
    program test;
    table a(X);
    table b(X);
    b(X) :- a(X);
  )");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_FALSE(p.rules[0].name.empty());
}

// Duplicate rule names are a hard parse error: profiling, tracing, and the dirty-rule
// scheduler all key rules by (program, name), so last-writer-wins would misattribute.
TEST(ParserTest, DuplicateRuleNameRejected) {
  Result<Program> p = ParseProgram(R"(
    program test;
    table a(X);
    table b(X);
    r1 b(X) :- a(X);
    r1 b(X) :- a(X), X > 0;
  )");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("duplicate rule name 'r1'"), std::string::npos)
      << p.status().message();
  // The error pinpoints both definitions.
  EXPECT_NE(p.status().message().find("first defined at line"), std::string::npos);
}

TEST(ParserTest, Facts) {
  Program p = MustParse(R"(
    program test;
    table file(Id, Parent, Name);
    file(0, -1, "root");
    file(1, 0, "tmp");
  )");
  ASSERT_EQ(p.facts.size(), 2u);
  EXPECT_EQ(p.facts[0].tuple[1], Value(-1));
  EXPECT_EQ(p.facts[1].tuple[2], Value("tmp"));
}

TEST(ParserTest, NonConstFactRejected) {
  Result<Program> p = ParseProgram("program t; table a(X); a(Y);");
  EXPECT_FALSE(p.ok());
}

TEST(ParserTest, DeleteRule) {
  Program p = MustParse(R"(
    program test;
    table file(Id);
    event rm(Id);
    delete file(F) :- rm(F), file(F);
  )");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_TRUE(p.rules[0].is_delete);
}

TEST(ParserTest, LabeledDeleteRule) {
  Program p = MustParse(R"(
    program test;
    table file(Id);
    event rm(Id);
    d1 delete file(F) :- rm(F), file(F);
  )");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_TRUE(p.rules[0].is_delete);
  EXPECT_EQ(p.rules[0].name, "d1");
}

TEST(ParserTest, Negation) {
  Program p = MustParse(R"(
    program test;
    table a(X);
    table b(X);
    table c(X);
    c(X) :- a(X), notin b(X);
  )");
  ASSERT_EQ(p.rules[0].body.size(), 2u);
  EXPECT_TRUE(p.rules[0].body[1].atom.negated);
}

TEST(ParserTest, AssignmentsAndConditions) {
  Program p = MustParse(R"(
    program test;
    table a(X);
    table b(X, Y);
    b(X, Y) :- a(X), X > 2, Y := X * 10 + 1;
  )");
  const Rule& r = p.rules[0];
  ASSERT_EQ(r.body.size(), 3u);
  EXPECT_EQ(r.body[1].kind, BodyTerm::Kind::kCondition);
  EXPECT_EQ(r.body[2].kind, BodyTerm::Kind::kAssign);
  EXPECT_EQ(r.body[2].assign.var, "Y");
}

TEST(ParserTest, Aggregates) {
  Program p = MustParse(R"(
    program test;
    table chunk(C, F);
    table cnt(F, N) keys(0);
    cnt(F, count<C>) :- chunk(C, F);
  )");
  const HeadArg& agg = p.rules[0].head.args[1];
  EXPECT_EQ(agg.agg, AggKind::kCount);
}

TEST(ParserTest, BottomK) {
  Program p = MustParse(R"(
    program test;
    table load(Dn, N);
    table best(K, L) keys(0);
    best(1, bottomk<3, Pair>) :- load(Dn, N), Pair := [N, Dn];
  )");
  const HeadArg& agg = p.rules[0].head.args[1];
  EXPECT_EQ(agg.agg, AggKind::kBottomK);
  EXPECT_EQ(agg.k, 3);
}

TEST(ParserTest, LocationSpecifiers) {
  Program p = MustParse(R"(
    program test;
    table ping(Addr, From);
    table pong(Addr, From);
    r1 pong(@From, Me) :- ping(@Me, From);
  )");
  EXPECT_TRUE(p.rules[0].head.has_location);
  EXPECT_TRUE(p.rules[0].body[0].atom.has_location);
}

TEST(ParserTest, LocationOnNonFirstArgRejected) {
  Result<Program> p = ParseProgram(R"(
    program test;
    table ping(Addr, From);
    table pong(Addr, From);
    pong(X, @Y) :- ping(X, Y);
  )");
  EXPECT_FALSE(p.ok());
}

TEST(ParserTest, TimerDeclaresEventTable) {
  Program p = MustParse(R"(
    program test;
    timer hb(250);
    table seen(Node);
    seen(N) :- hb(N);
  )");
  ASSERT_EQ(p.timers.size(), 1u);
  EXPECT_DOUBLE_EQ(p.timers[0].period_ms, 250.0);
  ASSERT_EQ(p.tables.size(), 2u);
  EXPECT_EQ(p.tables[0].kind, TableKind::kEvent);
}

TEST(ParserTest, WatchDecl) {
  Program p = MustParse(R"(
    program test;
    table a(X);
    watch a;
    watch(a);
  )");
  EXPECT_EQ(p.watches.size(), 2u);
}

TEST(ParserTest, ConstSubstitution) {
  Program p = MustParse(R"(
    program test;
    const root_id = -1;
    table file(Id, Parent);
    table roots(Id);
    roots(F) :- file(F, root_id);
  )");
  const Expr& arg = p.rules[0].body[0].atom.args[1];
  ASSERT_TRUE(arg.is_const());
  EXPECT_EQ(arg.constant, Value(-1));
}

TEST(ParserTest, ExternalConsts) {
  ParserOptions opts;
  opts.consts["master"] = Value("nn1");
  Program p = MustParse(R"(
    program test;
    table t(Addr);
    t(master);
  )", opts);
  EXPECT_EQ(p.facts[0].tuple[0], Value("nn1"));
}

TEST(ParserTest, KnownTablesFromOptions) {
  ParserOptions opts;
  opts.known_tables.insert("external");
  Program p = MustParse(R"(
    program test;
    table t(X);
    t(X) :- external(X);
  )", opts);
  EXPECT_EQ(p.rules[0].body[0].atom.table, "external");
}

TEST(ParserTest, UnknownLowercaseIdentifierIsError) {
  Result<Program> p = ParseProgram(R"(
    program test;
    table t(X);
    t(X) :- mystery(X);
  )");
  EXPECT_FALSE(p.ok());
}

TEST(ParserTest, CommentsIgnored) {
  Program p = MustParse(R"(
    program test;
    // line comment
    table a(X);  /* block
                    comment */
    a(1);
  )");
  EXPECT_EQ(p.facts.size(), 1u);
}

TEST(ParserTest, WildcardsBecomeDistinctVars) {
  Program p = MustParse(R"(
    program test;
    table a(X, Y, Z);
    table b(X);
    b(X) :- a(X, _, _);
  )");
  const Atom& atom = p.rules[0].body[0].atom;
  ASSERT_TRUE(atom.args[1].is_var());
  ASSERT_TRUE(atom.args[2].is_var());
  EXPECT_NE(atom.args[1].var, atom.args[2].var);
}

TEST(ParserTest, StringEscapes) {
  Program p = MustParse(R"(
    program test;
    table a(S);
    a("line\n\"quoted\"");
  )");
  EXPECT_EQ(p.facts[0].tuple[0], Value("line\n\"quoted\""));
}

TEST(ParserTest, ListLiteralsFoldToConst) {
  Program p = MustParse(R"(
    program test;
    table a(L);
    a([1, 2, "x"]);
  )");
  ASSERT_TRUE(p.facts[0].tuple[0].is_list());
  EXPECT_EQ(p.facts[0].tuple[0].as_list().size(), 3u);
}

TEST(ParserTest, OperatorPrecedence) {
  Program p = MustParse(R"(
    program test;
    table a(X);
    table b(X);
    b(Y) :- a(X), Y := 1 + X * 2;
  )");
  const Expr& e = p.rules[0].body[1].assign.expr;
  ASSERT_EQ(e.fn, "+");
  EXPECT_EQ(e.args[1].fn, "*");
}


TEST(ParserTest, TtlDeclaration) {
  Program p = MustParse(R"(
    program test;
    table lease(Node, T) keys(0) ttl(1500);
    table forever(Node);
  )");
  EXPECT_DOUBLE_EQ(p.tables[0].ttl_ms, 1500.0);
  EXPECT_DOUBLE_EQ(p.tables[1].ttl_ms, 0.0);
}

TEST(ParserTest, TtlNamesConstant) {
  Program p = MustParse(R"(
    program test;
    const lease_ms = 750;
    table lease(Node) keys(0) ttl(lease_ms);
  )");
  EXPECT_DOUBLE_EQ(p.tables[0].ttl_ms, 750.0);
  EXPECT_FALSE(ParseProgram("program t; table x(A) ttl(undeclared_ms);").ok());
  EXPECT_FALSE(ParseProgram("program t; const z = 0; table x(A) ttl(z);").ok());
}

TEST(ParserTest, NonPositiveTtlRejected) {
  EXPECT_FALSE(ParseProgram("program t; table x(A) ttl(0);").ok());
}

TEST(ParserTest, NextHeadParsed) {
  Program p = MustParse(R"(
    program test;
    event go(X);
    table s(X);
    s(X)@next :- go(X);
  )");
  EXPECT_TRUE(p.rules[0].is_next);
  // And it survives a print/reparse round trip.
  Program p2 = MustParse(p.ToString());
  EXPECT_TRUE(p2.rules[0].is_next);
}

TEST(ParserTest, FactWithNextRejected) {
  EXPECT_FALSE(ParseProgram("program t; table a(X); a(1)@next;").ok());
}

TEST(ParserTest, ProgramToStringRoundTrips) {
  const char* src = R"(
    program round;
    table link(From, To);
    table reach(From, To);
    r1 reach(X, Y) :- link(X, Y);
    r2 reach(X, Z) :- link(X, Y), reach(Y, Z), X != Z;
  )";
  Program p1 = MustParse(src);
  Program p2 = MustParse(p1.ToString());
  EXPECT_EQ(p2.rules.size(), p1.rules.size());
  EXPECT_EQ(p2.tables.size(), p1.tables.size());
  EXPECT_EQ(p1.ToString(), p2.ToString());
}

}  // namespace
}  // namespace boom
