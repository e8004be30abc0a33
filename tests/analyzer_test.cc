// Unit tests for the Overlog static analyzer: one minimal failing program per diagnostic
// code, plus the exemptions (extern declarations, external inputs/outputs, strictness
// toggles) that make the same checks usable both at build time (strict) and install time
// (advisory).

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "src/base/logging.h"
#include "src/overlog/analyzer.h"
#include "src/overlog/engine.h"
#include "src/overlog/parser.h"

namespace boom {
namespace {

Program MustParse(const std::string& source, ParserOptions options = {}) {
  Result<Program> p = ParseProgram(source, options);
  BOOM_CHECK(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

// Count of diagnostics with `code` (any severity).
size_t CountCode(const AnalyzerReport& report, const std::string& code) {
  size_t n = 0;
  for (const Diagnostic& d : report.diagnostics) {
    n += d.code == code ? 1 : 0;
  }
  return n;
}

const Diagnostic* FindCode(const AnalyzerReport& report, const std::string& code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) {
      return &d;
    }
  }
  return nullptr;
}

TEST(AnalyzerTest, CleanProgramPasses) {
  Program p = MustParse(R"(
    program clean;
    table link(A, B);
    table reach(A, B);
    link("x", "y");
    r1 reach(X, Y) :- link(X, Y);
    r2 reach(X, Z) :- link(X, Y), reach(Y, Z);
    watch reach;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.num_errors(), 0u) << report.ToString();
  EXPECT_EQ(report.num_warnings(), 0u) << report.ToString();
  // The recursive join probes reach on its first column, which the (whole-row) key does
  // not cover — the advisory tier points that out without failing anything.
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.ToString();
  EXPECT_EQ(report.num_advisories(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "wants-index");
  EXPECT_EQ(report.diagnostics[0].severity, DiagnosticSeverity::kAdvisory);

  AnalyzerOptions quiet;
  quiet.advisories = false;
  EXPECT_EQ(AnalyzeProgram(p, quiet).diagnostics.size(), 0u);
}

// The parser already hard-errors on in-file duplicates and ProgramBuilder on cross-module
// ones, so this diagnostic fires only for AST-built programs — build one.
TEST(AnalyzerTest, DuplicateRule) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table b(X);
    r1 b(X) :- a(X);
    watch b;
  )");
  p.rules.push_back(p.rules[0]);
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(CountCode(report, "duplicate-rule"), 1u) << report.ToString();
  EXPECT_EQ(FindCode(report, "duplicate-rule")->rule, "r1");
}

TEST(AnalyzerTest, DuplicateTimer) {
  Program p = MustParse(R"(
    program t;
    table seen(X);
    timer tick(100);
    r1 seen(X) :- tick(X);
    watch seen;
  )");
  p.timers.push_back(p.timers[0]);
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(CountCode(report, "duplicate-timer"), 1u) << report.ToString();
}

// A period that never advances the deadline would make Engine::Tick re-fire the timer
// forever; the analyzer flags it and Engine::Install refuses the program.
TEST(AnalyzerTest, BadTimerPeriodLiteralZero) {
  const std::string source = R"(
    program t;
    table seen(X);
    timer tk(0);
    r1 seen(X) :- tk(X);
    watch seen;
  )";
  AnalyzerReport report = AnalyzeProgram(MustParse(source));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(CountCode(report, "bad-timer-period"), 1u) << report.ToString();

  Engine engine(EngineOptions{});
  Status status = engine.InstallSource(source);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("bad-timer-period"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(engine.NextTimerDeadline(), std::numeric_limits<double>::infinity());
}

TEST(AnalyzerTest, BadTimerPeriodNegativeConstant) {
  const std::string source = R"(
    program t;
    table seen(X);
    timer tk(period);
    r1 seen(X) :- tk(X);
    watch seen;
  )";
  ParserOptions options;
  options.consts["period"] = Value(int64_t{-5});
  AnalyzerReport report = AnalyzeProgram(MustParse(source, options));
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCode(report, "bad-timer-period");
  ASSERT_NE(d, nullptr) << report.ToString();
  EXPECT_NE(d->message.find("-5"), std::string::npos) << d->message;

  Engine engine(EngineOptions{});
  EXPECT_FALSE(engine.InstallSource(source, {{"period", Value(int64_t{-5})}}).ok());
  EXPECT_EQ(engine.NextTimerDeadline(), std::numeric_limits<double>::infinity());
}

TEST(AnalyzerTest, RedeclarationConflict) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table sink(X);
    r1 sink(X) :- a(X);
    watch sink;
  )");
  TableDef again;
  again.name = "a";
  again.columns = {"X", "Y"};  // different arity
  p.tables.push_back(again);
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCode(report, "redeclaration-conflict");
  ASSERT_NE(d, nullptr) << report.ToString();
  EXPECT_NE(d->message.find("a"), std::string::npos);
}

TEST(AnalyzerTest, UndeclaredTable) {
  // known_tables lets the parse through; the analyzer (which has no external_tables here)
  // still rejects the reference.
  ParserOptions options;
  options.known_tables = {"mystery"};
  Program p = MustParse(R"(
    program t;
    table sink(X);
    r1 sink(X) :- mystery(X);
    watch sink;
  )",
                        options);
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(CountCode(report, "undeclared-table"), 1u) << report.ToString();

  // The same program is clean when `mystery` is declared external (another program on the
  // engine owns it) — arity goes unchecked because the schema is unknown here.
  AnalyzerOptions aopts;
  aopts.external_tables = {"mystery"};
  EXPECT_TRUE(AnalyzeProgram(p, aopts).ok());
}

TEST(AnalyzerTest, ArityMismatch) {
  Program p = MustParse(R"(
    program t;
    table pair(A, B);
    table sink(X);
    r1 sink(X) :- pair(X);
    watch sink;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCode(report, "arity-mismatch");
  ASSERT_NE(d, nullptr) << report.ToString();
  EXPECT_EQ(d->rule, "r1");
}

TEST(AnalyzerTest, ArityMismatchInFact) {
  Program p = MustParse(R"(
    program t;
    table pair(A, B);
    watch pair;
  )");
  Fact fact;
  fact.table = "pair";
  fact.tuple = Tuple{Value(1)};
  p.facts.push_back(fact);
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(CountCode(report, "arity-mismatch"), 1u) << report.ToString();
}

TEST(AnalyzerTest, UnboundHeadVar) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table sink(X, Y);
    r1 sink(X, Orphan) :- a(X);
    watch sink;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  const Diagnostic* d = FindCode(report, "unbound-head-var");
  ASSERT_NE(d, nullptr) << report.ToString();
  EXPECT_NE(d->message.find("Orphan"), std::string::npos);
}

TEST(AnalyzerTest, UnsafeNegation) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table b(X);
    table sink(X);
    r1 sink(X) :- a(X), notin b(Unbound);
    watch sink;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(CountCode(report, "unsafe-negation"), 1u) << report.ToString();

  // Wildcards in negation are fine ("no row with this first column at all").
  Program ok = MustParse(R"(
    program t;
    table a(X);
    table b(X);
    table sink(X);
    r1 sink(X) :- a(X), notin b(_);
    watch sink;
  )");
  EXPECT_TRUE(AnalyzeProgram(ok).ok());
}

TEST(AnalyzerTest, UnboundCondition) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table sink(X);
    r1 sink(X) :- a(X), Nothing > 3;
    watch sink;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(CountCode(report, "unbound-condition"), 1u) << report.ToString();
}

TEST(AnalyzerTest, UnboundAssignmentInput) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table sink(X, Y);
    r1 sink(X, Y) :- a(X), Y := Missing + 1;
    watch sink;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  // The assignment never becomes schedulable and its target never binds the head.
  EXPECT_GE(CountCode(report, "unbound-condition"), 1u) << report.ToString();
}

TEST(AnalyzerTest, Unstratifiable) {
  Program p = MustParse(R"(
    program t;
    table q(X);
    table p(X);
    r1 p(X) :- q(X), notin p(X);
    watch p;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(CountCode(report, "unstratifiable"), 1u) << report.ToString();

  // The same recursion through @next defers to the tick boundary and is legal — this is
  // exactly how the NameNode's state-update rules are written.
  Program deferred = MustParse(R"(
    program t;
    table q(X);
    table p(X);
    r1 p(X)@next :- q(X), notin p(X);
    watch p;
  )");
  EXPECT_TRUE(AnalyzeProgram(deferred).ok());
}

TEST(AnalyzerTest, NoProducerStrictVsLax) {
  Program p = MustParse(R"(
    program t;
    event ping(Addr);
    table seen(Addr);
    r1 seen(A) :- ping(A);
    watch seen;
  )");
  AnalyzerReport strict = AnalyzeProgram(p);
  EXPECT_FALSE(strict.ok());
  ASSERT_EQ(CountCode(strict, "no-producer"), 1u) << strict.ToString();
  EXPECT_EQ(FindCode(strict, "no-producer")->severity, DiagnosticSeverity::kError);

  // The engine analyzes with strict_events off: the host may Enqueue the event from C++.
  AnalyzerOptions lax;
  lax.strict_events = false;
  AnalyzerReport advisory = AnalyzeProgram(p, lax);
  EXPECT_TRUE(advisory.ok());
  ASSERT_EQ(CountCode(advisory, "no-producer"), 1u);
  EXPECT_EQ(FindCode(advisory, "no-producer")->severity, DiagnosticSeverity::kWarning);

  // Declaring the host coupling removes the diagnostic entirely.
  AnalyzerOptions declared;
  declared.external_inputs = {"ping"};
  EXPECT_EQ(AnalyzeProgram(p, declared).diagnostics.size(), 0u);
}

TEST(AnalyzerTest, ExternEventSatisfiesProducerCheck) {
  Program p = MustParse(R"(
    program t;
    extern event ping(Addr);
    table seen(Addr);
    r1 seen(A) :- ping(A);
    watch seen;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.diagnostics.size(), 0u) << report.ToString();
}

TEST(AnalyzerTest, TimerAndFactAreProducers) {
  Program p = MustParse(R"(
    program t;
    table seen(X);
    event nudge(X);
    nudge(1);
    timer tick(100);
    r1 seen(X) :- tick(X);
    r2 seen(X) :- nudge(X);
    watch seen;
  )");
  EXPECT_TRUE(AnalyzeProgram(p).ok());
}

TEST(AnalyzerTest, UnreadTableWarning) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table dead_end(X);
    a(1);
    r1 dead_end(X) :- a(X);
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_TRUE(report.ok());  // warnings don't fail the build
  ASSERT_EQ(CountCode(report, "unread-table"), 1u) << report.ToString();
  EXPECT_NE(FindCode(report, "unread-table")->message.find("dead_end"), std::string::npos);

  // Silenced by: a watch, a declared external output, or turning the warning tier off.
  Program watched = p;
  watched.watches.push_back("dead_end");
  EXPECT_EQ(AnalyzeProgram(watched).diagnostics.size(), 0u);

  AnalyzerOptions host_read;
  host_read.external_outputs = {"dead_end"};
  EXPECT_EQ(AnalyzeProgram(p, host_read).diagnostics.size(), 0u);

  AnalyzerOptions quiet;
  quiet.warn_unread = false;
  EXPECT_EQ(AnalyzeProgram(p, quiet).diagnostics.size(), 0u);
}

TEST(AnalyzerTest, SendToLocationCountsAsRead) {
  // A head with an @location is a protocol output; the reader is the remote node. The
  // identical rule without the location marker is a genuine dead end.
  const char* kTemplate = R"(
    program t;
    table peer(Addr);
    event report(Addr, X);
    table a(X);
    a(1);
    peer("other");
    r1 report(%sP, X) :- peer(P), a(X);
  )";
  char sent[512];
  char local[512];
  std::snprintf(sent, sizeof(sent), kTemplate, "@");
  std::snprintf(local, sizeof(local), kTemplate, "");
  AnalyzerReport report = AnalyzeProgram(MustParse(sent));
  EXPECT_EQ(CountCode(report, "unread-table"), 0u) << report.ToString();
  AnalyzerReport dead = AnalyzeProgram(MustParse(local));
  EXPECT_EQ(CountCode(dead, "unread-table"), 1u) << dead.ToString();
}

TEST(AnalyzerTest, ReportFormatting) {
  Program p = MustParse(R"(
    program fmt;
    table a(X);
    table sink(X, Y);
    r1 sink(X, Orphan) :- a(X);
    watch sink;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  ASSERT_EQ(report.num_errors(), 1u);
  const Diagnostic& d = report.diagnostics[0];
  std::string line = d.ToString();
  EXPECT_EQ(line.rfind("error[unbound-head-var] fmt:r1", 0), 0u) << line;
  EXPECT_NE(line.find("(line "), std::string::npos) << line;
  EXPECT_NE(report.ToString().find(line), std::string::npos);
}

TEST(AnalyzerTest, ErrorsSortBeforeWarnings) {
  Program p = MustParse(R"(
    program t;
    table a(X);
    table dead_end(X);
    table sink(X, Y);
    a(1);
    r0 dead_end(X) :- a(X);
    r1 sink(X, Orphan) :- a(X);
    watch sink;
  )");
  AnalyzerReport report = AnalyzeProgram(p);
  ASSERT_GE(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics.front().severity, DiagnosticSeverity::kError);
  EXPECT_EQ(report.diagnostics.back().severity, DiagnosticSeverity::kWarning);
}

TEST(AnalyzerTest, WantsIndexAdvisory) {
  Program p = MustParse(R"(
    program t;
    table chunk(ChunkId, Node) keys(0);
    event probe(Node);
    table sink(ChunkId);
    r1 sink(C) :- probe(N), chunk(C, N);
    watch sink;
  )");
  AnalyzerOptions lax;
  lax.strict_events = false;
  AnalyzerReport report = AnalyzeProgram(p, lax);
  EXPECT_TRUE(report.ok()) << report.ToString();
  const Diagnostic* d = FindCode(report, "wants-index");
  ASSERT_NE(d, nullptr) << report.ToString();
  EXPECT_EQ(d->severity, DiagnosticSeverity::kAdvisory);
  EXPECT_EQ(d->rule, "r1");
  EXPECT_NE(d->message.find("chunk(_,N)"), std::string::npos) << d->message;
  EXPECT_EQ(d->ToString().rfind("advisory[wants-index]", 0), 0u) << d->ToString();

  // A key-shaped probe needs no secondary index: same join, keyed on the probed column.
  Program keyed = MustParse(R"(
    program t;
    table chunk(ChunkId, Node) keys(1);
    event probe(Node);
    table sink(ChunkId);
    r1 sink(C) :- probe(N), chunk(C, N);
    watch sink;
  )");
  EXPECT_EQ(CountCode(AnalyzeProgram(keyed, lax), "wants-index"), 0u);
}

TEST(AnalyzerTest, AllProblemsReportedAtOnce) {
  ParserOptions options;
  options.known_tables = {"ghost"};
  Program p = MustParse(R"(
    program t;
    table a(X);
    table sink(X, Y);
    event orphan_evt(X);
    r1 sink(X, Nope) :- a(X);
    r2 sink(X, Y) :- ghost(X), Y := X;
    r3 sink(X, Y) :- a(X), Y := Gone + 1;
    watch sink;
  )",
                        options);
  AnalyzerReport report = AnalyzeProgram(p);
  EXPECT_GE(report.num_errors(), 3u) << report.ToString();
  EXPECT_EQ(CountCode(report, "unbound-head-var") > 0, true);
  EXPECT_EQ(CountCode(report, "undeclared-table") > 0, true);
  EXPECT_EQ(CountCode(report, "no-producer") > 0, true);
}

}  // namespace
}  // namespace boom
