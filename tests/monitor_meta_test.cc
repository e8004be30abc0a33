// Monitor metaprogramming helpers: the tracing rewrite (with count rollups), the
// invariant installer and its violation sink, the BOOM-FS invariant rules on induced
// under-replication, and the rule-hog invariant over the engine's published per-rule
// profile (perf_rule / perf_fixpoint queryable from Overlog).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/boomfs/nn_program.h"
#include "src/monitor/meta.h"
#include "src/overlog/engine.h"
#include "src/overlog/module.h"
#include "src/overlog/parser.h"
#include "src/telemetry/metrics.h"

namespace boom {
namespace {

EngineOptions TestEngineOptions() {
  EngineOptions opts;
  opts.address = "n";
  return opts;
}

TEST(MakeTracingProgram, RecordsInsertionsWithCountRollups) {
  const char* src = R"olg(
program pairs;
table y(A, B) keys(0);
y(1, 2);
y(3, 4);
)olg";
  Engine engine(TestEngineOptions());
  ASSERT_TRUE(engine.InstallSource(src).ok());
  Result<Program> parsed = ParseProgram(src);
  ASSERT_TRUE(parsed.ok());
  TracingOptions options;
  options.with_counts = true;
  ASSERT_TRUE(engine.Install(MakeTracingProgram(*parsed, options)).ok());
  engine.Tick(0);

  // trace_y(TraceTime, A, B): one row per inserted fact.
  EXPECT_EQ(engine.catalog().Get("trace_y").size(), 2u);
  // trace_cnt_y(1, count): the rollup sees both.
  std::vector<Tuple> counts = engine.catalog().Get("trace_cnt_y").Rows();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0][1].as_int(), 2);
}

TEST(MakeTracingProgram, TableFilterLimitsRewrite) {
  const char* src = R"olg(
program two;
table a(X) keys(0);
table b(X) keys(0);
a(1);
b(2);
)olg";
  Engine engine(TestEngineOptions());
  ASSERT_TRUE(engine.InstallSource(src).ok());
  Result<Program> parsed = ParseProgram(src);
  ASSERT_TRUE(parsed.ok());
  TracingOptions options;
  options.tables = {"a"};
  ASSERT_TRUE(engine.Install(MakeTracingProgram(*parsed, options)).ok());
  engine.Tick(0);
  EXPECT_EQ(engine.catalog().Get("trace_a").size(), 1u);
  EXPECT_EQ(engine.catalog().Find("trace_b"), nullptr);
}

TEST(InstallInvariants, ViolationsLandInSink) {
  const char* src = R"olg(
program demo;
table x(A) keys(0);
x(1);
x(2);
)olg";
  Engine engine(TestEngineOptions());
  ASSERT_TRUE(engine.InstallSource(src).ok());
  std::vector<std::string> violations;
  ProgramBuilder builder("demo_inv");
  ASSERT_TRUE(builder
                  .AddProgramText(R"olg(
program demo_inv;
extern table x(A) keys(0);
extern table invariant_violation(Name, Detail);
v1 invariant_violation("too_big_x", D) :- x(A), A > 1, D := str_cat("x is ", A);
)olg")
                  .ok());
  Result<Program> inv = builder.Build();
  ASSERT_TRUE(inv.ok()) << inv.status().ToString();
  ASSERT_TRUE(InstallInvariants(engine, *inv, &violations).ok());
  engine.Tick(0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("too_big_x"), std::string::npos);
  EXPECT_NE(violations[0].find("x is 2"), std::string::npos);
}

// A minimal NameNode state slice: one live chunk reported by a single DataNode out of a
// replication factor of 3.
constexpr const char* kUnderReplicatedState = R"olg(
program fakefs;
table file(F, Par, Name, IsDir) keys(0);
table fqpath(Path, F);
table fchunk(ChunkId, FileId) keys(0);
table hb_chunk(Dn, ChunkId);
file(0, 0, "", 1);
fchunk(77, 5);
hb_chunk("dn0", 77);
)olg";

TEST(BoomFsInvariants, UnderReplicationFiresOnlyWhenOptedIn) {
  {
    Engine engine(TestEngineOptions());
    ASSERT_TRUE(engine.InstallSource(kUnderReplicatedState).ok());
    std::vector<std::string> violations;
    ASSERT_TRUE(InstallInvariants(engine, BoomFsInvariantProgram(3), &violations).ok());
    engine.Tick(0);
    EXPECT_TRUE(violations.empty()) << violations[0];
  }
  {
    Engine engine(TestEngineOptions());
    ASSERT_TRUE(engine.InstallSource(kUnderReplicatedState).ok());
    std::vector<std::string> violations;
    ASSERT_TRUE(InstallInvariants(
                    engine,
                    BoomFsInvariantProgram(3, /*include_under_replication=*/true),
                    &violations)
                    .ok());
    engine.Tick(0);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("under_replicated"), std::string::npos);
    EXPECT_NE(violations[0].find("chunk 77 has 1"), std::string::npos);
  }
}

TEST(RuleHogInvariant, FiresOnFatRuleViaPerfTables) {
  const char* src = R"olg(
program hog;
table t(X) keys(0);
table s(X) keys(0);
t(1); t(2); t(3); t(4); t(5); t(6); t(7); t(8);
h1 s(X) :- t(X);
)olg";
  Engine engine(TestEngineOptions());
  ASSERT_TRUE(engine.InstallSource(src).ok());
  ASSERT_TRUE(InstallProfiling(engine).ok());
  ASSERT_TRUE(engine.profiling());
  std::vector<std::string> violations;
  ASSERT_TRUE(InstallInvariants(engine, RuleHogInvariantProgram(5), &violations).ok());

  engine.Tick(0);  // h1 derives 8 tuples in one fixpoint
  ASSERT_TRUE(engine.PublishProfile().ok());
  engine.Tick(1);  // perf_rule rows land; the invariant joins them

  // The profile is queryable from Overlog: the invariant rule fired off perf_rule.
  EXPECT_GT(engine.catalog().Get("perf_rule").size(), 0u);
  EXPECT_GT(engine.catalog().Get("perf_fixpoint").size(), 0u);
  bool found = false;
  for (const std::string& v : violations) {
    if (v.find("rule_hog") != std::string::npos &&
        v.find("hog:h1") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "rule_hog invariant did not fire (violations: "
                     << violations.size() << ")";
}

TEST(RuleHogInvariant, QuietProgramStaysClean) {
  const char* src = R"olg(
program quiet;
table t(X) keys(0);
table s(X) keys(0);
t(1);
h1 s(X) :- t(X);
)olg";
  Engine engine(TestEngineOptions());
  ASSERT_TRUE(engine.InstallSource(src).ok());
  ASSERT_TRUE(InstallProfiling(engine).ok());
  std::vector<std::string> violations;
  ASSERT_TRUE(InstallInvariants(engine, RuleHogInvariantProgram(5), &violations).ok());
  engine.Tick(0);
  ASSERT_TRUE(engine.PublishProfile().ok());
  engine.Tick(1);
  EXPECT_TRUE(violations.empty()) << violations[0];
}

// perf_table carries each table's live row count, and ExportTableMetrics mirrors the
// same per-table stats into the metrics registry without a publish tick.
TEST(PublishProfile, PerfTablePublishesTableStats) {
  Engine engine(TestEngineOptions());
  ASSERT_TRUE(InstallProfiling(engine).ok());
  ASSERT_TRUE(engine
                  .InstallSource(R"(
    program t;
    event probe(U);
    table big(U, N);
    table small(U, S) keys(0);
    table out(U, N, S);
    r1 out(U, N, S) :- probe(U), big(U, N), small(U, S), S == 1;
    watch out;
  )")
                  .ok());
  engine.Tick(0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Enqueue("big", Tuple{Value(i), Value(i)}).ok());
    ASSERT_TRUE(engine.Enqueue("small", Tuple{Value(i), Value(1)}).ok());
    ASSERT_TRUE(engine.Enqueue("probe", Tuple{Value(i)}).ok());
  }
  engine.Tick(1);
  ASSERT_TRUE(engine.PublishProfile().ok());
  engine.Tick(2);
  const Table& perf = engine.catalog().Get("perf_table");
  std::map<std::string, int64_t> rows_of;
  perf.ForEach([&rows_of](const Tuple& t) { rows_of[t[0].as_string()] = t[1].as_int(); });
  EXPECT_EQ(rows_of["big"], 10);
  EXPECT_EQ(rows_of["small"], 10);
  EXPECT_EQ(rows_of["out"], 10);
  EXPECT_EQ(rows_of["probe"], 0);  // events are empty between ticks

  ExportTableMetrics(engine);
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.gauge("engine.table.big.rows").value(), 10.0);
  EXPECT_GE(registry.gauge("engine.table.small.probes").value(), 1.0);
}

TEST(MonitorTest, TracingProgramRecordsInsertions) {
  EngineOptions eopts;
  eopts.address = "n";
  Engine engine(eopts);
  ASSERT_TRUE(engine.InstallSource(R"(
    program app;
    event req(X);
    table kv(K, V) keys(0);
    kv(K, V) :- req(K), V := K * 10;
  )").ok());

  Result<Program> parsed = ParseProgram(R"(
    program app;
    event req(X);
    table kv(K, V) keys(0);
  )");
  ASSERT_TRUE(parsed.ok());
  Program tracing = MakeTracingProgram(*parsed);
  ASSERT_TRUE(engine.Install(tracing).ok()) << "tracing program install failed";

  engine.Tick(0);
  ASSERT_TRUE(engine.Enqueue("req", Tuple{Value(1)}).ok());
  engine.Tick(5);
  ASSERT_TRUE(engine.Enqueue("req", Tuple{Value(2)}).ok());
  engine.Tick(9);

  const Table& trace_kv = engine.catalog().Get("trace_kv");
  EXPECT_EQ(trace_kv.size(), 2u);
  const Table& trace_req = engine.catalog().Get("trace_req");
  EXPECT_EQ(trace_req.size(), 2u);
  // Count rollup.
  const Tuple* cnt = engine.catalog().Get("trace_cnt_kv").LookupByKey(Tuple{Value(1)});
  ASSERT_NE(cnt, nullptr);
  EXPECT_EQ((*cnt)[1], Value(2));
}

TEST(MonitorTest, TracingSelectsRequestedTablesOnly) {
  Result<Program> parsed = ParseProgram(R"(
    program app;
    table a(X);
    table b(X);
  )");
  ASSERT_TRUE(parsed.ok());
  TracingOptions opts;
  opts.tables = {"b"};
  Program tracing = MakeTracingProgram(*parsed, opts);
  std::set<std::string> names;
  for (const TableDef& def : tracing.tables) {
    names.insert(def.name);
  }
  EXPECT_TRUE(names.count("trace_b"));
  EXPECT_FALSE(names.count("trace_a"));
}

TEST(MonitorTest, InvariantViolationDetected) {
  EngineOptions eopts;
  eopts.address = "n";
  Engine engine(eopts);
  // A tiny program with a planted bug: inserting an orphan inode.
  ASSERT_TRUE(engine.InstallSource(R"(
    program fsmini;
    table file(FileId, ParentId, FName, IsDir) keys(0);
    table fqpath(Path, FileId);
    table fchunk(ChunkId, FileId) keys(0);
    table hb_chunk(Dn, ChunkId);
    file(0, -1, "", true);
  )").ok());
  std::vector<std::string> violations;
  ASSERT_TRUE(InstallInvariants(engine, BoomFsInvariantProgram(3), &violations).ok());
  engine.Tick(0);
  EXPECT_TRUE(violations.empty());
  // Orphan: parent 999 does not exist.
  ASSERT_TRUE(engine.Enqueue("file", Tuple{Value(7), Value(999), Value("x"), Value(false)})
                  .ok());
  engine.Tick(1);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("orphan_inode"), std::string::npos);
}

TEST(MonitorTest, CleanBoomFsRaisesNoViolations) {
  EngineOptions eopts;
  eopts.address = "nn";
  Engine engine(eopts);
  ASSERT_TRUE(engine.Install(BoomFsNnProgram()).ok());
  std::vector<std::string> violations;
  ASSERT_TRUE(InstallInvariants(engine, BoomFsInvariantProgram(3), &violations).ok());
  engine.Tick(0);
  // Drive a few namespace ops directly.
  auto request = [&engine](int64_t id, const std::string& cmd, const std::string& path) {
    ASSERT_TRUE(engine
                    .Enqueue("ns_request",
                             Tuple{Value("nn"), Value(id), Value("cl"), Value(cmd),
                                   Value(path), Value()})
                    .ok());
  };
  request(1, "mkdir", "/a");
  engine.Tick(1);
  engine.Tick(1);
  request(2, "mkdir", "/a/b");
  engine.Tick(2);
  engine.Tick(2);
  request(3, "create", "/a/b/f");
  engine.Tick(3);
  engine.Tick(3);
  EXPECT_TRUE(violations.empty()) << violations[0];
  // Sanity: metadata actually exists.
  bool found = false;
  engine.catalog().Get("fqpath").ForEach([&found](const Tuple& row) {
    if (row[0] == Value("/a/b/f")) {
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace boom
