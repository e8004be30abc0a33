#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/overlog/engine.h"

namespace boom {
namespace {

EngineOptions MakeEngine(const std::string& addr = "node0") {
  EngineOptions opts;
  opts.address = addr;
  opts.seed = 7;
  return opts;
}

std::set<Tuple> RowSet(const Engine& e, const std::string& table) {
  const Table* t = e.catalog().Find(table);
  EXPECT_NE(t, nullptr);
  std::set<Tuple> out;
  t->ForEach([&out](const Tuple& row) { out.insert(row); });
  return out;
}

// The reference every aggregate head must match at a quiescent tick: each aggregate rule
// evaluated from scratch over the engine's current tables (Evaluator::EvalAggregate).
void ExpectAggregatesMatchRecompute(Engine& e, const std::string& when) {
  EvalContext ctx;
  ctx.now_ms = e.now();
  ctx.local_address = e.address();
  Evaluator reference(&e.catalog(), &e.builtins(), &ctx);
  for (const CompiledRule& rule : e.compiled().rules) {
    if (!rule.has_agg) {
      continue;
    }
    std::vector<Tuple> rows;
    reference.EvalAggregate(rule, &rows);
    EXPECT_EQ(RowSet(e, rule.head_table), std::set<Tuple>(rows.begin(), rows.end()))
        << when << ": rule " << rule.name;
  }
  EXPECT_TRUE(reference.errors().empty()) << when;
}

TEST(EngineTest, FactsAndSeedDerivation) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table a(X);
    table b(X);
    a(1); a(2);
    b(X) :- a(X);
  )").ok());
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "b"), (std::set<Tuple>{Tuple{Value(1)}, Tuple{Value(2)}}));
}

TEST(EngineTest, TransitiveClosure) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program tc;
    table link(X, Y);
    table reach(X, Y);
    link(1, 2); link(2, 3); link(3, 4);
    r1 reach(X, Y) :- link(X, Y);
    r2 reach(X, Z) :- link(X, Y), reach(Y, Z);
  )").ok());
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "reach").size(), 6u);  // all ordered pairs along the chain
  EXPECT_TRUE(RowSet(e, "reach").count(Tuple{Value(1), Value(4)}) > 0);
}

TEST(EngineTest, IncrementalDeltasAcrossTicks) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program tc;
    table link(X, Y);
    table reach(X, Y);
    r1 reach(X, Y) :- link(X, Y);
    r2 reach(X, Z) :- link(X, Y), reach(Y, Z);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("link", Tuple{Value(1), Value(2)}).ok());
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "reach").size(), 1u);
  ASSERT_TRUE(e.Enqueue("link", Tuple{Value(2), Value(3)}).ok());
  e.Tick(2);
  // New link must join against previously derived reach: 1->2, 2->3, 1->3.
  EXPECT_EQ(RowSet(e, "reach").size(), 3u);
}

TEST(EngineTest, NegationStratified) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table a(X);
    table b(X);
    table onlya(X);
    a(1); a(2); b(2);
    onlya(X) :- a(X), notin b(X);
  )").ok());
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "onlya"), (std::set<Tuple>{Tuple{Value(1)}}));
}

TEST(EngineTest, CountAggregate) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table chunk(C, F);
    table cnt(F, N) keys(0);
    chunk(10, 1); chunk(11, 1); chunk(12, 2);
    cnt(F, count<C>) :- chunk(C, F);
  )").ok());
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "cnt"),
            (std::set<Tuple>{Tuple{Value(1), Value(2)}, Tuple{Value(2), Value(1)}}));
}

TEST(EngineTest, AggregateUpdatesWhenInputsChange) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table chunk(C, F);
    table cnt(F, N) keys(0);
    cnt(F, count<C>) :- chunk(C, F);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("chunk", Tuple{Value(10), Value(1)}).ok());
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "cnt"), (std::set<Tuple>{Tuple{Value(1), Value(1)}}));
  ASSERT_TRUE(e.Enqueue("chunk", Tuple{Value(11), Value(1)}).ok());
  e.Tick(2);
  EXPECT_EQ(RowSet(e, "cnt"), (std::set<Tuple>{Tuple{Value(1), Value(2)}}));
}

TEST(EngineTest, MinMaxSumAvg) {
  Engine e2(MakeEngine());
  ASSERT_TRUE(e2.InstallSource(R"(
    program t;
    table load(Dn, L);
    table stats(K, Mn, Mx, Sm, Av) keys(0);
    load("d1", 4); load("d2", 2); load("d3", 6);
    stats(1, min<L>, max<L>, sum<L>, avg<L>) :- load(Dn, L);
  )").ok());
  e2.Tick(0);
  std::set<Tuple> rows = RowSet(e2, "stats");
  ASSERT_EQ(rows.size(), 1u);
  const Tuple& row = *rows.begin();
  EXPECT_EQ(row[1], Value(2));
  EXPECT_EQ(row[2], Value(6));
  EXPECT_EQ(row[3], Value(12));
  EXPECT_EQ(row[4], Value(4.0));
}

TEST(EngineTest, BottomKPicksSmallestPairs) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table load(Dn, L);
    table best(K, List) keys(0);
    load("d1", 5); load("d2", 1); load("d3", 3); load("d4", 9);
    best(1, bottomk<2, Pair>) :- load(Dn, L), Pair := [L, Dn];
  )").ok());
  e.Tick(0);
  std::set<Tuple> rows = RowSet(e, "best");
  ASSERT_EQ(rows.size(), 1u);
  const Value& list = (*rows.begin())[1];
  ASSERT_TRUE(list.is_list());
  ASSERT_EQ(list.as_list().size(), 2u);
  EXPECT_EQ(list.as_list()[0].as_list()[1], Value("d2"));
  EXPECT_EQ(list.as_list()[1].as_list()[1], Value("d3"));
}

TEST(EngineTest, DeleteRuleRemovesAtTickEnd) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table file(F);
    event rm(F);
    file(1); file(2);
    delete file(F) :- rm(F), file(F);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("rm", Tuple{Value(1)}).ok());
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "file"), (std::set<Tuple>{Tuple{Value(2)}}));
}

TEST(EngineTest, EventsClearedAfterTick) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event req(X);
    table log(X);
    log(X) :- req(X);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("req", Tuple{Value(5)}).ok());
  e.Tick(1);
  EXPECT_EQ(e.catalog().Get("req").size(), 0u);
  EXPECT_EQ(RowSet(e, "log"), (std::set<Tuple>{Tuple{Value(5)}}));
  // The event must not re-fire on later ticks.
  e.Tick(2);
  EXPECT_EQ(RowSet(e, "log").size(), 1u);
}

TEST(EngineTest, EventChainingWithinTick) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event a(X);
    event b(X);
    table out(X);
    b(X + 1) :- a(X);
    out(X) :- b(X);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("a", Tuple{Value(1)}).ok());
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "out"), (std::set<Tuple>{Tuple{Value(2)}}));
}

TEST(EngineTest, RemoteDerivationGoesToOutbox) {
  Engine e(MakeEngine("n1"));
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event ping(Addr, From);
    event pong(Addr, From);
    pong(@From, Me) :- ping(@Me, From);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("ping", Tuple{Value("n1"), Value("n2")}).ok());
  Engine::TickResult r = e.Tick(1);
  ASSERT_EQ(r.sends.size(), 1u);
  EXPECT_EQ(r.sends[0].dest, "n2");
  EXPECT_EQ(r.sends[0].table, "pong");
  EXPECT_EQ(r.sends[0].tuple, (Tuple{Value("n2"), Value("n1")}));
}

TEST(EngineTest, LocalDestinationStaysLocal) {
  Engine e(MakeEngine("n1"));
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event ping(Addr, From);
    table got(Addr, From);
    got(@Me, From) :- ping(@Me, From);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("ping", Tuple{Value("n1"), Value("n2")}).ok());
  Engine::TickResult r = e.Tick(1);
  EXPECT_TRUE(r.sends.empty());
  EXPECT_EQ(RowSet(e, "got").size(), 1u);
}

TEST(EngineTest, TimerFiresPeriodically) {
  Engine e(MakeEngine("n1"));
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    timer tick(100);
    table count(K, N) keys(0);
    table fired(T) keys(0);
    fired(T) :- tick(N), T := f_now();
  )").ok());
  EXPECT_DOUBLE_EQ(e.NextTimerDeadline(), 100.0);
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "fired").size(), 0u);
  e.Tick(100);
  EXPECT_EQ(RowSet(e, "fired").size(), 1u);
  e.Tick(350);  // catches up: fires at 200 and 300 (both apply at this tick)
  std::set<Tuple> rows = RowSet(e, "fired");
  EXPECT_TRUE(rows.count(Tuple{Value(350.0)}) > 0);
}

TEST(EngineTest, WatchCallbackFires) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table a(X);
    table b(X);
    b(X * 10) :- a(X);
  )").ok());
  std::vector<Tuple> seen;
  e.AddWatch("b", [&seen](const std::string&, const Tuple& t, bool inserted) {
    if (inserted) {
      seen.push_back(t);
    }
  });
  ASSERT_TRUE(e.Enqueue("a", Tuple{Value(3)}).ok());
  e.Tick(0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (Tuple{Value(30)}));
}

TEST(EngineTest, PrimaryKeyUpdateThroughRules) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event set(K, V);
    table kv(K, V) keys(0);
    kv(K, V) :- set(K, V);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("set", Tuple{Value(1), Value("a")}).ok());
  e.Tick(1);
  ASSERT_TRUE(e.Enqueue("set", Tuple{Value(1), Value("b")}).ok());
  e.Tick(2);
  EXPECT_EQ(RowSet(e, "kv"), (std::set<Tuple>{Tuple{Value(1), Value("b")}}));
}

TEST(EngineTest, RecursivePathConstruction) {
  // The BOOM-FS fqpath idiom: recursive path construction from parent pointers.
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program fs;
    table file(FileId, ParentId, Name, IsDir) keys(0);
    table fqpath(Path, FileId);
    file(0, -1, "", true);
    file(1, 0, "usr", true);
    file(2, 1, "data", true);
    file(3, 2, "f.txt", false);
    fqpath("/", 0) :- file(0, -1, _, _);
    fqpath(P, F) :- file(F, Par, Name, _), F != 0, fqpath(PPath, Par),
                    P := path_join(PPath, Name);
  )").ok());
  e.Tick(0);
  std::set<Tuple> rows = RowSet(e, "fqpath");
  EXPECT_TRUE(rows.count(Tuple{Value("/"), Value(0)}) > 0);
  EXPECT_TRUE(rows.count(Tuple{Value("/usr"), Value(1)}) > 0);
  EXPECT_TRUE(rows.count(Tuple{Value("/usr/data/f.txt"), Value(3)}) > 0);
}

TEST(EngineTest, RuntimeErrorDropsBindingAndReports) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table a(X);
    table out(Y);
    a(0); a(2);
    out(Y) :- a(X), Y := 10 / X;
  )").ok());
  Engine::TickResult r = e.Tick(0);
  EXPECT_FALSE(r.errors.empty());
  EXPECT_EQ(RowSet(e, "out"), (std::set<Tuple>{Tuple{Value(5)}}));
}

TEST(EngineTest, EnqueueValidatesTableAndArity) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource("program t; table a(X, Y);").ok());
  EXPECT_FALSE(e.Enqueue("nope", Tuple{Value(1)}).ok());
  EXPECT_FALSE(e.Enqueue("a", Tuple{Value(1)}).ok());
  EXPECT_TRUE(e.Enqueue("a", Tuple{Value(1), Value(2)}).ok());
}

TEST(EngineTest, MultipleProgramsShareTables) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program p1;
    table shared(X);
    shared(1);
  )").ok());
  ASSERT_TRUE(e.InstallSource(R"(
    program p2;
    table derived(X);
    derived(X + 1) :- shared(X);
  )").ok());
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "derived"), (std::set<Tuple>{Tuple{Value(2)}}));
}

TEST(EngineTest, InstallErrorRollsBack) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource("program p1; table a(X);").ok());
  // Unsafe rule: must fail and leave the engine usable.
  EXPECT_FALSE(e.InstallSource("program p2; table b(X, Y); b(X, Y) :- a(X);").ok());
  ASSERT_TRUE(e.Enqueue("a", Tuple{Value(1)}).ok());
  Engine::TickResult r = e.Tick(0);
  EXPECT_TRUE(r.errors.empty());
}

TEST(EngineTest, SelfJoinsWork) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table edge(X, Y);
    table triangle(A, B, C);
    edge(1, 2); edge(2, 3); edge(3, 1);
    triangle(A, B, C) :- edge(A, B), edge(B, C), edge(C, A);
  )").ok());
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "triangle").size(), 3u);  // three rotations
}

TEST(EngineTest, FMeBuiltin) {
  Engine e(MakeEngine("node42"));
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event go(X);
    table me(Addr);
    me(A) :- go(_), A := f_me();
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("go", Tuple{Value(1)}).ok());
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "me"), (std::set<Tuple>{Tuple{Value("node42")}}));
}


TEST(EngineTest, NextRuleDefersOneTimestep) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event go(X);
    table stored(X);
    stored(X)@next :- go(X);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("go", Tuple{Value(1)}).ok());
  e.Tick(1);
  // Not yet visible: the derivation applies at the next timestep.
  EXPECT_EQ(RowSet(e, "stored").size(), 0u);
  EXPECT_TRUE(e.HasQueuedInput());
  e.Tick(1);  // same virtual time, next logical timestep
  EXPECT_EQ(RowSet(e, "stored"), (std::set<Tuple>{Tuple{Value(1)}}));
}

TEST(EngineTest, NextEnablesStateUpdateThroughNegation) {
  // Register key K only if not already registered -- unstratifiable without @next.
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    event reg(K, V);
    table kv(K, V) keys(0);
    event accepted(K, V);
    event rejected(K);
    accepted(K, V) :- reg(K, V), notin kv(K, _);
    rejected(K) :- reg(K, _), kv(K, _);
    kv(K, V)@next :- accepted(K, V);
  )").ok());
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("reg", Tuple{Value(1), Value("a")}).ok());
  e.Tick(1);
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "kv"), (std::set<Tuple>{Tuple{Value(1), Value("a")}}));
  // Second registration of the same key is rejected.
  std::vector<Tuple> rejections;
  e.AddWatch("rejected", [&rejections](const std::string&, const Tuple& t, bool ins) {
    if (ins) rejections.push_back(t);
  });
  ASSERT_TRUE(e.Enqueue("reg", Tuple{Value(1), Value("b")}).ok());
  e.Tick(2);
  EXPECT_EQ(RowSet(e, "kv"), (std::set<Tuple>{Tuple{Value(1), Value("a")}}));
  ASSERT_EQ(rejections.size(), 1u);
}

TEST(EngineTest, UniqueIdsAreFreshAndNodeScoped) {
  Engine e1(MakeEngine("n1"));
  Engine e2(MakeEngine("n2"));
  const char* src = R"(
    program t;
    event go(X);
    table ids(Id);
    ids(Id) :- go(_), Id := f_unique_id();
  )";
  ASSERT_TRUE(e1.InstallSource(src).ok());
  ASSERT_TRUE(e2.InstallSource(src).ok());
  e1.Tick(0);
  e2.Tick(0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(e1.Enqueue("go", Tuple{Value(i)}).ok());
    ASSERT_TRUE(e2.Enqueue("go", Tuple{Value(i)}).ok());
    e1.Tick(i + 1);
    e2.Tick(i + 1);
  }
  std::set<Tuple> ids1 = RowSet(e1, "ids");
  std::set<Tuple> ids2 = RowSet(e2, "ids");
  EXPECT_EQ(ids1.size(), 5u);
  EXPECT_EQ(ids2.size(), 5u);
  for (const Tuple& t : ids1) {
    EXPECT_EQ(ids2.count(t), 0u) << "id collision across nodes";
  }
}


TEST(EngineTest, TtlTablesExpireUnlessRefreshed) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table lease(Node, Info) keys(0) ttl(1000);
  )").ok());
  std::vector<Tuple> expirations;
  e.AddWatch("lease", [&expirations](const std::string&, const Tuple& t, bool inserted) {
    if (!inserted) {
      expirations.push_back(t);
    }
  });
  e.Tick(0);
  ASSERT_TRUE(e.Enqueue("lease", Tuple{Value("n1"), Value("a")}).ok());
  ASSERT_TRUE(e.Enqueue("lease", Tuple{Value("n2"), Value("b")}).ok());
  e.Tick(100);
  EXPECT_EQ(e.catalog().Get("lease").size(), 2u);
  // Refresh only n1 before the ttl elapses.
  ASSERT_TRUE(e.Enqueue("lease", Tuple{Value("n1"), Value("a")}).ok());
  e.Tick(900);
  // At t=1200 n2's lease (stamped 100) is past ttl; n1 (refreshed at 900) survives.
  e.Tick(1200);
  EXPECT_EQ(e.catalog().Get("lease").size(), 1u);
  EXPECT_NE(e.catalog().Get("lease").LookupByKey(Tuple{Value("n1")}), nullptr);
  ASSERT_EQ(expirations.size(), 1u);
  EXPECT_EQ(expirations[0][0], Value("n2"));
  // And n1 expires once its refresh lapses.
  e.Tick(2000);
  EXPECT_EQ(e.catalog().Get("lease").size(), 0u);
}

TEST(EngineTest, TtlRoundTripsThroughToString) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program t;
    table lease(Node) keys(0) ttl(500);
  )").ok());
  const std::string text = e.programs()[0].ToString();
  EXPECT_NE(text.find("ttl(500"), std::string::npos);
  Engine e2(MakeEngine("other"));
  EXPECT_TRUE(e2.InstallSource(text).ok());
  EXPECT_DOUBLE_EQ(e2.catalog().Get("lease").def().ttl_ms, 500.0);
}

TEST(EngineTest, TtlOnEventRejected) {
  Engine e(MakeEngine());
  EXPECT_FALSE(e.InstallSource("program t; event x(A) ttl(100);").ok());
}

TEST(EngineTest, SeedTickCountsInboxRowsOnce) {
  // A row applied from the inbox on the seed tick is stored and already a delta; the seed
  // replay must not queue it a second time, or the ± count folds it twice.
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program counts;
    table a(K, V);
    table ca(K, N) keys(0);
    a1 ca(K, count<V>) :- a(K, V);
  )").ok());
  ASSERT_TRUE(e.Enqueue("a", Tuple{Value(1), Value(10)}).ok());
  e.Tick(0);
  EXPECT_EQ(RowSet(e, "ca"), (std::set<Tuple>{Tuple{Value(1), Value(1)}}));
  ExpectAggregatesMatchRecompute(e, "seed tick");
  ASSERT_TRUE(e.Enqueue("a", Tuple{Value(1), Value(20)}).ok());
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "ca"), (std::set<Tuple>{Tuple{Value(1), Value(2)}}));
  ExpectAggregatesMatchRecompute(e, "next tick");
}

// Each removal kind below runs against a ± rule (one atom: the body table's rows are added
// and subtracted) and an rr1-shaped join (the affected groups are recomputed with their key
// bound). After every quiescent tick each head must equal a from-scratch evaluation.
struct RemovalHarness {
  // Installs `body` after a `fchunk` table holding chunks 1-3, the join partner.
  void Install(const std::string& body) {
    ASSERT_TRUE(
        engine.InstallSource("program removals; table fchunk(Ch, F) keys(0);\n" + body).ok());
    for (int ch = 1; ch <= 3; ++ch) {
      ASSERT_TRUE(engine.Enqueue("fchunk", Tuple{Value(ch), Value(100)}).ok());
    }
  }
  void Enqueue(const std::string& table, std::vector<Value> vals) {
    ASSERT_TRUE(engine.Enqueue(table, Tuple(std::move(vals))).ok());
  }
  // One tick with the queued input, then a quiescent one.
  void Step(const std::string& when) {
    Engine::TickResult r = engine.Tick(now);
    EXPECT_TRUE(r.errors.empty()) << when;
    r = engine.Tick(now + 1);
    EXPECT_TRUE(r.errors.empty()) << when;
    now += 10;
    ExpectAggregatesMatchRecompute(engine, when);
  }

  Engine engine{MakeEngine()};
  double now = 0;
};

TEST(EngineTest, AggregateRemovalByDeleteRule) {
  RemovalHarness h;
  h.Install(R"(
    table hb(Dn, Ch);
    table cnt(Ch, N) keys(0);
    table rep(Ch, N) keys(0);
    event drop(Dn, Ch);
    s1 cnt(Ch, count<Dn>) :- hb(Dn, Ch);
    j1 rep(Ch, count<Dn>) :- fchunk(Ch, _), hb(Dn, Ch);
    d1 delete hb(Dn, Ch) :- drop(Dn, Ch), hb(Dn, Ch);
  )");
  for (const char* dn : {"a", "b", "c"}) {
    h.Enqueue("hb", {Value(dn), Value(1)});
    h.Enqueue("hb", {Value(dn), Value(2)});
  }
  h.Step("inserts");
  EXPECT_EQ(RowSet(h.engine, "rep").count(Tuple{Value(1), Value(3)}), 1u);
  h.Enqueue("drop", {Value("a"), Value(1)});
  h.Enqueue("drop", {Value("b"), Value(1)});
  h.Step("two deletes");
  EXPECT_EQ(RowSet(h.engine, "rep").count(Tuple{Value(1), Value(1)}), 1u);
  h.Enqueue("drop", {Value("c"), Value(1)});
  h.Step("group emptied");
  EXPECT_EQ(h.engine.catalog().Get("cnt").LookupByKey(Tuple{Value(1)}), nullptr);
  EXPECT_EQ(h.engine.catalog().Get("rep").LookupByKey(Tuple{Value(1)}), nullptr);
  h.Enqueue("hb", {Value("a"), Value(1)});
  h.Step("group back");
}

TEST(EngineTest, AggregateRemovalByKeyReplacement) {
  RemovalHarness h;
  h.Install(R"(
    table loc(Dn, Ch, Status) keys(0, 1);
    table cnt(Ch, N) keys(0);
    table total(Ch, S) keys(0);
    table rep(Ch, N) keys(0);
    s1 cnt(Ch, count<Dn>) :- loc(Dn, Ch, "ok");
    s2 total(Ch, sum<Status>) :- loc(_, Ch, Status);
    j1 rep(Ch, count<Dn>) :- fchunk(Ch, _), loc(Dn, Ch, "ok");
  )");
  h.Enqueue("loc", {Value("a"), Value(1), Value("ok")});
  h.Enqueue("loc", {Value("b"), Value(1), Value("ok")});
  h.Enqueue("loc", {Value("c"), Value(2), Value(5)});
  h.Step("inserts");
  // Replace a row in place, twice within one tick, and back again in the next.
  h.Enqueue("loc", {Value("a"), Value(1), Value("bad")});
  h.Enqueue("loc", {Value("c"), Value(2), Value(7)});
  h.Enqueue("loc", {Value("c"), Value(2), Value(9)});
  h.Step("replacements");
  EXPECT_EQ(RowSet(h.engine, "cnt").count(Tuple{Value(1), Value(1)}), 1u);
  EXPECT_EQ(RowSet(h.engine, "total").count(Tuple{Value(2), Value(9)}), 1u);
  h.Enqueue("loc", {Value("a"), Value(1), Value("ok")});
  h.Enqueue("loc", {Value("b"), Value(1), Value("bad")});
  h.Step("swap back");
}

TEST(EngineTest, AggregateRemovalByTtlExpiry) {
  RemovalHarness h;
  h.Install(R"(
    table lease(Dn, Ch) ttl(50);
    table cnt(Ch, N) keys(0);
    table rep(Ch, N) keys(0);
    s1 cnt(Ch, count<Dn>) :- lease(Dn, Ch);
    j1 rep(Ch, count<Dn>) :- fchunk(Ch, _), lease(Dn, Ch);
  )");
  h.Enqueue("lease", {Value("a"), Value(1)});
  h.Enqueue("lease", {Value("b"), Value(1)});
  h.Step("inserts at 0");
  h.Enqueue("lease", {Value("a"), Value(1)});  // refresh a only
  h.Enqueue("lease", {Value("c"), Value(2)});
  h.Step("refresh at 10");
  h.Step("b expires at 20..70");
  h.Step("idle");
  h.Step("idle");
  h.Step("idle");
  h.Step("everything expired");
  EXPECT_TRUE(RowSet(h.engine, "cnt").empty());
  EXPECT_TRUE(RowSet(h.engine, "rep").empty());
}

TEST(EngineTest, AggregateRemovalByEventClear) {
  RemovalHarness h;
  h.Install(R"(
    event report(Dn, Ch);
    table dead(Dn);
    table cnt(Ch, N) keys(0);
    table rep(Ch, N) keys(0);
    table live(Ch, N) keys(0);
    s1 cnt(Ch, count<Dn>) :- report(Dn, Ch);
    j1 rep(Ch, count<Dn>) :- fchunk(Ch, _), report(Dn, Ch);
    n1 live(Ch, count<Dn>) :- fchunk(Ch, _), dead(Dn), notin report(Dn, Ch);
  )");
  h.Enqueue("dead", {Value("x")});
  h.Enqueue("report", {Value("a"), Value(1)});
  h.Enqueue("report", {Value("x"), Value(1)});
  h.Step("one tick of reports");
  EXPECT_TRUE(RowSet(h.engine, "cnt").empty());
  h.Enqueue("report", {Value("x"), Value(2)});
  ASSERT_TRUE(h.engine.Tick(h.now).errors.empty());
  EXPECT_EQ(RowSet(h.engine, "cnt"), (std::set<Tuple>{Tuple{Value(2), Value(1)}}));
  h.now += 10;
  h.Step("cleared");
}

TEST(EngineTest, AggregateRemovalByLowerRetraction) {
  RemovalHarness h;
  h.Install(R"(
    table hb(Dn, Ch);
    event drop(Dn, Ch);
    table cnt(Ch, N) keys(0);
    table hist(N, M) keys(0);
    table weight(Ch, S) keys(0);
    s0 cnt(Ch, count<Dn>) :- hb(Dn, Ch);
    s1 hist(N, count<Ch>) :- cnt(Ch, N);
    j1 weight(Ch, sum<N>) :- fchunk(Ch, _), cnt(Ch, N);
    d1 delete hb(Dn, Ch) :- drop(Dn, Ch), hb(Dn, Ch);
  )");
  h.Enqueue("hb", {Value("a"), Value(1)});
  h.Enqueue("hb", {Value("b"), Value(1)});
  h.Enqueue("hb", {Value("a"), Value(2)});
  h.Step("inserts");
  EXPECT_EQ(RowSet(h.engine, "hist"),
            (std::set<Tuple>{Tuple{Value(1), Value(1)}, Tuple{Value(2), Value(1)}}));
  h.Enqueue("drop", {Value("a"), Value(2)});
  h.Step("cnt(2) retracted");
  EXPECT_EQ(RowSet(h.engine, "hist"), (std::set<Tuple>{Tuple{Value(2), Value(1)}}));
  h.Enqueue("drop", {Value("a"), Value(1)});
  h.Step("cnt(1) replaced");
}

TEST(EngineTest, AggregatesMatchRecomputeUnderChurn) {
  // Random inserts, replacements, deletes, expiries and event clears against every
  // aggregate shape: ±, join recompute, min/bottomk, a negated atom, an event-driven body
  // and an aggregate over another aggregate's head.
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program churn;
    table f(Ch, F) keys(0);
    table hb(Dn, Ch, W) keys(0, 1);
    table lease(Dn) keys(0) ttl(30);
    event drop(Dn, Ch);
    event ask(Ch);
    table cnt(Ch, N) keys(0);
    table wsum(Ch, S) keys(0);
    table rep(Ch, N) keys(0);
    table lo(Ch, W) keys(0);
    table top(Ch, L) keys(0);
    table alive(Ch, N) keys(0);
    table hist(N, M) keys(0);
    table asked(Ch, N) keys(0);
    a1 cnt(Ch, count<Dn>) :- hb(Dn, Ch, _);
    a2 wsum(Ch, sum<W>) :- hb(_, Ch, W);
    a3 rep(Ch, count<Dn>) :- f(Ch, _), hb(Dn, Ch, _);
    a4 lo(Ch, min<W>) :- hb(_, Ch, W), W > 1;
    a5 top(Ch, bottomk<2, Dn>) :- f(Ch, _), hb(Dn, Ch, _), lease(Dn);
    a6 alive(Ch, count<Dn>) :- f(Ch, _), hb(Dn, Ch, _), notin lease(Dn);
    a7 hist(N, count<Ch>) :- cnt(Ch, N);
    a8 asked(Ch, count<Dn>) :- ask(Ch), hb(Dn, Ch, _);
    d1 delete hb(Dn, Ch, W) :- drop(Dn, Ch), hb(Dn, Ch, W);
    d2 delete f(Ch, F) :- drop(_, Ch), f(Ch, F), Ch > 3;
  )").ok());
  std::mt19937_64 gen(11);
  auto pick = [&gen](int n) { return static_cast<int>(gen() % static_cast<uint64_t>(n)); };
  const char* dns[] = {"a", "b", "c", "d"};
  double now = 0;
  for (int step = 0; step < 60; ++step) {
    for (int op = pick(5); op >= 0; --op) {
      const Value dn(dns[pick(4)]);
      const Value ch(pick(6));
      switch (pick(6)) {
        case 0:
        case 1:
          ASSERT_TRUE(e.Enqueue("hb", Tuple{dn, ch, Value(pick(4))}).ok());
          break;
        case 2:
          ASSERT_TRUE(e.Enqueue("drop", Tuple{dn, ch}).ok());
          break;
        case 3:
          ASSERT_TRUE(e.Enqueue("lease", Tuple{dn}).ok());
          break;
        case 4:
          ASSERT_TRUE(e.Enqueue("f", Tuple{ch, Value(pick(2))}).ok());
          break;
        case 5:
          ASSERT_TRUE(e.Enqueue("ask", Tuple{ch}).ok());
          break;
      }
    }
    EXPECT_TRUE(e.Tick(now).errors.empty());
    EXPECT_TRUE(e.Tick(now + 1).errors.empty());
    now += 7;
    ExpectAggregatesMatchRecompute(e, "step " + std::to_string(step));
  }
}

TEST(EngineTest, AggregatesFollowALaterInstall) {
  // A later install re-seeds every aggregate. A ± rule rebuilds its accumulators from the
  // table: the seed's delta replay still holds a row replaced on the seed tick, and the
  // install's fact replaced a row the rule had already counted.
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program first;
    table loc(Dn, Ch, W) keys(0, 1);
    table f(Ch) keys(0);
    table cnt(Ch, N) keys(0);
    table wsum(Ch, S) keys(0);
    table rep(Ch, N) keys(0);
    s1 cnt(Ch, count<Dn>) :- loc(Dn, Ch, _);
    s2 wsum(Ch, sum<W>) :- loc(_, Ch, W);
    j1 rep(Ch, count<Dn>) :- f(Ch), loc(Dn, Ch, _);
  )").ok());
  ASSERT_TRUE(e.Enqueue("f", Tuple{Value(1)}).ok());
  ASSERT_TRUE(e.Enqueue("loc", Tuple{Value("a"), Value(1), Value(1)}).ok());
  ASSERT_TRUE(e.Enqueue("loc", Tuple{Value("b"), Value(1), Value(2)}).ok());
  e.Tick(0);
  ExpectAggregatesMatchRecompute(e, "first seed");
  ASSERT_TRUE(e.InstallSource(R"(
    program second;
    loc("a", 1, 5);
    table seen(Ch, N) keys(0);
    s3 seen(Ch, count<Dn>) :- loc(Dn, Ch, _);
  )").ok());
  ASSERT_TRUE(e.Enqueue("loc", Tuple{Value("c"), Value(1), Value(3)}).ok());
  ASSERT_TRUE(e.Enqueue("loc", Tuple{Value("c"), Value(1), Value(4)}).ok());
  e.Tick(1);
  ExpectAggregatesMatchRecompute(e, "second seed");
  EXPECT_EQ(RowSet(e, "cnt"), (std::set<Tuple>{Tuple{Value(1), Value(3)}}));
  EXPECT_EQ(RowSet(e, "wsum"), (std::set<Tuple>{Tuple{Value(1), Value(11)}}));
  ASSERT_TRUE(e.Enqueue("loc", Tuple{Value("b"), Value(1), Value(7)}).ok());
  e.Tick(2);
  ExpectAggregatesMatchRecompute(e, "after the seed");
}

TEST(EngineTest, IntegerSumOverflowIsATickError) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program overflow;
    table v(Id, V);
    table g(K) keys(0);
    table pm(K, S) keys(0);
    table joined(K, S) keys(0);
    s1 pm(1, sum<V>) :- v(_, V);
    s2 joined(K, sum<V>) :- g(K), v(_, V);
  )").ok());
  ASSERT_TRUE(e.Enqueue("g", Tuple{Value(1)}).ok());
  ASSERT_TRUE(e.Enqueue("v", Tuple{Value(1), Value(std::numeric_limits<int64_t>::max())}).ok());
  EXPECT_TRUE(e.Tick(0).errors.empty());
  ASSERT_TRUE(e.Enqueue("v", Tuple{Value(2), Value(1)}).ok());
  Engine::TickResult r = e.Tick(1);
  // Both the ± path (s1) and the group recompute (s2) report it, and neither keeps a sum.
  ASSERT_EQ(r.errors.size(), 2u);
  for (const std::string& err : r.errors) {
    EXPECT_NE(err.find("integer overflow"), std::string::npos) << err;
  }
  EXPECT_TRUE(RowSet(e, "pm").empty());
  EXPECT_TRUE(RowSet(e, "joined").empty());
}

TEST(EngineTest, FailedInstallLeavesNoTrace) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource("program base; table a(K, V) keys(0); a(1, 10);").ok());
  e.Tick(0);
  // A timer, a new table, a fact replacing base's row and a watch, then an unsafe rule.
  EXPECT_FALSE(e.InstallSource(R"(
    program bad;
    timer tk(10);
    table b(X);
    a(1, 99);
    watch a;
    b(X) :- tk(Y);
  )").ok());
  EXPECT_EQ(e.programs().size(), 1u);
  EXPECT_EQ(e.NextTimerDeadline(), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(e.catalog().Has("tk"));
  EXPECT_FALSE(e.catalog().Has("b"));
  EXPECT_EQ(RowSet(e, "a"), (std::set<Tuple>{Tuple{Value(1), Value(10)}}));
  // The dropped names can be declared again, with another shape.
  ASSERT_TRUE(e.InstallSource("program again; table b(X, Y); b(X, V) :- a(X, V);").ok());
  EXPECT_TRUE(e.Tick(1).errors.empty());
  EXPECT_EQ(RowSet(e, "b"), (std::set<Tuple>{Tuple{Value(1), Value(10)}}));
}

TEST(EngineTest, SameNamedAggregatesInTwoProgramsKeepSeparateState) {
  Engine e(MakeEngine());
  ASSERT_TRUE(e.InstallSource(R"(
    program one;
    table a(K, V);
    table ca(K, N) keys(0);
    a1 ca(K, count<V>) :- a(K, V);
  )").ok());
  ASSERT_TRUE(e.InstallSource(R"(
    program two;
    table b(K, V);
    table cb(K, N) keys(0);
    a1 cb(K, count<V>) :- b(K, V);
  )").ok());
  e.Tick(0);
  for (int v : {10, 20}) {
    ASSERT_TRUE(e.Enqueue("a", Tuple{Value(1), Value(v)}).ok());
    ASSERT_TRUE(e.Enqueue("b", Tuple{Value(1), Value(v)}).ok());
  }
  e.Tick(1);
  EXPECT_EQ(RowSet(e, "ca"), (std::set<Tuple>{Tuple{Value(1), Value(2)}}));
  EXPECT_EQ(RowSet(e, "cb"), (std::set<Tuple>{Tuple{Value(1), Value(2)}}));
}

TEST(EngineTest, BatchInstallMatchesOneByOne) {
  const char* kBase = "program base; table a(X); table b(X); a(1); b(X) :- a(X);";
  const char* kNext = "program next; table c(X); c(X + 1) :- b(X);";
  auto parse = [](const char* source) {
    ParserOptions popts;
    popts.known_tables = {"a", "b"};
    Result<Program> program = ParseProgram(source, popts);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return std::move(program).value();
  };
  Engine one_by_one(MakeEngine());
  ASSERT_TRUE(one_by_one.InstallSource(kBase).ok());
  ASSERT_TRUE(one_by_one.InstallSource(kNext).ok());
  Engine batch(MakeEngine());
  ASSERT_TRUE(batch.Install({parse(kBase), parse(kNext)}).ok());
  EXPECT_EQ(batch.ExplainPlan(), one_by_one.ExplainPlan());
  EXPECT_EQ(batch.analyzer_reports().size(), 2u);
  one_by_one.Tick(0);
  batch.Tick(0);
  EXPECT_EQ(RowSet(batch, "c"), RowSet(one_by_one, "c"));
  EXPECT_EQ(RowSet(batch, "c"), (std::set<Tuple>{Tuple{Value(2)}}));

  // A batch with a bad program installs nothing and leaves the engine usable.
  EXPECT_FALSE(batch
                   .Install({parse("program p3; table e(X); e(X) :- a(X);"),
                             parse("program p4; table d(X, Y); d(X, Y) :- a(X);")})
                   .ok());
  EXPECT_EQ(batch.programs().size(), 2u);
  EXPECT_EQ(batch.analyzer_reports().size(), 2u);
  ASSERT_TRUE(batch.Enqueue("a", Tuple{Value(5)}).ok());
  EXPECT_TRUE(batch.Tick(1).errors.empty());
  EXPECT_TRUE(RowSet(batch, "c").count(Tuple{Value(6)}) > 0);
}

}  // namespace
}  // namespace boom
