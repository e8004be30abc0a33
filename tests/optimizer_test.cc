// Cost-based optimizer tests (ctest label: optimizer).
//
// The optimizer contract has two halves, and this suite pins both:
//
//  1. Profit: with live table stats the planner reorders joins ahead of fat relations,
//     warms the probe indexes it chose, shares identical body prefixes, maintains indexes
//     incrementally across replace/erase, and re-plans deterministically when cardinality
//     drifts.
//  2. Safety: none of that may change what a program computes. Every embedded program
//     family runs its reference workload twice — optimizer off (the classic greedy plans)
//     and on — and the resulting fixpoints must match table-for-table. Chaos runs add the
//     determinism half: an optimizer-on run is a pure function of the seed (byte-identical
//     traces run-to-run), and pass/fail outcomes match the greedy planner seed-for-seed.
//     (Optimizer-on traces are NOT required to equal optimizer-off traces: join order is
//     observable in derivation order, hence in send timing.)

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/boomfs/boomfs.h"
#include "src/boomfs/ha.h"
#include "src/boomfs/nn_program.h"
#include "src/boommr/boommr.h"
#include "src/chaos/fault_schedule.h"
#include "src/chaos/runner.h"
#include "src/chaos/scenario.h"
#include "src/chord/chord_program.h"
#include "src/monitor/meta.h"
#include "src/overlog/engine.h"
#include "src/overlog/parser.h"
#include "src/overlog/planner.h"
#include "src/paxos/paxos_program.h"
#include "src/sim/cluster.h"
#include "src/telemetry/metrics.h"

namespace boom {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> p = ParseProgram(source);
  BOOM_CHECK(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

void MustOk(const Status& status) { BOOM_CHECK(status.ok()) << status.ToString(); }

// --- planner: the cost model actually reorders ------------------------------------------

// Compiles one rule twice — greedy and cost-based with synthetic stats making `small`
// obviously cheaper than `big` — and checks the join orders diverge the way the cost model
// says they should. Greedy ties on bound-arg count and keeps body order (big first).
TEST(OptimizerPlanner, CostModelReordersJoins) {
  Program p = MustParse(R"(
    program t;
    event probe(U);
    table big(U, N);
    table small(U, S) keys(0);
    table out(U, N, S);
    r1 out(U, N, S) :- probe(U), big(U, N), small(U, S), S == 1;
    watch out;
  )");
  Catalog catalog;
  for (const TableDef& def : p.tables) {
    MustOk(catalog.Declare(def));
  }
  std::vector<std::string> programs(p.rules.size(), p.name);

  Result<CompiledProgram> greedy = CompileRules(p.rules, programs, catalog);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  ASSERT_EQ(greedy->rules.size(), 1u);
  EXPECT_FALSE(greedy->cost_based);
  EXPECT_EQ(greedy->rules[0].full_variant.steps[0].atom.table, "big");

  PlannerOptions options;
  options.cost_based = true;
  options.stats["big"] = TableStats{10000, {100, 100}, 1.0};
  options.stats["small"] = TableStats{100, {100, 2}, 1.0};
  Result<CompiledProgram> costed = CompileRules(p.rules, programs, catalog, options);
  ASSERT_TRUE(costed.ok()) << costed.status().ToString();
  EXPECT_TRUE(costed->cost_based);
  const CompiledVariant& v = costed->rules[0].full_variant;
  // small(U,S) estimates 100/100 = 1 binding; big(U,N) estimates 10000/100 = 100. Probing
  // small first makes the big probe run once per surviving binding instead of 100 times.
  EXPECT_EQ(v.steps[0].atom.table, "small") << costed->rules[0].name;
  EXPECT_GE(v.est_cost, 0.0);
  EXPECT_LT(v.est_cost, 10000.0);
  // small's probe covers its key: a row-map lookup that needs no index. big's probe is a
  // secondary index, which surfaces as a warm-index request for the engine.
  for (const CompiledStep& step : v.steps) {
    if (step.kind == BodyTerm::Kind::kAtom) {
      EXPECT_EQ(step.atom.key_lookup, step.atom.table == "small") << step.atom.table;
    }
  }
  std::set<std::string> warmed;
  for (const auto& [table, cols] : costed->warm_indexes) {
    warmed.insert(table);
  }
  EXPECT_EQ(warmed, std::set<std::string>({"big"}));
}

TEST(OptimizerPlanner, SharedPrefixDetection) {
  Program p = MustParse(R"(
    program t;
    event go(J);
    table job(J, U) keys(0);
    table task(J, T) keys(0, 1);
    table s1(J, U, T);
    table s2(J, T);
    r1 s1(J, U, T) :- go(J), job(J, U), task(J, T);
    r2 s2(J, T) :- go(J), job(J, U), task(J, T), T != 3;
    watch s1;
    watch s2;
  )");
  Catalog catalog;
  for (const TableDef& def : p.tables) {
    MustOk(catalog.Declare(def));
  }
  std::vector<std::string> programs(p.rules.size(), p.name);

  // Greedy compilation never builds sharing structures (the serial default path must stay
  // byte-identical to the historical evaluator).
  Result<CompiledProgram> greedy = CompileRules(p.rules, programs, catalog);
  ASSERT_TRUE(greedy.ok());
  EXPECT_TRUE(greedy->shared_prefixes.empty());

  PlannerOptions options;
  options.cost_based = true;
  Result<CompiledProgram> costed = CompileRules(p.rules, programs, catalog, options);
  ASSERT_TRUE(costed.ok()) << costed.status().ToString();
  const SharedPrefixGroup* go_group = nullptr;
  for (const SharedPrefixGroup& g : costed->shared_prefixes) {
    if (g.driver_table == "go") {
      go_group = &g;
    }
  }
  ASSERT_NE(go_group, nullptr) << "no shared prefix driven by go";
  EXPECT_EQ(go_group->members.size(), 2u);
  EXPECT_EQ(go_group->prefix_steps, 2u);  // job + task after the go driver
  EXPECT_EQ(go_group->canon_num_slots, 3);
  // Slot maps translate every canonical slot into a live member slot.
  for (const SharedPrefixMember& m : go_group->members) {
    ASSERT_EQ(m.slot_map.size(), static_cast<size_t>(go_group->canon_num_slots));
    for (int slot : m.slot_map) {
      EXPECT_GE(slot, 0);
      EXPECT_LT(slot, costed->rules[m.rule_index].num_slots);
    }
  }
}

// --- engine: drift re-plan, shared-prefix cache, explain --------------------------------

EngineOptions OptEngine(const std::string& address, bool optimize) {
  EngineOptions opts;
  opts.address = address;
  opts.seed = 5;
  opts.enable_optimizer = optimize;
  return opts;
}

constexpr char kJoinProgram[] = R"(
  program t;
  event probe(U);
  table big(U, N);
  table small(U, S) keys(0);
  table out(U, N, S);
  r1 out(U, N, S) :- probe(U), big(U, N), small(U, S), S == 1;
  watch out;
)";

TEST(OptimizerEngine, DriftTriggersDeterministicReplan) {
  Engine engine(OptEngine("n1", /*optimize=*/true));
  MustOk(engine.InstallSource(kJoinProgram));
  engine.Tick(0);
  // Plan was made against empty tables; load enough rows to cross the drift threshold
  // (replan_min_rows = 64, factor 4).
  for (int i = 0; i < 400; ++i) {
    MustOk(engine.Enqueue("big", Tuple{Value(i % 4), Value(i)}));
  }
  for (int u = 0; u < 4; ++u) {
    MustOk(engine.Enqueue("small", Tuple{Value(u), Value(1)}));
  }
  engine.Tick(1);  // applies the rows (drift check sees pre-insert counts)
  EXPECT_EQ(engine.stats().replans, 0u);
  engine.Tick(2);  // now 0 -> 400 rows is drift: re-plan fires
  EXPECT_EQ(engine.stats().replans, 1u);
  engine.Tick(3);  // counts recorded at re-plan time; no further drift
  EXPECT_EQ(engine.stats().replans, 1u);
  // The re-plan saw big=400 rows (4 distinct keys) vs small=4: the costed order probes
  // small before big.
  std::string plan = engine.ExplainPlan();
  size_t rule_pos = plan.find("t:r1");
  ASSERT_NE(rule_pos, std::string::npos) << plan;
  size_t small_pos = plan.find("small(probe:0)", rule_pos);
  size_t big_pos = plan.find("big(probe:0)", rule_pos);
  ASSERT_NE(small_pos, std::string::npos) << plan;
  ASSERT_NE(big_pos, std::string::npos) << plan;
  EXPECT_LT(small_pos, big_pos) << plan;

  // Same workload, optimizer off: identical join results, no re-plans.
  Engine greedy(OptEngine("n1", /*optimize=*/false));
  MustOk(greedy.InstallSource(kJoinProgram));
  greedy.Tick(0);
  for (int i = 0; i < 400; ++i) {
    MustOk(greedy.Enqueue("big", Tuple{Value(i % 4), Value(i)}));
  }
  for (int u = 0; u < 4; ++u) {
    MustOk(greedy.Enqueue("small", Tuple{Value(u), Value(1)}));
  }
  greedy.Tick(1);
  greedy.Tick(2);
  for (Engine* e : {&engine, &greedy}) {
    for (int u = 0; u < 4; ++u) {
      MustOk(e->Enqueue("probe", Tuple{Value(u)}));
    }
    e->Tick(4);
  }
  EXPECT_EQ(greedy.stats().replans, 0u);
  auto rows = [](const Engine& e) {
    std::multiset<std::string> out;
    e.catalog().Get("out").ForEach([&out](const Tuple& t) { out.insert(t.ToString()); });
    return out;
  };
  EXPECT_EQ(rows(engine), rows(greedy));
  EXPECT_EQ(rows(engine).size(), 400u);
}

TEST(OptimizerEngine, SharedPrefixCacheServesMembers) {
  constexpr char kShared[] = R"(
    program t;
    event go(J);
    table job(J, U) keys(0);
    table task(J, T) keys(0, 1);
    table s1(J, U, T);
    table s2(J, T);
    r1 s1(J, U, T) :- go(J), job(J, U), task(J, T);
    r2 s2(J, T) :- go(J), job(J, U), task(J, T), T != 3;
    watch s1;
    watch s2;
  )";
  auto run = [&](bool optimize) {
    auto engine = std::make_unique<Engine>(OptEngine("n1", optimize));
    MustOk(engine->InstallSource(kShared));
    engine->Tick(0);
    for (int j = 0; j < 8; ++j) {
      MustOk(engine->Enqueue("job", Tuple{Value(j), Value("u" + std::to_string(j % 3))}));
      for (int t = 0; t < 4; ++t) {
        MustOk(engine->Enqueue("task", Tuple{Value(j), Value(t)}));
      }
    }
    engine->Tick(1);
    for (int j = 0; j < 8; ++j) {
      MustOk(engine->Enqueue("go", Tuple{Value(j)}));
    }
    engine->Tick(2);
    return engine;
  };
  auto on = run(true);
  auto off = run(false);
  // The go-driven prefix (go, job, task) is shared by r1 and r2: one canonical evaluation
  // (the fill), one member served from cache, per round that go fires.
  EXPECT_GE(on->stats().shared_prefix_evals, 1u);
  EXPECT_GE(on->stats().shared_prefix_hits, 1u);
  EXPECT_EQ(off->stats().shared_prefix_evals, 0u);
  auto rows = [](const Engine& e, const std::string& name) {
    std::multiset<std::string> out;
    e.catalog().Get(name).ForEach([&out](const Tuple& t) { out.insert(t.ToString()); });
    return out;
  };
  EXPECT_EQ(rows(*on, "s1"), rows(*off, "s1"));
  EXPECT_EQ(rows(*on, "s2"), rows(*off, "s2"));
  EXPECT_EQ(rows(*on, "s1").size(), 32u);
  std::string plan = on->ExplainPlan();
  EXPECT_NE(plan.find("shared prefixes:"), std::string::npos) << plan;
  EXPECT_NE(plan.find("members: r1 r2"), std::string::npos) << plan;
}

TEST(OptimizerEngine, PerfTablePublishesTableStats) {
  Engine engine(OptEngine("n1", /*optimize=*/true));
  MustOk(InstallProfiling(engine));
  MustOk(engine.InstallSource(kJoinProgram));
  engine.Tick(0);
  for (int i = 0; i < 10; ++i) {
    MustOk(engine.Enqueue("big", Tuple{Value(i), Value(i)}));
    MustOk(engine.Enqueue("small", Tuple{Value(i), Value(1)}));
    MustOk(engine.Enqueue("probe", Tuple{Value(i)}));
  }
  engine.Tick(1);
  MustOk(engine.PublishProfile());
  engine.Tick(2);
  const Table& perf = engine.catalog().Get("perf_table");
  std::map<std::string, int64_t> rows_of;
  perf.ForEach([&rows_of](const Tuple& t) {
    rows_of[t[0].as_string()] = t[1].as_int();
  });
  EXPECT_EQ(rows_of["big"], 10);
  EXPECT_EQ(rows_of["small"], 10);
  EXPECT_EQ(rows_of["out"], 10);
  EXPECT_EQ(rows_of["probe"], 0);  // events are empty between ticks

  // The metrics-registry mirror exports the same numbers without a publish tick.
  ExportTableMetrics(engine);
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.gauge("engine.table.big.rows").value(), 10.0);
  EXPECT_GE(registry.gauge("engine.table.small.probes").value(), 1.0);

  // And the index-churn invariant fires from perf_table rows like any Overlog rule.
  std::vector<std::string> violations;
  MustOk(InstallInvariants(engine, IndexChurnInvariantProgram(0), &violations));
  MustOk(engine.Enqueue(
      "perf_table", Tuple{Value("hot"), Value(int64_t{5}), Value(int64_t{100}),
                          Value(int64_t{80}), Value(int64_t{7})}));
  engine.Tick(3);
  ASSERT_EQ(violations.size(), 1u) << (violations.empty() ? "" : violations[0]);
  EXPECT_NE(violations[0].find("hot"), std::string::npos);
}

// --- equivalence: every program family, optimizer off vs on -----------------------------

// Full engine state: every table's rows, as sorted strings (exactly the persistent
// fixpoint; event tables are empty between ticks).
std::map<std::string, std::multiset<std::string>> Snapshot(const Engine& engine) {
  std::map<std::string, std::multiset<std::string>> out;
  for (const std::string& name : engine.catalog().TableNames()) {
    std::multiset<std::string>& rows = out[name];
    engine.catalog().Get(name).ForEach(
        [&rows](const Tuple& row) { rows.insert(row.ToString()); });
  }
  return out;
}

void ExpectSameState(const Engine& off, const Engine& on, const std::string& label) {
  auto a = Snapshot(off);
  auto b = Snapshot(on);
  ASSERT_EQ(a.size(), b.size()) << label << ": different table sets";
  for (const auto& [table, rows] : a) {
    ASSERT_TRUE(b.count(table)) << label << ": table " << table
                                << " missing on optimizer side";
    EXPECT_EQ(rows, b[table]) << label << ": table " << table << " diverged";
  }
}

ClusterOptions OptCluster(bool optimize) {
  ClusterOptions copts;
  copts.enable_engine_optimizer = optimize;
  return copts;
}

// The reference workloads below mirror program_equivalence_test.cc (which compares
// module-built programs against frozen golden texts); here both sides run the module-built
// program and only the planner differs.

struct FsRun {
  Cluster cluster;
  FsHandles handles;

  explicit FsRun(bool optimize) : cluster(4242, OptCluster(optimize)) {
    handles = SetupFs(cluster, FsSetupOptions{});
    SyncFs fs(cluster, handles.client);
    cluster.RunUntil(1000);
    EXPECT_TRUE(fs.Mkdir("/a"));
    EXPECT_TRUE(fs.Mkdir("/a/b"));
    EXPECT_TRUE(fs.CreateFile("/a/f1"));
    EXPECT_TRUE(fs.WriteFile("/a/b/w1", "optimizer-equivalence-payload"));
    EXPECT_FALSE(fs.Mkdir("/a"));
    std::string data;
    EXPECT_TRUE(fs.ReadFile("/a/b/w1", &data));
    EXPECT_EQ(data, "optimizer-equivalence-payload");
    cluster.KillNode(handles.datanodes[0]);  // failure detector + re-replication churn
    cluster.RunUntil(cluster.now() + 4000);
    EXPECT_TRUE(fs.Rm("/a/f1"));
    EXPECT_FALSE(fs.Exists("/a/f1"));
    cluster.RunUntil(cluster.now() + 2000);
  }
};

TEST(OptimizerEquivalence, BoomFsNn) {
  FsRun off(/*optimize=*/false);
  FsRun on(/*optimize=*/true);
  ExpectSameState(*off.cluster.engine("nn"), *on.cluster.engine("nn"), "boomfs_nn");
}

struct MrRun {
  Cluster cluster;
  MrHandles handles;
  double finish_ms = -1;

  MrRun(MrPolicy policy, bool optimize) : cluster(7777, OptCluster(optimize)) {
    MrSetupOptions opts;
    opts.policy = policy;
    opts.num_trackers = 4;
    opts.tracker_slowdowns = {1.0, 1.0, 1.0, 6.0};  // straggler so LATE speculates
    handles = SetupMr(cluster, opts);
    JobSpec spec;
    spec.job_id = handles.client->NextJobId();
    spec.client = handles.client->address();
    spec.num_maps = 6;
    spec.num_reduces = 2;
    spec.duration_ms = [](const TaskRef& task, const std::string&) {
      return 200.0 + ((task.job_id * 31 + task.task_id * 17) % 5) * 40.0;
    };
    finish_ms = RunJobSync(cluster, handles, std::move(spec));
    EXPECT_GT(finish_ms, 0);
    cluster.RunUntil(cluster.now() + 2000);
  }
};

TEST(OptimizerEquivalence, BoomMrJtFifo) {
  MrRun off(MrPolicy::kFifo, /*optimize=*/false);
  MrRun on(MrPolicy::kFifo, /*optimize=*/true);
  EXPECT_EQ(off.finish_ms, on.finish_ms);
  ExpectSameState(*off.cluster.engine("jt"), *on.cluster.engine("jt"), "jt_fifo");
}

TEST(OptimizerEquivalence, BoomMrJtLate) {
  MrRun off(MrPolicy::kLate, /*optimize=*/false);
  MrRun on(MrPolicy::kLate, /*optimize=*/true);
  EXPECT_EQ(off.finish_ms, on.finish_ms);
  ExpectSameState(*off.cluster.engine("jt"), *on.cluster.engine("jt"), "jt_late");
}

struct PaxosRun {
  Cluster cluster;
  std::vector<std::string> peers = {"px0", "px1", "px2"};

  explicit PaxosRun(bool optimize) : cluster(99, OptCluster(optimize)) {
    for (int i = 0; i < 3; ++i) {
      PaxosProgramOptions opts;
      opts.peers = peers;
      opts.my_index = i;
      Program program = PaxosProgram(opts);
      cluster.AddOverlogNode(peers[static_cast<size_t>(i)], [program](Engine& engine) {
        Status status = engine.Install(program);
        ASSERT_TRUE(status.ok()) << status.ToString();
      });
    }
    cluster.RunUntil(2000);
    for (int k = 0; k < 5; ++k) {
      cluster.Send("px0", "px0", "px_request",
                   Tuple{Value("px0"), Value("cmd-" + std::to_string(k))});
    }
    cluster.RunUntil(6000);
    cluster.KillNode("px0");
    cluster.RunUntil(10000);
    cluster.Send("px1", "px1", "px_request", Tuple{Value("px1"), Value("after-failover")});
    cluster.RunUntil(14000);
  }
};

TEST(OptimizerEquivalence, Paxos) {
  PaxosRun off(/*optimize=*/false);
  PaxosRun on(/*optimize=*/true);
  for (const std::string& p : off.peers) {
    ExpectSameState(*off.cluster.engine(p), *on.cluster.engine(p), "paxos " + p);
  }
  const Table& decided = on.cluster.engine("px1")->catalog().Get("decided");
  size_t n = 0;
  decided.ForEach([&n](const Tuple&) { ++n; });
  EXPECT_EQ(n, 6u);
}

struct ChordRun {
  Cluster cluster;
  std::vector<std::string> addresses = {"c0", "c1", "c2"};

  explicit ChordRun(bool optimize) : cluster(321, OptCluster(optimize)) {
    for (const std::string& address : addresses) {
      ChordOptions opts;
      opts.bootstrap = "c0";
      Program program = ChordProgram(address, opts);
      cluster.AddOverlogNode(address, [program](Engine& engine) {
        Status status = engine.Install(program);
        ASSERT_TRUE(status.ok()) << status.ToString();
      });
    }
    cluster.RunUntil(8000);  // join + stabilize
  }
};

TEST(OptimizerEquivalence, Chord) {
  ChordRun off(/*optimize=*/false);
  ChordRun on(/*optimize=*/true);
  for (const std::string& address : off.addresses) {
    ExpectSameState(*off.cluster.engine(address), *on.cluster.engine(address),
                    "chord " + address);
    EXPECT_FALSE(SuccessorOf(on.cluster, address).empty()) << address;
  }
}

// Paxos + BOOM-FS + HA bridge stacked on one bare engine: protocol traffic (every
// outbound send) must match as a multiset — join order legitimately reorders sends within
// a tick, so sequence equality is not required across planners.
struct StackRun {
  Engine engine;
  std::multiset<std::string> sends;

  explicit StackRun(bool optimize) : engine(OptEngine("nn0", optimize)) {
    PaxosProgramOptions paxos_opts;
    paxos_opts.peers = {"nn0", "nn1", "nn2"};
    paxos_opts.my_index = 0;
    MustOk(engine.Install(PaxosProgram(paxos_opts)));
    MustOk(engine.Install(BoomFsNnProgram()));
    MustOk(engine.Install(HaBridgeProgram()));
    for (double t = 0; t <= 3000; t += 100) {
      if (t == 1500) {
        MustOk(engine.Enqueue("ha_request",
                              Tuple{Value("nn0"), Value(int64_t{1}), Value("client"),
                                    Value("mkdir"), Value("/ha-dir"), Value("")}));
      }
      Engine::TickResult result = engine.Tick(t);
      EXPECT_TRUE(result.errors.empty()) << result.errors.front();
      for (const Engine::Send& send : result.sends) {
        sends.insert(send.dest + " " + send.table + " " + send.tuple.ToString());
      }
    }
  }
};

TEST(OptimizerEquivalence, HaBridgeStack) {
  StackRun off(/*optimize=*/false);
  StackRun on(/*optimize=*/true);
  EXPECT_EQ(off.sends, on.sends);
  ExpectSameState(off.engine, on.engine, "ha_stack");
  EXPECT_FALSE(on.sends.empty()) << "stack produced no protocol traffic";
}

// Monitor invariants over the NameNode program: violations fire identically (watch order
// may differ with join order, so compare as multisets).
struct InvariantRun {
  Engine engine;
  std::vector<std::string> violations;

  explicit InvariantRun(bool optimize) : engine(OptEngine("nn", optimize)) {
    MustOk(engine.Install(BoomFsNnProgram()));
    MustOk(InstallInvariants(engine, BoomFsInvariantProgram(3, true), &violations));
    MustOk(engine.Enqueue("file", Tuple{Value(1), Value(0), Value("f"), Value(false)}));
    MustOk(
        engine.Enqueue("file", Tuple{Value(5), Value(77), Value("orphan"), Value(false)}));
    MustOk(engine.Enqueue("fqpath", Tuple{Value("/alias"), Value(1)}));
    for (int c = 1; c <= 3; ++c) {
      MustOk(engine.Enqueue("fchunk", Tuple{Value(c * 10), Value(1)}));
    }
    int reps = 0;
    for (int c = 1; c <= 3; ++c) {
      int want = c == 1 ? 4 : (c == 2 ? 1 : 3);
      for (int r = 0; r < want; ++r) {
        MustOk(engine.Enqueue("hb_chunk",
                              Tuple{Value("dn" + std::to_string(reps++)), Value(c * 10)}));
      }
    }
    for (double t = 0; t <= 500; t += 100) {
      engine.Tick(t);
    }
  }
};

TEST(OptimizerEquivalence, BoomFsInvariants) {
  InvariantRun off(/*optimize=*/false);
  InvariantRun on(/*optimize=*/true);
  std::multiset<std::string> a(off.violations.begin(), off.violations.end());
  std::multiset<std::string> b(on.violations.begin(), on.violations.end());
  EXPECT_EQ(a, b);
  ExpectSameState(off.engine, on.engine, "boomfs_invariants");
  EXPECT_GE(on.violations.size(), 3u);
}

// --- chaos: per-seed determinism and outcome equality -----------------------------------

ChaosRunResult ChaosRun(const std::string& scenario_name, uint64_t seed, bool optimize) {
  std::unique_ptr<ChaosScenario> scenario = MakeScenario(scenario_name);
  FaultSchedule schedule = GenerateFaultSchedule(seed, scenario->FaultProfile());
  ChaosRunOptions options;
  options.record_trace = true;
  options.enable_engine_optimizer = optimize;
  return RunChaosOnce(*scenario, seed, schedule, options);
}

class OptimizerChaos : public ::testing::TestWithParam<std::string> {};

// Ten seeds per scenario: (a) an optimizer-on run is a pure function of the seed — two
// runs produce byte-identical traces and outcomes (re-planning and stats harvesting must
// not leak any order- or clock-dependence); (b) optimizer on/off agree on pass/fail and on
// the violation set (traces may differ: join order is observable in send timing).
TEST_P(OptimizerChaos, SeedDeterminismAndOutcomeEquality) {
  const std::string scenario = GetParam();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    ChaosRunResult on_a = ChaosRun(scenario, seed, /*optimize=*/true);
    ChaosRunResult on_b = ChaosRun(scenario, seed, /*optimize=*/true);
    ASSERT_FALSE(on_a.trace.empty()) << scenario << " seed " << seed;
    EXPECT_EQ(on_a.trace, on_b.trace)
        << scenario << " seed " << seed << ": optimizer-on run is not deterministic";
    EXPECT_EQ(on_a.passed, on_b.passed) << scenario << " seed " << seed;
    EXPECT_EQ(on_a.violations, on_b.violations) << scenario << " seed " << seed;
    EXPECT_EQ(on_a.end_ms, on_b.end_ms) << scenario << " seed " << seed;

    ChaosRunResult off = ChaosRun(scenario, seed, /*optimize=*/false);
    EXPECT_EQ(off.passed, on_a.passed)
        << scenario << " seed " << seed << ": optimizer changed the run outcome";
    std::multiset<std::string> off_v(off.violations.begin(), off.violations.end());
    std::multiset<std::string> on_v(on_a.violations.begin(), on_a.violations.end());
    EXPECT_EQ(off_v, on_v) << scenario << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, OptimizerChaos,
                         ::testing::Values("boomfs", "boommr"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace boom
