// Engine microbenchmarks: not a paper figure, but the calibration data behind the simulated
// service times used in the cluster figures, and a regression guard for the Overlog runtime
// itself.
//
// Two modes:
//   micro_engine            google-benchmark suite (exploratory; all BM_* below)
//   micro_engine --json     fixed named workloads, machine-readable output consumed by
//                           scripts/bench.sh -> BENCH_engine.json (the tracked perf
//                           trajectory; see docs/PERFORMANCE.md)
//
// The JSON workloads are the regression-gated set: each is run kJsonReps times and the best
// rep is reported (min ns/op), which suppresses scheduler noise without hiding real
// regressions.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/logging.h"

#include "src/boomfs/nn_program.h"
#include "src/overlog/engine.h"
#include "src/overlog/parser.h"
#include "src/paxos/paxos_program.h"
#include "src/sim/cluster.h"

namespace boom {
namespace {

// ---------------------------------------------------------------------------
// google-benchmark suite (exploratory mode)
// ---------------------------------------------------------------------------

void BM_TupleHashEquality(benchmark::State& state) {
  Tuple a{Value(42), Value("some/path/name"), Value(3.5)};
  Tuple b{Value(42), Value("some/path/name"), Value(3.5)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);
    benchmark::DoNotOptimize(a.hash());
  }
}
BENCHMARK(BM_TupleHashEquality);

void BM_TableInsert(benchmark::State& state) {
  TableDef def;
  def.name = "t";
  def.columns = {"A", "B", "C"};
  def.key_columns = {0};
  int64_t i = 0;
  Table table(def);
  for (auto _ : state) {
    table.Insert(Tuple{Value(i++), Value("payload"), Value(i * 2)});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableInsert);

void BM_IndexProbe(benchmark::State& state) {
  TableDef def;
  def.name = "t";
  def.columns = {"A", "B"};
  def.key_columns = {0};
  Table table(def);
  for (int64_t i = 0; i < 10000; ++i) {
    table.Insert(Tuple{Value(i), Value(i % 100)});
  }
  int64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Probe({1}, Tuple{Value(probe++ % 100)}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexProbe);

void BM_ParseNameNodeProgram(benchmark::State& state) {
  // The canonical rendering of the built program round-trips through the parser.
  std::string source = BoomFsNnProgram().ToString();
  for (auto _ : state) {
    Result<Program> p = ParseProgram(source);
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_ParseNameNodeProgram);

void BM_TransitiveClosureFixpoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions opts;
    opts.address = "n";
    Engine engine(opts);
    Status s = engine.InstallSource(R"(
      program tc;
      table link(X, Y);
      table reach(X, Y);
      r1 reach(X, Y) :- link(X, Y);
      r2 reach(X, Z) :- link(X, Y), reach(Y, Z);
    )");
    BOOM_CHECK(s.ok());
    for (int i = 0; i < n; ++i) {
      BOOM_CHECK(engine.Enqueue("link", Tuple{Value(i), Value(i + 1)}).ok());
    }
    state.ResumeTiming();
    engine.Tick(0);
    benchmark::DoNotOptimize(engine.catalog().Get("reach").size());
  }
  state.SetLabel("chain length " + std::to_string(n));
}
BENCHMARK(BM_TransitiveClosureFixpoint)->Arg(32)->Arg(128);

void BM_NamespaceOp(benchmark::State& state) {
  EngineOptions opts;
  opts.address = "nn";
  Engine engine(opts);
  BOOM_CHECK(engine.Install(BoomFsNnProgram()).ok());
  engine.Tick(0);
  BOOM_CHECK(engine
                 .Enqueue("ns_request", Tuple{Value("nn"), Value(0), Value("c"),
                                              Value("mkdir"), Value("/base"), Value()})
                 .ok());
  engine.Tick(1);
  engine.Tick(1);
  int64_t i = 1;
  double now = 2;
  for (auto _ : state) {
    BOOM_CHECK(engine
                   .Enqueue("ns_request",
                            Tuple{Value("nn"), Value(i), Value("c"), Value("create"),
                                  Value("/base/f" + std::to_string(i)), Value()})
                   .ok());
    engine.Tick(now);
    engine.Tick(now);
    ++i;
    now += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NamespaceOp);

void BM_PaxosDecree(benchmark::State& state) {
  Cluster cluster(11);
  std::vector<std::string> peers = {"p0", "p1", "p2"};
  for (int i = 0; i < 3; ++i) {
    PaxosProgramOptions popts;
    popts.peers = peers;
    popts.my_index = i;
    Program program = PaxosProgram(popts);
    cluster.AddOverlogNode(peers[static_cast<size_t>(i)], [program](Engine& engine) {
      BOOM_CHECK(engine.Install(program).ok());
    });
  }
  cluster.RunUntil(2000);
  int64_t i = 0;
  for (auto _ : state) {
    cluster.Send("p0", "p0", "px_request",
                 Tuple{Value("p0"), Value("cmd" + std::to_string(i++))});
    size_t want = cluster.engine("p0")->catalog().Get("decided").size() + 1;
    while (cluster.engine("p0")->catalog().Get("decided").size() < want) {
      cluster.RunUntil(cluster.now() + 10);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("full decree incl. virtual network RTTs");
}
BENCHMARK(BM_PaxosDecree);

// ---------------------------------------------------------------------------
// --json mode: the tracked workload set
// ---------------------------------------------------------------------------

using BenchClock = std::chrono::steady_clock;

double ElapsedNs(BenchClock::time_point t0) {
  return std::chrono::duration<double, std::nano>(BenchClock::now() - t0).count();
}

struct WorkloadResult {
  double ns_per_op = 0;
  double ops_per_sec = 0;
};

WorkloadResult FromTotal(double total_ns, double ops) {
  WorkloadResult r;
  r.ns_per_op = total_ns / ops;
  r.ops_per_sec = ops / (total_ns / 1e9);
  return r;
}

constexpr int kJsonReps = 5;

template <typename Fn>
WorkloadResult BestOf(Fn&& fn, int reps = kJsonReps) {
  WorkloadResult best;
  for (int rep = 0; rep < reps; ++rep) {
    WorkloadResult r = fn();
    if (rep == 0 || r.ns_per_op < best.ns_per_op) {
      best = r;
    }
  }
  return best;
}

// tuple_hash_equality: Value/Tuple comparison + hash inner loop (the join-probe primitive).
WorkloadResult RunTupleHashEquality() {
  return BestOf([] {
    Tuple a{Value(42), Value("some/path/name"), Value(3.5)};
    Tuple b{Value(42), Value("some/path/name"), Value(3.5)};
    constexpr int kIters = 2000000;
    auto t0 = BenchClock::now();
    for (int i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(a == b);
      benchmark::DoNotOptimize(a.hash());
    }
    return FromTotal(ElapsedNs(t0), kIters);
  });
}

// table_insert: keyed inserts with a string payload column. The most scheduler-sensitive
// workload in the set (300k map-node allocations per rep dominate, and a timeslice that
// lands mid-rep inflates every rep in a 5-rep window), so it gets extra reps to make the
// best-of robust on a loaded single-core box.
WorkloadResult RunTableInsert() {
  return BestOf(
      [] {
        TableDef def;
        def.name = "t";
        def.columns = {"A", "B", "C"};
        def.key_columns = {0};
        Table table(def);
        constexpr int64_t kIters = 300000;
        auto t0 = BenchClock::now();
        for (int64_t i = 0; i < kIters; ++i) {
          table.Insert(Tuple{Value(i), Value("payload"), Value(i * 2)});
        }
        return FromTotal(ElapsedNs(t0), kIters);
      },
      3 * kJsonReps);
}

// index_probe: secondary-index probes against a warm 10k-row table.
WorkloadResult RunIndexProbe() {
  return BestOf([] {
    TableDef def;
    def.name = "t";
    def.columns = {"A", "B"};
    def.key_columns = {0};
    Table table(def);
    for (int64_t i = 0; i < 10000; ++i) {
      table.Insert(Tuple{Value(i), Value(i % 100)});
    }
    constexpr int64_t kIters = 500000;
    std::vector<size_t> cols = {1};
    auto t0 = BenchClock::now();
    for (int64_t i = 0; i < kIters; ++i) {
      benchmark::DoNotOptimize(table.Probe(cols, Tuple{Value(i % 100)}));
    }
    return FromTotal(ElapsedNs(t0), kIters);
  });
}

// join_heavy: string-keyed transitive closure over a chain — every derived tuple is one
// recursive join probe plus head construction; ns/op is per derived reach() tuple. String
// node names mirror the paper's workloads (paths, host names), which key joins on strings.
WorkloadResult RunJoinHeavy() {
  constexpr int kChain = 160;
  return BestOf([] {
    EngineOptions opts;
    opts.address = "n";
    Engine engine(opts);
    Status s = engine.InstallSource(R"(
      program tc;
      table link(X, Y);
      table reach(X, Y);
      r1 reach(X, Y) :- link(X, Y);
      r2 reach(X, Z) :- link(X, Y), reach(Y, Z);
    )");
    BOOM_CHECK(s.ok());
    auto node = [](int i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "n%04d", i);
      return std::string(buf);
    };
    for (int i = 0; i < kChain; ++i) {
      BOOM_CHECK(engine.Enqueue("link", Tuple{Value(node(i)), Value(node(i + 1))}).ok());
    }
    auto t0 = BenchClock::now();
    engine.Tick(0);
    double ns = ElapsedNs(t0);
    size_t reach = engine.catalog().Get("reach").size();
    BOOM_CHECK(reach == static_cast<size_t>(kChain) * (kChain + 1) / 2);
    return FromTotal(ns, static_cast<double>(reach));
  });
}

// churn_heavy: many installed rule families (the multi-program NameNode+Paxos+monitor
// setting), but each tick only churns a handful of keys in one family. Measures how much
// fixpoint overhead idle rules impose; ns/op is per derived tuple.
WorkloadResult RunChurnHeavy() {
  constexpr int kFamilies = 64;
  constexpr int kTicks = 400;
  constexpr int kKeysPerTick = 4;
  std::string source = "program churn;\n";
  for (int f = 0; f < kFamilies; ++f) {
    std::string n = std::to_string(f);
    source += "table in" + n + "(K, V) keys(0);\n";
    source += "table out" + n + "(K, V) keys(0);\n";
    source += "c" + n + " out" + n + "(K, V) :- in" + n + "(K, V);\n";
  }
  return BestOf([&source] {
    EngineOptions opts;
    opts.address = "n";
    Engine engine(opts);
    BOOM_CHECK(engine.InstallSource(source).ok());
    engine.Tick(0);
    uint64_t derivations = 0;
    double total_ns = 0;
    for (int t = 0; t < kTicks; ++t) {
      int f = t % kFamilies;
      std::string table = "in" + std::to_string(f);
      for (int k = 0; k < kKeysPerTick; ++k) {
        BOOM_CHECK(engine
                       .Enqueue(table, Tuple{Value("key" + std::to_string(k)),
                                             Value("v" + std::to_string(t) + "_" +
                                                   std::to_string(k))})
                       .ok());
      }
      auto t0 = BenchClock::now();
      Engine::TickResult r = engine.Tick(t + 1);
      total_ns += ElapsedNs(t0);
      derivations += r.derivations;
    }
    BOOM_CHECK(derivations == static_cast<uint64_t>(kTicks) * kKeysPerTick);
    return FromTotal(total_ns, static_cast<double>(derivations));
  });
}

// namespace_op: end-to-end BOOM-FS NameNode create ops (the T2 primitive); ns/op per
// namespace operation including both engine ticks.
WorkloadResult RunNamespaceOp() {
  constexpr int kOps = 400;
  return BestOf([] {
    EngineOptions opts;
    opts.address = "nn";
    Engine engine(opts);
    BOOM_CHECK(engine.Install(BoomFsNnProgram()).ok());
    engine.Tick(0);
    BOOM_CHECK(engine
                   .Enqueue("ns_request", Tuple{Value("nn"), Value(0), Value("c"),
                                                Value("mkdir"), Value("/base"), Value()})
                   .ok());
    engine.Tick(1);
    engine.Tick(1);
    double now = 2;
    auto t0 = BenchClock::now();
    for (int64_t i = 1; i <= kOps; ++i) {
      BOOM_CHECK(engine
                     .Enqueue("ns_request",
                              Tuple{Value("nn"), Value(i), Value("c"), Value("create"),
                                    Value("/base/f" + std::to_string(i)), Value()})
                     .ok());
      engine.Tick(now);
      engine.Tick(now);
      now += 1;
    }
    return FromTotal(ElapsedNs(t0), kOps);
  });
}

// churn_probe: a keyed 10k-row table with a warm secondary index takes replace churn,
// probing between mutations. Each replace moves one row between index buckets in place, so
// the cost per op must not grow with the table size.
WorkloadResult RunChurnProbe() {
  constexpr int64_t kRows = 10000;
  constexpr int kChurn = 2000;
  return BestOf([] {
    TableDef def;
    def.name = "t";
    def.columns = {"K", "V"};
    def.key_columns = {0};
    Table table(def);
    for (int64_t i = 0; i < kRows; ++i) {
      table.Insert(Tuple{Value(i), Value(i % 977)});
    }
    const std::vector<size_t> by_value = {1};
    BOOM_CHECK(!table.Probe(by_value, Tuple{Value(int64_t{13})}).empty());  // warm index
    auto t0 = BenchClock::now();
    for (int c = 0; c < kChurn; ++c) {
      int64_t k = (c * 37) % kRows;
      table.Insert(Tuple{Value(k), Value((k + c) % 977)});  // replace
      benchmark::DoNotOptimize(table.Probe(by_value, Tuple{Value((k + c) % 977)}));
    }
    return FromTotal(ElapsedNs(t0), kChurn);
  });
}

int JsonMain() {
  struct Entry {
    const char* name;
    WorkloadResult (*run)();
  };
  const Entry entries[] = {
      {"tuple_hash_equality", RunTupleHashEquality},
      {"table_insert", RunTableInsert},
      {"index_probe", RunIndexProbe},
      {"join_heavy", RunJoinHeavy},
      {"churn_heavy", RunChurnHeavy},
      {"namespace_op", RunNamespaceOp},
      {"churn_probe", RunChurnProbe},
  };
  std::printf("{\n  \"bench\": \"micro_engine\",\n  \"workloads\": {\n");
  bool first = true;
  for (const Entry& e : entries) {
    WorkloadResult r = e.run();
    if (!first) {
      std::printf(",\n");
    }
    first = false;
    std::printf("    \"%s\": {\"ns_per_op\": %.1f, \"tuples_per_sec\": %.0f}", e.name,
                r.ns_per_op, r.ops_per_sec);
  }
  std::printf("\n  }\n}\n");
  return 0;
}

}  // namespace
}  // namespace boom

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    }
  }
  if (json) {
    return boom::JsonMain();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
