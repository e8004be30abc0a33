// Ablation study (DESIGN.md): how much dirty-rule scheduling contributes. The monitored
// NameNode workload from T4 (namespace ops + metaprogrammed tracing with count rollups) is
// replayed with and without it:
//
//   A. full engine            — per-group aggregate maintenance + dirty-rule sched
//   E. no dirty-rule sched    — fixpoint rounds scan every rule, changed driver or not
//
// Aggregates have one path (each rule updates only its affected groups), so there is no
// aggregate switch to ablate; config A's count rollups are what keep it flat.

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/base/logging.h"
#include "src/boomfs/nn_program.h"
#include "src/monitor/meta.h"
#include "src/overlog/engine.h"
#include "src/overlog/parser.h"

namespace boom {
namespace {

constexpr int kOps = 1200;

double RunConfig(bool dirty_rules) {
  EngineOptions opts;
  opts.address = "nn";
  opts.disable_dirty_rule_scheduling = !dirty_rules;
  Engine engine(opts);
  Program nn_program = BoomFsNnProgram();
  BOOM_CHECK(engine.Install(nn_program).ok());
  TracingOptions trace_opts;
  trace_opts.tables = {"file", "fqpath", "ns_request"};
  BOOM_CHECK(engine.Install(MakeTracingProgram(nn_program, trace_opts)).ok());

  engine.Tick(0);
  double now = 1;
  auto op = [&engine, &now](int64_t id, const std::string& cmd, const std::string& path) {
    BOOM_CHECK(engine
                   .Enqueue("ns_request", Tuple{Value("nn"), Value(id), Value("client"),
                                                Value(cmd), Value(path), Value()})
                   .ok());
    engine.Tick(now);
    engine.Tick(now);
    now += 1;
  };
  for (int d = 0; d < 16; ++d) {
    op(-d - 1, "mkdir", "/d" + std::to_string(d));
  }
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    op(i, "create", "/d" + std::to_string(i % 16) + "/f" + std::to_string(i));
  }
  auto end = std::chrono::steady_clock::now();
  BOOM_CHECK(engine.catalog().Get("file").size() == static_cast<size_t>(kOps) + 17);
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace
}  // namespace boom

int main(int argc, char** argv) {
  using namespace boom;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    }
  }

  struct Config {
    const char* label;
    const char* key;  // JSON workload name
    bool dirty_rules;
  };
  const Config configs[] = {
      {"A. full engine", "full_engine", true},
      {"E. no dirty-rule scheduling", "no_dirty_rule_scheduling", false},
  };

  if (!json) {
    PrintHeader("ablation", "engine dirty-rule scheduling, on and off");
    std::printf("%d monitored namespace ops (real wall-clock):\n\n", kOps);
  } else {
    std::printf("{\n  \"bench\": \"ablation_engine\",\n  \"workloads\": {\n");
  }
  // Warm the allocator and string interner so the first measured config is not penalized
  // relative to later ones; each config then takes the best of three runs.
  RunConfig(true);
  constexpr int kReps = 3;
  double base = 0;
  bool first = true;
  for (const Config& config : configs) {
    double ms = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      double run_ms = RunConfig(config.dirty_rules);
      if (rep == 0 || run_ms < ms) {
        ms = run_ms;
      }
    }
    if (base == 0) {
      base = ms;
    }
    double ops_per_sec = kOps / (ms / 1000.0);
    if (json) {
      if (!first) {
        std::printf(",\n");
      }
      first = false;
      std::printf("    \"%s\": {\"ns_per_op\": %.0f, \"tuples_per_sec\": %.0f}", config.key,
                  ms * 1e6 / kOps, ops_per_sec);
    } else {
      std::printf("  %-32s %10.1f ms   %8.0f ops/s   %6.2fx vs full\n", config.label, ms,
                  ops_per_sec, ms / base);
    }
  }
  if (json) {
    std::printf("\n  }\n}\n");
  } else {
    std::printf(
        "\nReading: E evaluates every rule of a stratum in every fixpoint round instead of\n"
        "only the rules whose driver tables received rows.\n");
  }
  return 0;
}
