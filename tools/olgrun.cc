// olgrun: load and execute an Overlog program from one or more .olg files.
//
//   olgrun program.olg [more.olg ...] [--until MS] [--dump table1,table2] [--check]
//
// Multiple files are concatenated through ProgramBuilder into a single program: later
// files see the tables of earlier ones, and the analyzer vets the composition before it
// reaches the engine. With --check the program is analyzed and never run (olglint with
// run-mode flags). The program runs on a single local engine: timers fire in virtual
// time, `watch`ed tables print as they change, and the selected tables (default: all)
// are dumped at the end. See olg/ for example programs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "src/base/strings.h"
#include "src/monitor/meta.h"
#include "src/overlog/engine.h"
#include "src/overlog/module.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: olgrun <program.olg> [more.olg ...] [--until MS] [--dump t1,...]\n"
               "  --until MS   advance virtual time to MS, firing timers (default 1000)\n"
               "  --dump LIST  dump only these tables at exit (default: all non-empty)\n"
               "  --trace      install the metaprogrammed tracing rewrite (trace_* tables)\n"
               "  --profile    per-rule profile: evals, tuples, wall time per rule\n"
               "  --explain    print the compiled plan after install: greedy join orders,\n"
               "               probe columns, [key] for key lookups\n"
               "  --check      analyze only (strict): print diagnostics, do not run\n");
}

void PrintRuleProfile(const boom::Engine& engine) {
  std::vector<const boom::Engine::RuleProfile*> rules;
  for (const auto& [key, profile] : engine.rule_profiles()) {
    rules.push_back(&profile);
  }
  std::sort(rules.begin(), rules.end(),
            [](const boom::Engine::RuleProfile* a, const boom::Engine::RuleProfile* b) {
              if (a->wall_us != b->wall_us) {
                return a->wall_us > b->wall_us;
              }
              return std::tie(a->program, a->rule) < std::tie(b->program, b->rule);
            });
  std::printf("rule profile (%zu rules):\n", rules.size());
  std::printf("  %-40s  %8s  %8s  %9s  %10s\n", "RULE", "EVALS", "TUPLES", "MAX/TICK",
              "WALL_US");
  for (const boom::Engine::RuleProfile* r : rules) {
    std::string name = r->program + ":" + r->rule;
    std::printf("  %-40s  %8llu  %8llu  %9llu  %10.1f\n", name.c_str(),
                static_cast<unsigned long long>(r->evals),
                static_cast<unsigned long long>(r->tuples),
                static_cast<unsigned long long>(r->max_tuples_per_tick), r->wall_us);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::vector<std::string> paths;
  double until_ms = 1000;
  bool trace = false;
  bool profile = false;
  bool check_only = false;
  bool explain = false;
  std::vector<std::string> dump_tables;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--until" && i + 1 < argc) {
      until_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--dump" && i + 1 < argc) {
      dump_tables = boom::StrSplitSkipEmpty(argv[++i], ',');
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--check") {
      check_only = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    Usage();
    return 2;
  }

  // Compose the input files into one program. The builder threads the accumulated table
  // declarations through, so a later file can use relations an earlier one declared.
  boom::ProgramBuilder builder("");
  // Run mode is permissive about event producers (a demo may leave an event for the
  // reader to feed); --check is the strict lint.
  builder.analyzer_options().strict_events = check_only;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    boom::Status status = builder.AddProgramText(buf.str(), path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  boom::AnalyzerReport report;
  boom::Result<boom::Program> built = builder.Build(&report);
  if (check_only) {
    if (!report.diagnostics.empty()) {
      std::fprintf(stderr, "%s", report.ToString().c_str());
    }
    std::fprintf(stderr, "%s: %zu error(s), %zu warning(s), %zu advisory(s)\n",
                 built.ok() ? built->name.c_str() : "olgrun",
                 report.num_errors(), report.num_warnings(), report.num_advisories());
    return report.num_errors() == 0 ? 0 : 1;
  }
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  for (const boom::Diagnostic& d : report.diagnostics) {
    std::fprintf(stderr, "%s\n", d.ToString().c_str());
  }

  boom::EngineOptions options;
  options.address = "olgrun";
  boom::Engine engine(options);
  boom::Status status = engine.Install(*built);
  if (!status.ok()) {
    std::fprintf(stderr, "install failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (explain) {
    std::printf("%s", engine.ExplainPlan().c_str());
  }
  if (trace) {
    // Monitoring-as-metaprogramming: rewrite the loaded program into a companion that
    // records every insertion as trace_<table>(Time, cols...) rows, and install both.
    status = engine.Install(boom::MakeTracingProgram(engine.programs()[0]));
    if (!status.ok()) {
      std::fprintf(stderr, "tracing rewrite failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (profile) {
    status = boom::InstallProfiling(engine);
    if (!status.ok()) {
      std::fprintf(stderr, "profiling install failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Drive the engine: initial tick, then timer deadlines up to --until.
  size_t total_derivations = 0;
  double now = 0;
  while (true) {
    boom::Engine::TickResult result = engine.Tick(now);
    total_derivations += result.derivations;
    for (const std::string& err : result.errors) {
      std::fprintf(stderr, "warning: %s\n", err.c_str());
    }
    double next = engine.NextTimerDeadline();
    if (engine.HasQueuedInput()) {
      next = now;  // deferred @next tuples: run another timestep immediately
    }
    if (next > until_ms || next == std::numeric_limits<double>::infinity()) {
      break;
    }
    now = std::max(now, next);
  }

  if (profile) {
    // Land the accumulated profile in perf_rule / perf_fixpoint (one extra timestep —
    // Publish enqueues, the tick applies) so --dump and monitor rules can see it.
    status = engine.PublishProfile();
    if (!status.ok()) {
      std::fprintf(stderr, "profile publish failed: %s\n", status.ToString().c_str());
      return 1;
    }
    engine.Tick(now);
  }

  // Final dump.
  std::vector<std::string> tables =
      dump_tables.empty() ? engine.catalog().TableNames() : dump_tables;
  for (const std::string& name : tables) {
    const boom::Table* table = engine.catalog().Find(name);
    if (table == nullptr) {
      std::fprintf(stderr, "no such table: %s\n", name.c_str());
      continue;
    }
    if (table->empty() && dump_tables.empty()) {
      continue;
    }
    std::printf("%s (%zu rows):\n", name.c_str(), table->size());
    std::vector<boom::Tuple> rows = table->Rows();
    std::sort(rows.begin(), rows.end());
    for (const boom::Tuple& row : rows) {
      std::printf("  %s\n", row.ToString().c_str());
    }
  }
  if (profile) {
    PrintRuleProfile(engine);
  }
  std::printf("-- %zu derivations, virtual time %.0f ms --\n", total_derivations, now);
  return 0;
}
