// Metaprogramming (paper revision F4 / MR monitoring): Overlog programs are data, so
// monitoring is a program rewrite. Given a parsed Program, these functions return a new
// Program with tracing and counting rules added; invariants are ordinary Overlog rules
// installed next to the program they guard.

#ifndef SRC_MONITOR_META_H_
#define SRC_MONITOR_META_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/ast.h"
#include "src/overlog/engine.h"
#include "src/overlog/module.h"

namespace boom {

struct TracingOptions {
  // Tables to trace; empty = every table and event in the program.
  std::vector<std::string> tables;
  // Also add a count-rollup table trace_cnt_<name>(K, N) per traced table.
  bool with_counts = true;
};

// Returns a companion program ("<name>_trace") that, when installed on the same engine,
// records every insertion into the selected tables as trace_<name>(Time, cols...) rows.
Program MakeTracingProgram(const Program& program, const TracingOptions& options = {});

// Installs an invariant program (violations should derive tuples of
// `invariant_violation(Name, Detail)`), declares the violation table if needed, and wires a
// watch that collects violations into `sink`.
Status InstallInvariants(Engine& engine, const Program& rules,
                         std::vector<std::string>* sink);

// The BOOM-FS invariant modules: `extern` declarations pin the schemas of the NameNode
// tables they join against, verified when the program lands on the NameNode's engine. Both
// take the typed parameter rep_factor (int).
const Module& BoomFsInvariantsModule();
const Module& BoomFsUnderReplicationModule();

// The BOOM-FS invariants from the paper's monitoring discussion: chunk replication bounds
// and response coverage are expressible as rules over the NameNode's own tables. The
// under-replication check is an opt-in second module because chunks legitimately hold fewer
// than `replication_factor` replicas while a pipeline is still filling; enable it only once
// the workload has quiesced (or after inducing a failure on purpose).
Program BoomFsInvariantProgram(int replication_factor,
                               bool include_under_replication = false);

// Turns on per-rule profiling and declares the perf_rule(Program, Rule, Evals, Tuples,
// MaxTuplesPerTick, WallUs), perf_fixpoint(Tick, NowMs, Rounds, Derivs, WallUs), and
// perf_table(Name, Rows, Probes, IndexHits) tables up front, so monitor rules can join
// against them before the first Engine::PublishProfile(). Profiles accumulate in C++ and
// only land in the tables when PublishProfile() is called (keeping rules-over-perf-tables
// from feeding back into the profile they observe).
Status InstallProfiling(Engine& engine);

// Invariant over the published profile: no rule may derive more than
// `max_tuples_per_fixpoint` tuples in a single fixpoint (typed parameter hog_cap). Install
// with InstallInvariants after InstallProfiling; fires once Engine::PublishProfile() lands
// perf_rule rows.
const Module& RuleHogInvariantsModule();
Program RuleHogInvariantProgram(int64_t max_tuples_per_fixpoint);

// Mirrors the live per-table stats (and, when the optimizer is on, its re-plan counter) into
// the process-wide MetricsRegistry as engine.table.<name>.{rows,probes,probe_hits} gauges
// and the engine.optimizer.replans gauge, so monitor dashboards see the same numbers
// perf_table publishes without an extra tick.
void ExportTableMetrics(const Engine& engine);

}  // namespace boom

#endif  // SRC_MONITOR_META_H_
