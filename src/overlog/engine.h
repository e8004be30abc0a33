// Engine: one node's Overlog runtime.
//
// Follows JOL/P2 timestep semantics. External inputs (network tuples, client requests, timer
// firings) queue in an inbox. Tick(now) then:
//   0. expires soft-state (ttl) rows that were not refreshed,
//   1. fires due timers (as events),
//   2. applies the inbox (including @next derivations deferred from the previous step),
//   3. runs each stratum to a semi-naive fixpoint (aggregates maintained incrementally where
//      eligible, otherwise recomputed at stratum entry when their inputs changed),
//   4. applies deletions derived by `delete` rules,
//   5. clears event tables and returns tuples destined for other nodes.
//
// Multiple programs can be installed on one engine (e.g. Paxos + BOOM-FS on a NameNode
// replica); rules are recompiled and stratified over the union.

#ifndef SRC_OVERLOG_ENGINE_H_
#define SRC_OVERLOG_ENGINE_H_

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/analyzer.h"
#include "src/overlog/builtins.h"
#include "src/overlog/catalog.h"
#include "src/overlog/eval.h"
#include "src/overlog/parser.h"
#include "src/overlog/planner.h"

namespace boom {

struct EngineOptions {
  std::string address = "local";
  uint64_t seed = 1;
  // Safety valve: a tick aborts (with an error) after this many fixpoint rounds.
  size_t max_rounds_per_tick = 100000;
  // f_unique_id() salt; defaults to a hash of the address. Replicated state machines that
  // replay an identical command log set the same salt on every replica so minted ids agree.
  std::optional<uint64_t> id_salt;
  // Ablation switches (benchmarks only): fall back to full recomputation strategies.
  bool disable_incremental_aggregates = false;
  bool disable_aggregate_version_skip = false;
  // Ablation/validation switch: fixpoint rounds scan every rule in the stratum instead of
  // only those whose driver tables received deltas. Must derive identical fixpoints (see
  // engine_test DirtySchedulingMatchesExhaustive).
  bool disable_dirty_rule_scheduling = false;
  // Profile-guided cost-based optimizer (DESIGN.md §13). Off by default: the default path
  // compiles the classic greedy most-bound-first plans and stays byte-identical to every
  // pinned trace. When on: rule bodies are ordered by a cardinality cost model seeded from
  // live table stats, and the secondary indexes the chosen plans probe are pre-warmed after
  // each (re)compile. Only the plan changes: evaluation is the same serial per-rule loop
  // either way, and index maintenance does not depend on this switch (key-covered probes
  // always read the row map; every secondary index is updated in place on each mutation).
  // Re-planning happens deterministically at tick boundaries when observed row counts
  // drift (see replan_* below), so runs stay byte-identical per seed.
  bool enable_optimizer = false;
  // Re-plan at a tick boundary when some table's row count and the count recorded at plan
  // time differ by more than replan_drift_factor (and the larger side has at least
  // replan_min_rows rows — tiny tables re-order for free anyway and would thrash).
  double replan_drift_factor = 4.0;
  uint64_t replan_min_rows = 64;
};

class Engine {
 public:
  explicit Engine(EngineOptions options);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const std::string& address() const { return options_.address; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  BuiltinRegistry& builtins() { return builtins_; }
  std::mt19937_64& rng() { return rng_; }
  double now() const { return now_ms_; }

  // Parses and installs a program. Tables declared by earlier programs are visible.
  Status InstallSource(std::string_view source, std::map<std::string, Value> consts = {});
  Status Install(Program program);
  const std::vector<Program>& programs() const { return programs_; }

  // Advisory analyzer report for each installed program (parallel to programs()). Run with
  // strict_events off: at engine level an event with no in-program producer may be fed by
  // the host, so it is only a warning here.
  const std::vector<AnalyzerReport>& analyzer_reports() const { return analyzer_reports_; }

  // Queues an external tuple (message arrival, client request). Applied on the next Tick.
  Status Enqueue(const std::string& table, Tuple tuple);
  bool HasQueuedInput() const { return !inbox_.empty(); }

  // Earliest pending timer deadline, or +inf when no timers are installed.
  double NextTimerDeadline() const;

  struct Send {
    std::string dest;
    std::string table;
    Tuple tuple;
  };
  struct TickResult {
    std::vector<Send> sends;
    std::vector<std::string> errors;
    size_t derivations = 0;
    size_t rounds = 0;
  };

  // Runs one timestep at virtual time `now_ms` (must be non-decreasing).
  TickResult Tick(double now_ms);

  // Watch callback: fired when a tuple is inserted into (or deleted from) `table` during a
  // tick, including event derivations. `inserted` is false for deletions.
  using WatchFn = std::function<void(const std::string& table, const Tuple&, bool inserted)>;
  void AddWatch(const std::string& table, WatchFn fn);

  struct Stats {
    uint64_t ticks = 0;
    uint64_t derivations = 0;
    uint64_t messages_sent = 0;
    uint64_t tuples_enqueued = 0;
    uint64_t replans = 0;  // drift-triggered deterministic re-plans (enable_optimizer only)
  };
  const Stats& stats() const { return stats_; }

  // Rule/stratum introspection (used by tests and the monitoring layer).
  const CompiledProgram& compiled() const { return compiled_; }

  // Human-readable dump of the current compiled plan: per-rule variant orderings (with cost
  // estimates under the optimizer) and chosen warm indexes. Backs `olgrun --explain`.
  std::string ExplainPlan() const;

  // --- per-rule profiling ---
  //
  // When enabled, every rule evaluation is timed and counted; per-tick fixpoint summaries
  // are kept for the most recent ticks. When disabled (the default), the eval loops pay one
  // predictable branch per rule and nothing else.

  struct RuleProfile {
    std::string program;
    std::string rule;
    uint64_t evals = 0;             // evaluation calls (delta rounds / agg recomputations)
    uint64_t tuples = 0;            // derivations produced across all ticks
    uint64_t max_tuples_per_tick = 0;
    double wall_us = 0;             // cumulative wall-clock evaluation time
  };
  struct FixpointProfile {
    uint64_t tick = 0;       // stats().ticks value for this tick (1-based)
    double now_ms = 0;       // virtual time of the tick
    uint64_t rounds = 0;     // semi-naive rounds across strata
    uint64_t derivations = 0;
    double wall_us = 0;      // wall-clock time of the whole tick
  };

  void EnableProfiling(bool on = true) { profile_ = on; }
  bool profiling() const { return profile_; }
  // Cumulative per-rule counters, keyed by "<program>:<rule>"; sorted by key.
  const std::map<std::string, RuleProfile>& rule_profiles() const { return rule_profiles_; }
  // Per-tick summaries, oldest first, bounded to the most recent kMaxFixpointProfiles.
  const std::deque<FixpointProfile>& fixpoint_profiles() const { return fixpoint_profiles_; }
  void ResetProfile();

  // Publishes the current profile into the Overlog tables
  //   perf_rule(@Program, Rule, Evals, Tuples, MaxTuplesPerTick, WallUs)  keys(0,1)
  //   perf_fixpoint(@Tick, NowMs, Rounds, Derivs, WallUs)                 keys(0)
  //   perf_table(@Name, Rows, Probes, IndexHits)                          keys(0)
  // declaring them on first use, so monitoring rewrites and invariants can query the
  // profile like any other relation. Publication is explicit (not automatic each tick): a
  // rule that reads perf_* must not re-trigger the profiling it observes, which an
  // every-tick feedback loop would. Rows are enqueued and land on the next Tick.
  Status PublishProfile();

  static constexpr size_t kMaxFixpointProfiles = 256;

 private:
  struct TimerState {
    std::string name;
    double period_ms;
    double next_deadline;
  };
  // Running accumulator for one aggregate position of one group (incremental aggregates).
  struct AggAccum {
    int64_t count = 0;
    bool sum_is_int = true;
    int64_t sum_i = 0;
    double sum_d = 0;
    bool has_minmax = false;
    Value min;
    Value max;

    void Fold(const Value& v);
    Value Finish(AggKind kind) const;
  };

  struct AggState {
    // group key -> last derived head tuple (local groups only).
    std::map<Tuple, Tuple> last_output;
    // last tuple sent per destination+group, to suppress duplicate sends.
    std::map<Tuple, Tuple> last_sent;
    // Sum of input-table versions at the last recomputation (skip when unchanged).
    bool has_input_version = false;
    uint64_t input_version_sum = 0;
    // Incremental path: group key -> one accumulator per aggregate head position.
    std::map<Tuple, std::vector<AggAccum>> accum;
  };

  Status Recompile();
  // Optimizer support: snapshots per-table stats (rows, per-column distinct counts, probe
  // hit ratios) for the planner's cost model. Deterministic per seed: derived only from
  // table contents and monotone counters.
  void HarvestPlannerStats(std::unordered_map<std::string, TableStats>* stats) const;
  // Returns true when some table's row count has drifted past the re-plan threshold since
  // the current plan was produced.
  bool PlanDrifted() const;
  void RecordRuleEval(const CompiledRule& rule, uint64_t tuples, double wall_us,
                      std::map<std::string, uint64_t>& tick_tuples);
  void FireWatches(const std::string& table, const Tuple& tuple, bool inserted);
  // Inserts locally; appends to tick_new_ on change; fires watches. Returns true if new.
  bool ApplyLocalInsert(const std::string& table, const Tuple& tuple);

  EngineOptions options_;
  Catalog catalog_;
  BuiltinRegistry builtins_;
  std::mt19937_64 rng_;
  EvalContext ctx_;
  Evaluator evaluator_;

  std::vector<Program> programs_;
  std::vector<AnalyzerReport> analyzer_reports_;
  CompiledProgram compiled_;
  std::vector<TimerState> timers_;
  std::map<std::string, std::vector<WatchFn>> watches_;
  std::map<std::string, AggState> agg_state_;  // keyed by rule name

  std::vector<std::pair<std::string, Tuple>> inbox_;
  // Tuples newly inserted this tick. Keyed lookups only on the hot path; the per-round delta
  // snapshot in Tick copies into an ordered map, so iteration order here never leaks into
  // evaluation order (determinism).
  std::unordered_map<std::string, std::vector<Tuple>> tick_new_;

  // Optimizer: per-table row counts recorded when the current plan was produced; the
  // re-plan drift check compares live counts against these at tick entry. Table pointers
  // (stable for the catalog's lifetime) rather than names: the check runs every tick and
  // must not pay per-table map lookups.
  std::vector<std::pair<const Table*, uint64_t>> planned_rows_;

  double now_ms_ = 0;
  bool needs_seed_ = false;
  uint64_t id_counter_ = 0;
  Stats stats_;

  bool profile_ = false;
  std::map<std::string, RuleProfile> rule_profiles_;  // keyed by "<program>:<rule>"
  std::deque<FixpointProfile> fixpoint_profiles_;
};

}  // namespace boom

#endif  // SRC_OVERLOG_ENGINE_H_
