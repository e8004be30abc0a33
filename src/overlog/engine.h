// Engine: one node's Overlog runtime.
//
// Follows JOL/P2 timestep semantics. External inputs (network tuples, client requests, timer
// firings) queue in an inbox. Tick(now) then:
//   0. expires soft-state (ttl) rows that were not refreshed,
//   1. fires due timers (as events),
//   2. applies the inbox (including @next derivations deferred from the previous step),
//   3. runs each stratum to a semi-naive fixpoint. At stratum entry, each aggregate rule with
//      affected groups updates just those groups (see AggregatePlan): a group is affected
//      when a row that entered or left a body table takes part in one of its bindings.
//      Inserts are read from the delta buffers, except that a row entering a table the rule
//      negates marks its groups as it enters; a removal (delete rule, key replacement, TTL
//      expiry, event clear, a lower aggregate's retraction) marks its groups through the
//      table's removal observer, before the row leaves. Each change is judged against the
//      state it happens in, so the first change to end a binding finds it whole,
//   4. applies deletions derived by `delete` rules,
//   5. clears event tables and returns tuples destined for other nodes.
//
// Multiple programs can be installed on one engine (e.g. Paxos + BOOM-FS on a NameNode
// replica); rules are recompiled and stratified over the union.
//
// The tick runs on dense ids resolved at compile time: tables by Table::id(), rules by their
// index in compiled().rules. Each table's rows inserted this tick sit in one append-only
// delta buffer; a fixpoint round consumes each buffer as a [begin, end) range, so no row is
// copied per stratum or per round.

#ifndef SRC_OVERLOG_ENGINE_H_
#define SRC_OVERLOG_ENGINE_H_

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
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
  // Installs several programs in order with one recompilation of the union (what
  // installing them one by one would compile last). On error none of them is added to
  // programs(), as with a failed single install.
  Status Install(std::vector<Program> programs);
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
  };
  const Stats& stats() const { return stats_; }

  // Rule/stratum introspection (used by tests and the monitoring layer).
  const CompiledProgram& compiled() const { return compiled_; }

  // Human-readable dump of the current compiled plan: per-rule variant orderings, with each
  // atom's probe columns and key lookups marked "[key]". Backs `olgrun --explain`.
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
  // Cumulative per-rule counters of every rule evaluated at least once, keyed by
  // "<program>:<rule>"; sorted by key. Built on each call.
  std::map<std::string, RuleProfile> rule_profiles() const;
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
    uint32_t table_id;  // the timer's event table
    double period_ms;
    double next_deadline;
  };
  // Running ± accumulator for one aggregate position of one group: the sums over every
  // binding that entered minus every binding that left.
  struct AggAccum {
    int64_t count = 0;
    __int128 sum = 0;     // of the integer inputs
    int64_t non_int = 0;  // inputs that are not integers: sum<>/avg<> need a recompute

    void Add(const Value& v, int64_t sign);
  };

  struct AggState {
    // group key -> head row last derived for it (local, persistent heads only).
    std::map<Tuple, Tuple> output;
    // last tuple sent per destination+group, to suppress duplicate sends.
    std::map<Tuple, Tuple> last_sent;
    // ± rules: group key -> one accumulator per aggregate head position.
    std::map<Tuple, std::vector<AggAccum>> accum;
    // Affected group keys found since the rule's last update (unsorted, may repeat). A
    // nonempty list puts the rule on agg_pending_ for its stratum.
    std::vector<Tuple> marked;
  };

  // One table's rows inserted (new or replaced) this tick, in insertion order. A fixpoint
  // round consumes rows[begin, end); rows appended during the round wait for the next one.
  struct DeltaBuffer {
    std::vector<Tuple> rows;
    size_t begin = 0;
    size_t end = 0;
  };

  // Per-rule profiling counters; names are attached only in rule_profiles().
  struct RuleStats {
    uint64_t evals = 0;
    uint64_t tuples = 0;
    uint64_t max_tuples_per_tick = 0;
    uint64_t tick_tuples = 0;  // this tick so far
    double wall_us = 0;
  };

  // Declares `program`'s tables, checks its facts and timers, and records its analyzer
  // report; the caller appends it to programs_ and recompiles.
  Status Stage(const Program& program);
  // Inserts a staged program's facts and arms its timers and watches, once its install
  // can no longer fail.
  void Load(const Program& program);
  Status Recompile();
  // Marks the groups `row` takes part in for each of `readers` (a ± rule also subtracts the
  // row's bindings). A table's removal observer calls it with the table's agg_readers.
  void MarkGroups(const std::vector<AggReader>& readers, const Tuple& row);
  // Adds (sign +1) or subtracts (-1) the bindings of rows [begin, end) to a ± rule's
  // accumulators and marks their groups.
  void FoldBindings(size_t rule_idx, const Tuple* begin, const Tuple* end, int64_t sign);
  // Step 4a for one dirty aggregate rule: marks the groups of this tick's inserts, derives
  // every marked group's row in group-key order, then retracts emptied groups.
  void UpdateAggregate(size_t rule_idx, TickResult* result);
  // A ± group's head row from its accumulators (left empty when its sum<> overflows, with
  // the error in `result`). False when a sum<>/avg<> holds non-integer inputs: the group
  // must be recomputed.
  bool PlusMinusRow(const CompiledRule& rule, const Tuple& key,
                    const std::vector<AggAccum>& accums, Tuple* row, TickResult* result);
  void RecordRuleEval(size_t rule_idx, uint64_t tuples, double wall_us);
  void FireWatches(const std::string& table, const Tuple& tuple, bool inserted);
  // Appends `tuple` to table `id`'s delta buffer.
  void AppendDelta(uint32_t id, const Tuple& tuple);
  // Inserts locally; on change marks the groups of aggregates negating the table, appends to
  // the delta buffer and fires watches. Returns true if new.
  bool ApplyLocalInsert(uint32_t id, const Tuple& tuple);

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
  std::vector<AggState> agg_state_;  // by rule id
  std::vector<uint32_t> observed_events_;  // event tables with a removal observer
  // By stratum: aggregate rules with marked groups, due at that stratum's next entry.
  std::vector<std::vector<size_t>> agg_pending_;

  std::vector<std::pair<uint32_t, Tuple>> inbox_;  // (table id, row)
  std::vector<DeltaBuffer> deltas_;   // by table id; emptied at the end of every tick
  std::vector<uint32_t> touched_;     // ids whose delta buffer is nonempty this tick
  // Tick scratch, kept to reuse its capacity: derivations of the rule being applied, and
  // the dirty-rule worklist (positions in a stratum's delta_rules) with its all-zero-
  // between-rounds membership marks.
  std::vector<Derivation> derived_;
  std::vector<size_t> dirty_worklist_;
  std::vector<char> dirty_mark_;
  std::vector<size_t> agg_dirty_;  // aggregate rules to update at this stratum's entry
  std::vector<std::vector<Value>> agg_inputs_;  // FoldBindings scratch

  double now_ms_ = 0;
  bool needs_seed_ = false;
  uint64_t id_counter_ = 0;
  Stats stats_;

  bool profile_ = false;
  std::vector<RuleStats> rule_stats_;  // by rule id
  std::vector<size_t> tick_profiled_;  // rule ids with tick_tuples > 0 this tick
  std::deque<FixpointProfile> fixpoint_profiles_;
};

}  // namespace boom

#endif  // SRC_OVERLOG_ENGINE_H_
