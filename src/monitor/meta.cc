#include "src/monitor/meta.h"

#include <set>

#include "src/base/logging.h"
#include "src/telemetry/metrics.h"

namespace boom {

namespace {

constexpr char kBoomFsInvariantsModule[] = R"olg(
// NameNode relations this program joins against (owned by boomfs_nn on the same engine;
// schemas verified at install). invariant_violation is declared by InstallInvariants.
extern table file(FileId, ParentId, FName, IsDir) keys(0);
extern table fqpath(Path, FileId);
extern table fchunk(ChunkId, FileId) keys(0);
extern table hb_chunk(Dn, ChunkId);
extern table invariant_violation(Name, Detail);

// Every chunk of a live file should be reported by at most rep_factor DataNodes
// (over-replication indicates a placement bug).
table inv_chunk_rep(ChunkId, N) keys(0);
iv1 inv_chunk_rep(Ch, count<Dn>) :- fchunk(Ch, _), hb_chunk(Dn, Ch);
iv2 invariant_violation("over_replicated", D) :- inv_chunk_rep(Ch, N), N > rep_factor,
                                                 D := str_cat("chunk ", Ch, " has ", N);

// The directory tree must be acyclic/rooted: every file's parent must exist (except the
// root itself).
iv3 invariant_violation("orphan_inode", D) :- file(F, Par, _, _), F != 0,
                                              notin file(Par, _, _, _),
                                              D := str_cat("file ", F, " parent ", Par);

// fqpath is a function of FileId: two distinct paths for one file id is a view bug.
iv4 invariant_violation("dup_path", D) :- fqpath(P1, F), fqpath(P2, F), P1 != P2,
                                          P1 < P2, D := str_cat(F, ": ", P1, " vs ", P2);
)olg";

constexpr char kUnderReplicationModule[] = R"olg(
// Opt-in: once the workload quiesces, every live chunk with any replica at all should have
// the full complement. (During a write the pipeline fills gradually, so this fires
// spuriously if installed too early.)
extern table inv_chunk_rep(ChunkId, N) keys(0);
extern table invariant_violation(Name, Detail);
iv5 invariant_violation("under_replicated", D) :- inv_chunk_rep(Ch, N), N < rep_factor,
                                                  D := str_cat("chunk ", Ch, " has ", N);
)olg";

constexpr char kRuleHogModule[] = R"olg(
extern table invariant_violation(Name, Detail);

// Same shapes the engine declares in PublishProfile(); redeclaring identically is a no-op,
// so this program installs whether or not profiling was enabled first.
table perf_rule(Program, Rule, Evals, Tuples, MaxTuplesPerTick, WallUs) keys(0, 1);
table perf_fixpoint(Tick, NowMs, Rounds, Derivs, WallUs) keys(0);

// Joins the profile the engine publishes via PublishProfile(): no single rule may derive
// more than hog_cap tuples in one fixpoint (a hog usually means a missing join key or a
// runaway recursive rule).
rh1 invariant_violation("rule_hog", D) :- perf_rule(P, R, _, _, M, _), M > hog_cap,
                                          D := str_cat(P, ":", R, " peaked at ", M,
                                                       " tuples/fixpoint");
)olg";

}  // namespace

Program MakeTracingProgram(const Program& program, const TracingOptions& options) {
  std::set<std::string> wanted(options.tables.begin(), options.tables.end());
  Program out;
  out.name = program.name + "_trace";

  for (const TableDef& def : program.tables) {
    if (!wanted.empty() && wanted.count(def.name) == 0) {
      continue;
    }
    // trace_<name>(TraceTime, <cols...>), set semantics (all columns keyed).
    TableDef trace;
    trace.name = "trace_" + def.name;
    trace.columns.push_back("TraceTime");
    for (const std::string& col : def.columns) {
      trace.columns.push_back(col);
    }
    out.tables.push_back(trace);

    // trace_<name>(T, C0..Cn) :- <name>(C0..Cn), T := f_now();
    Rule rule;
    rule.name = "trace_" + def.name + "_r";
    rule.head.table = trace.name;
    HeadArg time_arg;
    time_arg.expr = Expr::Var("TraceTime");
    rule.head.args.push_back(time_arg);
    Atom body;
    body.table = def.name;
    for (size_t i = 0; i < def.columns.size(); ++i) {
      std::string var = "C" + std::to_string(i);
      body.args.push_back(Expr::Var(var));
      HeadArg arg;
      arg.expr = Expr::Var(var);
      rule.head.args.push_back(arg);
    }
    rule.body.push_back(BodyTerm::MakeAtom(std::move(body)));
    Assignment assign;
    assign.var = "TraceTime";
    assign.expr = Expr::Call("f_now", {});
    rule.body.push_back(BodyTerm::MakeAssign(std::move(assign)));
    out.rules.push_back(std::move(rule));

    if (options.with_counts) {
      // trace_cnt_<name>(1, count<T>) :- trace_<name>(T, ...);
      TableDef cnt;
      cnt.name = "trace_cnt_" + def.name;
      cnt.columns = {"K", "N"};
      cnt.key_columns = {0};
      out.tables.push_back(cnt);

      Rule cnt_rule;
      cnt_rule.name = "trace_cnt_" + def.name + "_r";
      cnt_rule.head.table = cnt.name;
      HeadArg key;
      key.expr = Expr::Const(Value(1));
      cnt_rule.head.args.push_back(key);
      HeadArg agg;
      agg.agg = AggKind::kCount;
      agg.expr = Expr::Var("TraceTime");
      cnt_rule.head.args.push_back(agg);
      Atom cnt_body;
      cnt_body.table = trace.name;
      cnt_body.args.push_back(Expr::Var("TraceTime"));
      for (size_t i = 0; i < def.columns.size(); ++i) {
        cnt_body.args.push_back(Expr::Var("_AnonTrace" + std::to_string(i)));
      }
      cnt_rule.body.push_back(BodyTerm::MakeAtom(std::move(cnt_body)));
      out.rules.push_back(std::move(cnt_rule));
    }
  }
  return out;
}

Status InstallInvariants(Engine& engine, const Program& rules,
                         std::vector<std::string>* sink) {
  if (engine.catalog().Find("invariant_violation") == nullptr) {
    TableDef def;
    def.name = "invariant_violation";
    def.columns = {"Name", "Detail"};
    BOOM_RETURN_IF_ERROR(engine.catalog().Declare(def));
  }
  BOOM_RETURN_IF_ERROR(engine.Install(rules));
  engine.AddWatch("invariant_violation",
                  [sink](const std::string&, const Tuple& tuple, bool inserted) {
                    if (inserted) {
                      sink->push_back(tuple.ToString());
                    }
                  });
  return Status::Ok();
}

const Module& BoomFsInvariantsModule() {
  static const Module* kModule = new Module{
      "boomfs_invariants",
      kBoomFsInvariantsModule,
      {ModuleParam::Required("rep_factor", ValueKind::kInt)},
  };
  return *kModule;
}

const Module& BoomFsUnderReplicationModule() {
  static const Module* kModule = new Module{
      "boomfs_under_replication",
      kUnderReplicationModule,
      {ModuleParam::Required("rep_factor", ValueKind::kInt)},
  };
  return *kModule;
}

Program BoomFsInvariantProgram(int replication_factor, bool include_under_replication) {
  ProgramBuilder builder("boomfs_invariants");
  ParamBindings rep = {{"rep_factor", replication_factor}};
  Status status = builder.Add(BoomFsInvariantsModule(), rep);
  BOOM_CHECK(status.ok()) << status.ToString();
  if (include_under_replication) {
    status = builder.Add(BoomFsUnderReplicationModule(), rep);
    BOOM_CHECK(status.ok()) << status.ToString();
  }
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

Status InstallProfiling(Engine& engine) {
  engine.EnableProfiling(true);
  TableDef rule_def;
  rule_def.name = "perf_rule";
  rule_def.columns = {"Program", "Rule", "Evals", "Tuples", "MaxTuplesPerTick", "WallUs"};
  rule_def.key_columns = {0, 1};
  BOOM_RETURN_IF_ERROR(engine.catalog().Declare(rule_def));
  TableDef fix_def;
  fix_def.name = "perf_fixpoint";
  fix_def.columns = {"Tick", "NowMs", "Rounds", "Derivs", "WallUs"};
  fix_def.key_columns = {0};
  BOOM_RETURN_IF_ERROR(engine.catalog().Declare(fix_def));
  TableDef table_def;
  table_def.name = "perf_table";
  table_def.columns = {"Name", "Rows", "Probes", "IndexHits"};
  table_def.key_columns = {0};
  return engine.catalog().Declare(table_def);
}

const Module& RuleHogInvariantsModule() {
  static const Module* kModule = new Module{
      "rule_hog_invariants",
      kRuleHogModule,
      {ModuleParam::Required("hog_cap", ValueKind::kInt)},
  };
  return *kModule;
}

Program RuleHogInvariantProgram(int64_t max_tuples_per_fixpoint) {
  ProgramBuilder builder("rule_hog_invariants");
  Status status =
      builder.Add(RuleHogInvariantsModule(), {{"hog_cap", max_tuples_per_fixpoint}});
  BOOM_CHECK(status.ok()) << status.ToString();
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

void ExportTableMetrics(const Engine& engine) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const std::string& name : engine.catalog().TableNames()) {
    const Table& table = engine.catalog().Get(name);
    const std::string prefix = "engine.table." + name + ".";
    registry.gauge(prefix + "rows").Set(static_cast<double>(table.size()));
    registry.gauge(prefix + "probes").Set(static_cast<double>(table.probes()));
    registry.gauge(prefix + "probe_hits").Set(static_cast<double>(table.probe_hits()));
  }
}

}  // namespace boom
