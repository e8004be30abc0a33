#include "bench/system/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <unordered_map>

#include "src/base/strings.h"
#include "src/boomfs/protocol.h"
#include "src/overlog/analyzer.h"
#include "src/overlog/engine.h"
#include "src/overlog/parser.h"
#include "src/sim/stats.h"
#include "src/telemetry/trace_query.h"

namespace boom::sysbench {

namespace {

double MsSince(WallClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - t0).count();
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

// Wall-clock series: nine significant digits are far below the clock's noise.
std::string Arr(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string Str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Renders {"k": v, ...} from already-rendered values, in the given order.
std::string Obj(const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Str(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

// The highest percentile with at least ten samples beyond it (p50 for tiny smoke runs).
int TailPercentile(size_t n) {
  if (n >= 1000) {
    return 99;
  }
  return n >= 100 ? 90 : 50;
}

// The process's own peak resident set (VmHWM). getrusage's ru_maxrss is not used: Linux
// carries the pre-exec high-water mark of the forking parent into it, so a small child
// reports the runner's RSS instead of its own.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// Spans the benchmark or a client starts for a whole operation; every other span is one
// message hop named after its table.
bool IsOpSpan(const std::string& name) {
  return name == "bench.op" || name == "fs.write" || name == "fs.read" || name == "mr.job" ||
         name.rfind("ns:", 0) == 0;
}

bool IsOpRoot(const SpanRecord& s) {
  return s.parent_id == 0 && IsOpSpan(s.name) && s.name.rfind("ns:", 0) != 0;
}

}  // namespace

int Scaled(const Options& options, int n, int min) {
  return std::max(min, static_cast<int>(std::lround(n * options.scale)));
}

Harness::Harness(std::string workload, Options options)
    : workload_(std::move(workload)),
      options_(std::move(options)),
      last_checkpoint_(WallClock::now()) {}

void Harness::Attach(Cluster& cluster, std::vector<std::string> engines) {
  cluster_ = &cluster;
  engines_ = std::move(engines);
}

Harness::Counters Harness::Snapshot() const {
  Counters c;
  for (const std::string& addr : engines_) {
    const Engine* engine = cluster_->engine(addr);
    c.ticks += engine->stats().ticks;
    c.derivations += engine->stats().derivations;
    for (const std::string& name : engine->catalog().TableNames()) {
      const Table* table = engine->catalog().Find(name);
      c.index_rebuilds += table->index_rebuilds();
      c.probes += table->probes();
      c.probe_hits += table->probe_hits();
    }
  }
  c.messages = cluster_->net_stats().messages;
  return c;
}

void Harness::BeginTimed() {
  Checkpoint();
  timed_ = true;
  if (options_.trace) {
    tracer_ = std::make_unique<Tracer>(options_.seed, /*max_spans=*/1 << 20);
    cluster_->set_tracer(tracer_.get());
    for (const std::string& addr : engines_) {
      cluster_->engine(addr)->EnableProfiling();
      cluster_->engine(addr)->ResetProfile();
    }
  }
  before_ = Snapshot();
  virt_start_ms_ = cluster_->now();
  timed_start_ = WallClock::now();
  last_checkpoint_ = timed_start_;
}

void Harness::Checkpoint() {
  WallClock::time_point now = WallClock::now();
  (timed_ ? slice_ms_ : setup_ms_)
      .push_back(std::chrono::duration<double, std::milli>(now - last_checkpoint_).count());
  last_checkpoint_ = now;
}

void Harness::EndTimed() {
  timed_s_ = MsSince(timed_start_) / 1000.0;
  after_ = Snapshot();
  // Anything the workload does after this (final oracle reads) is outside the profile.
  cluster_->set_tracer(nullptr);
  for (const std::string& addr : engines_) {
    const Engine* engine = cluster_->engine(addr);
    cluster_->engine(addr)->EnableProfiling(false);
    for (const std::string& name : engine->catalog().TableNames()) {
      rows_end_ += engine->catalog().Find(name)->size();
    }
    for (const Program& program : engine->programs()) {
      if (program.name != "paxos") {
        continue;
      }
      for (const TableDef& def : program.tables) {
        paxos_rows_end_ += engine->catalog().Find(def.name)->size();
      }
    }
  }
}

Harness::Op Harness::StartOp(const std::string& client, bool own_root) {
  Op op;
  op.index = op_wall_us_.size();
  op_wall_us_.push_back(-1);
  if (own_root) {
    op.root = cluster_->StartSpan("bench.op", client);
  }
  op.virt_start_ms = cluster_->now();
  op.wall_start = WallClock::now();
  return op;
}

void Harness::FinishOp(const Op& op, bool ok) {
  double wall_us = MsSince(op.wall_start) * 1000.0;
  cluster_->EndSpan(op.root);
  ++attempted_;
  if (!ok) {
    ++failed_;
    return;
  }
  op_wall_us_[op.index] = wall_us;
  op_virt_ms_.push_back(cluster_->now() - op.virt_start_ms);
  virt_last_done_ms_ = cluster_->now();
}

void Harness::Fail(std::string what) {
  if (errors_.size() < 20) {
    errors_.push_back(std::move(what));
  }
}

void Harness::Digest(std::string_view data) {
  digest_ = Fnv1a64(std::to_string(digest_) + '\xff' + std::string(data));
}

void Harness::Digest(int64_t value) { Digest(std::to_string(value)); }

std::string Harness::TraceJson() {
  // Per-rule profile, summed over every hosted engine.
  std::map<std::string, Engine::RuleProfile> rules;
  std::map<std::string, double> program_wall_us;
  double rule_wall_us = 0;
  uint64_t evals = 0;
  uint64_t tuples = 0;
  std::set<std::string> paxos_tables;
  for (const std::string& addr : engines_) {
    const Engine* engine = cluster_->engine(addr);
    for (const auto& [key, profile] : engine->rule_profiles()) {
      Engine::RuleProfile& sum = rules[key];
      sum.program = profile.program;
      sum.rule = profile.rule;
      sum.evals += profile.evals;
      sum.tuples += profile.tuples;
      sum.wall_us += profile.wall_us;
      program_wall_us[profile.program] += profile.wall_us;
      rule_wall_us += profile.wall_us;
      evals += profile.evals;
      tuples += profile.tuples;
    }
    for (const Program& program : engine->programs()) {
      if (program.name == "paxos") {
        for (const TableDef& def : program.tables) {
          paxos_tables.insert(def.name);
        }
      }
    }
  }
  std::vector<const Engine::RuleProfile*> top;
  for (const auto& [key, profile] : rules) {
    top.push_back(&profile);
  }
  std::stable_sort(top.begin(), top.end(), [](const auto* a, const auto* b) {
    return a->wall_us > b->wall_us;
  });
  top.resize(std::min<size_t>(top.size(), 5));

  // Message hops are attributed to a layer by table; a namespace response belongs to the
  // layer of the request it answers (a shed answer comes from the gateway, not the NN).
  auto layer_of = [&paxos_tables](const std::string& table) -> std::string {
    if (paxos_tables.count(table)) {
      return "paxos";
    }
    if (table == kNsIngress || table == kSvcLoad) {
      return "gw";
    }
    if (table.rfind("dn_", 0) == 0 || table == kReplicateCmd) {
      return "dn";
    }
    if (table.rfind("mr_", 0) == 0 || table.rfind("tt_", 0) == 0 || table == "assign") {
      return "mr";
    }
    return "nn";
  };

  const std::vector<SpanRecord>& spans = tracer_->spans();
  std::map<std::string, uint64_t> msgs;
  std::unordered_map<uint64_t, std::vector<SpanRecord>> by_trace;
  for (const SpanRecord& s : spans) {
    if (!IsOpSpan(s.name) && s.start_ms >= virt_start_ms_) {
      ++msgs[layer_of(s.name)];
    }
    by_trace[s.trace_id].push_back(s);
  }

  // Critical-path split of every operation's virtual latency. CriticalPath scans the
  // span list it is given, so it runs on each trace's own spans.
  std::map<std::string, double> virt_ms = {{"paxos", 0}, {"nn", 0}, {"gw", 0},
                                           {"dn", 0},    {"mr", 0}, {"unattributed", 0}};
  double latency_ms = 0;
  uint64_t op_traces = 0;
  for (const SpanRecord& root : spans) {
    if (!IsOpRoot(root) || !root.ended || root.start_ms < virt_start_ms_) {
      continue;
    }
    double latency = root.end_ms - root.start_ms;
    double attributed = 0;
    std::string prev_layer;
    for (const SpanRecord* s : CriticalPath(by_trace[root.trace_id], root.trace_id)) {
      if (IsOpSpan(s->name)) {
        prev_layer.clear();
        continue;
      }
      std::string layer = s->name == kNsResponse && !prev_layer.empty() ? prev_layer
                                                                         : layer_of(s->name);
      virt_ms[layer] += s->end_ms - s->start_ms;
      attributed += s->end_ms - s->start_ms;
      prev_layer = layer;
    }
    virt_ms["unattributed"] += latency - attributed;
    latency_ms += latency;
    ++op_traces;
  }

  std::vector<std::pair<std::string, std::string>> program_fields;
  for (const auto& [program, wall] : program_wall_us) {
    program_fields.emplace_back(program, Num(wall));
  }
  std::string top_json = "[";
  for (size_t i = 0; i < top.size(); ++i) {
    top_json += (i == 0 ? "[" : ", [") + Str(top[i]->program + ":" + top[i]->rule) + ", " +
                Num(top[i]->wall_us) + ", " + Num(top[i]->evals) + ", " +
                Num(top[i]->tuples) + "]";
  }
  top_json += "]";
  std::vector<std::pair<std::string, std::string>> msg_fields;
  for (const auto& [layer, n] : msgs) {
    msg_fields.emplace_back(layer, Num(n));
  }
  std::vector<std::pair<std::string, std::string>> virt_fields;
  for (const auto& [layer, ms] : virt_ms) {
    virt_fields.emplace_back(layer, Num(ms));
  }

  if (!options_.spans_out.empty()) {
    std::ofstream out(options_.spans_out);
    out << tracer_->ToJson();
    if (!out.good()) {
      Fail("could not write " + options_.spans_out);
    }
  }
  return Obj({{"rule_wall_us", Num(rule_wall_us)},
              {"rule_evals", Num(evals)},
              {"rule_tuples", Num(tuples)},
              {"program_wall_us", Obj(program_fields)},
              {"top_rules", top_json},
              {"spans", Num(static_cast<uint64_t>(spans.size()))},
              {"spans_dropped", Num(static_cast<uint64_t>(tracer_->dropped()))},
              {"msgs", Obj(msg_fields)},
              {"op_traces", Num(op_traces)},
              {"virt_latency_ms", Num(latency_ms)},
              {"virt_ms", Obj(virt_fields)},
              {"compile", CompileJson()}});
}

// Re-compiles every hosted engine's program stack in a fresh engine outside the cluster:
// the pretty-printed source is parsed, analyzed, and installed, each step timed.
std::string Harness::CompileJson() {
  double parse_ms = 0;
  double analyze_ms = 0;
  double install_ms = 0;
  uint64_t rules = 0;
  for (const std::string& addr : engines_) {
    EngineOptions engine_options;
    engine_options.address = addr;
    Engine fresh(engine_options);
    for (const Program& program : cluster_->engine(addr)->programs()) {
      std::string text = program.ToString();
      ParserOptions parser_options;
      AnalyzerOptions analyzer_options;
      analyzer_options.strict_events = false;
      for (const std::string& table : fresh.catalog().TableNames()) {
        parser_options.known_tables.insert(table);
        analyzer_options.external_tables.insert(table);
      }
      for (const std::string& fn : fresh.builtins().Names()) {
        parser_options.known_functions.insert(fn);
      }
      WallClock::time_point t0 = WallClock::now();
      Result<Program> parsed = ParseProgram(text, parser_options);
      parse_ms += MsSince(t0);
      if (!parsed.ok()) {
        Fail("compile: " + program.name + " does not re-parse: " + parsed.status().ToString());
        continue;
      }
      t0 = WallClock::now();
      AnalyzerReport report = AnalyzeProgram(*parsed, analyzer_options);
      analyze_ms += MsSince(t0);
      if (!report.ok()) {
        Fail("compile: " + program.name + " fails analysis");
      }
      rules += parsed->rules.size();
      t0 = WallClock::now();
      Status status = fresh.Install(std::move(parsed).value());
      install_ms += MsSince(t0);
      if (!status.ok()) {
        Fail("compile: " + program.name + " fails to install: " + status.ToString());
      }
    }
  }
  return Obj({{"parse_ms", Num(parse_ms)},
              {"analyze_ms", Num(analyze_ms)},
              {"install_ms", Num(install_ms)},
              {"rules", Num(rules)},
              {"engines", Num(static_cast<uint64_t>(engines_.size()))}});
}

int Harness::Report() {
  int tail = TailPercentile(op_virt_ms_.size());
  const Cluster::NetStats& net = cluster_->net_stats();
  uint64_t dropped = net.dropped_dead + net.dropped_partition + net.dropped_fault;
  std::string trace_json = tracer_ ? TraceJson() : "null";

  std::string errors = "[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    errors += (i == 0 ? "" : ", ") + Str(errors_[i]);
  }
  errors += "]";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(digest_));

  std::string wall = Obj({{"timed_s", Num(timed_s_)},
                          {"peak_rss_mb", Num(PeakRssMb())},
                          {"op_wall_us", Arr(op_wall_us_)},
                          {"setup_ms", Arr(setup_ms_)},
                          {"slice_ms", Arr(slice_ms_)}});
  std::string det = Obj({{"samples", Num(static_cast<uint64_t>(op_virt_ms_.size()))},
                         {"ops_started", Num(static_cast<uint64_t>(op_wall_us_.size()))},
                         {"setup_steps", Num(static_cast<uint64_t>(setup_ms_.size()))},
                         {"slices", Num(static_cast<uint64_t>(slice_ms_.size()))},
                         {"tail_pct", Num(static_cast<uint64_t>(tail))},
                         {"op_virt_ms_p50", Num(Percentile(op_virt_ms_, 50))},
                         {"op_virt_ms_tail", Num(Percentile(op_virt_ms_, tail))},
                         {"virt_to_last_done_ms", Num(virt_last_done_ms_ - virt_start_ms_)},
                         {"ticks", Num(after_.ticks - before_.ticks)},
                         {"derivations", Num(after_.derivations - before_.derivations)},
                         {"messages", Num(after_.messages - before_.messages)},
                         {"index_rebuilds", Num(after_.index_rebuilds - before_.index_rebuilds)},
                         {"probes", Num(after_.probes - before_.probes)},
                         {"probe_hits", Num(after_.probe_hits - before_.probe_hits)},
                         {"rows_end", Num(rows_end_)},
                         {"paxos_rows_end", Num(paxos_rows_end_)},
                         {"requests", Num(requests_)},
                         {"retries", Num(retries_)},
                         {"gw_attempts", Num(gw_attempts_)},
                         {"gw_sheds", Num(gw_sheds_)},
                         {"dropped", Num(dropped)},
                         {"digest", Str(digest)}});
  std::printf("%s\n", Obj({{"workload", Str(workload_)},
                           {"seed", Num(options_.seed)},
                           {"scale", Num(options_.scale)},
                           {"attempted", Num(attempted_)},
                           {"failed", Num(failed_)},
                           {"errors", errors},
                           {"wall", wall},
                           {"det", det},
                           {"trace", trace_json}})
                          .c_str());
  std::fflush(stdout);
  return errors_.empty() ? 0 : 1;
}

}  // namespace boom::sysbench
