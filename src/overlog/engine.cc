#include "src/overlog/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace boom {

void Engine::AggAccum::Add(const Value& v, int64_t sign) {
  count += sign;
  if (v.is_int()) {
    sum += sign * static_cast<__int128>(v.as_int());
  } else {
    non_int += sign;
  }
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      builtins_(BuiltinRegistry::Standard()),
      rng_(options_.seed),
      evaluator_(&catalog_, &builtins_, &ctx_) {
  ctx_.local_address = options_.address;
  ctx_.rng = &rng_;
  ctx_.id_counter = &id_counter_;
  ctx_.id_salt = options_.id_salt.value_or(Fnv1a64(options_.address));
}

Status Engine::InstallSource(std::string_view source, std::map<std::string, Value> consts) {
  ParserOptions popts;
  for (const std::string& name : catalog_.TableNames()) {
    popts.known_tables.insert(name);
  }
  popts.consts = std::move(consts);
  for (const std::string& fn : builtins_.Names()) {
    popts.known_functions.insert(fn);
  }
  Result<Program> program = ParseProgram(source, popts);
  if (!program.ok()) {
    return program.status();
  }
  return Install(std::move(program).value());
}

Status Engine::Install(Program program) {
  std::vector<Program> programs;
  programs.push_back(std::move(program));
  return Install(std::move(programs));
}

Status Engine::Install(std::vector<Program> programs) {
  // Checked before any state changes: a timer that cannot advance would spin Tick forever.
  for (const Program& program : programs) {
    for (const TimerDecl& timer : program.timers) {
      if (!timer.valid_period()) {
        return InvalidArgument("bad-timer-period: " + BadTimerPeriodMessage(timer));
      }
    }
  }
  const size_t installed = programs_.size();
  const size_t declared = catalog_.size();
  Status status = Status::Ok();
  for (Program& program : programs) {
    status = Stage(program);
    if (!status.ok()) {
      break;
    }
    programs_.push_back(std::move(program));
  }
  if (status.ok()) {
    status = Recompile();
  }
  if (!status.ok()) {
    // Nothing has touched a row, a timer or a watch yet, and compiled_ only changes on
    // success: dropping this call's programs and tables is the whole rollback.
    programs_.resize(installed);
    analyzer_reports_.resize(installed);
    catalog_.Truncate(declared);
    return status;
  }
  for (size_t i = installed; i < programs_.size(); ++i) {
    Load(programs_[i]);
  }
  needs_seed_ = true;
  return Status::Ok();
}

Status Engine::Stage(const Program& program) {
  // Externs are declare-or-verify: Catalog::Declare is a no-op for an identical existing
  // declaration and an error for a conflicting one, which is exactly the contract an
  // `extern` schema expectation wants. When the owner is not installed yet, this creates
  // the table and the owner's later (identical) declaration collapses into it.
  for (const TableDef& def : program.externs) {
    BOOM_RETURN_IF_ERROR(catalog_.Declare(def));
  }
  for (const TableDef& def : program.tables) {
    BOOM_RETURN_IF_ERROR(catalog_.Declare(def));
  }
  for (const Fact& fact : program.facts) {
    const Table* table = catalog_.Find(fact.table);
    if (table == nullptr) {
      return InvalidArgument("fact references undeclared table " + fact.table);
    }
    if (table->def().arity() != fact.tuple.size()) {
      return InvalidArgument("fact arity mismatch for " + fact.table);
    }
  }
  for (const TimerDecl& timer : program.timers) {
    const Table* table = catalog_.Find(timer.name);
    if (table == nullptr || table->def().arity() != 1) {
      return InvalidArgument("timer " + timer.name + " has no one-column table");
    }
  }
  // Advisory static analysis: at engine level no-producer is only a warning (hosts may
  // Enqueue events from C++), and relations from other installed programs are external.
  {
    AnalyzerOptions aopts;
    aopts.strict_events = false;
    aopts.external_inputs.insert(program.external_inputs.begin(),
                                 program.external_inputs.end());
    aopts.external_outputs.insert(program.external_outputs.begin(),
                                  program.external_outputs.end());
    for (const Program& p : programs_) {
      for (const TableDef& def : p.tables) {
        aopts.external_tables.insert(def.name);
      }
    }
    for (const std::string& name : catalog_.TableNames()) {
      aopts.external_tables.insert(name);
    }
    analyzer_reports_.push_back(AnalyzeProgram(program, aopts));
  }
  return Status::Ok();
}

void Engine::Load(const Program& program) {
  for (const Fact& fact : program.facts) {
    catalog_.Get(fact.table).Insert(fact.tuple);
  }
  for (const TimerDecl& timer : program.timers) {
    timers_.push_back(TimerState{timer.name, catalog_.Get(timer.name).id(), timer.period_ms,
                                 now_ms_ + timer.period_ms});
  }
  for (const std::string& w : program.watches) {
    AddWatch(w, [](const std::string& table, const Tuple& tuple, bool inserted) {
      BOOM_LOG(Info) << "watch " << (inserted ? "+" : "-") << table << tuple.ToString();
    });
  }
}

Status Engine::Recompile() {
  std::vector<Rule> all_rules;
  std::vector<std::string> rule_programs;
  // Profiling and tracing name rules by (program, rule); a duplicate would make two rules
  // indistinguishable in every report.
  std::set<std::pair<std::string, std::string>> rule_keys;
  for (const Program& p : programs_) {
    for (const Rule& r : p.rules) {
      if (!rule_keys.emplace(p.name, r.name).second) {
        return InvalidArgument("duplicate rule '" + r.name + "' in program '" + p.name +
                               "'");
      }
      all_rules.push_back(r);
      rule_programs.push_back(p.name);
    }
  }
  Result<CompiledProgram> compiled = CompileRules(all_rules, rule_programs, catalog_);
  if (!compiled.ok()) {
    return compiled.status();
  }
  compiled_ = std::move(compiled).value();
  // Rule ids are positions in program order, and programs are only ever appended, so an
  // installed rule keeps its id (and its aggregate state and profile) across recompiles.
  agg_state_.resize(compiled_.rules.size());
  rule_stats_.resize(compiled_.rules.size());
  // Strata may be renumbered: re-file the rules that have marked groups.
  agg_pending_.assign(compiled_.schedule.size(), {});
  for (size_t i = 0; i < agg_state_.size(); ++i) {
    if (!agg_state_[i].marked.empty()) {
      agg_pending_[static_cast<size_t>(compiled_.rules[i].stratum)].push_back(i);
    }
  }
  observed_events_.clear();
  for (uint32_t id = 0; id < catalog_.size(); ++id) {
    Table::RemovalObserver observer;
    if (compiled_.agg_readers.count(id) > 0) {
      observer = [this, id](const Tuple& row) { MarkGroups(compiled_.agg_readers.at(id), row); };
      if (catalog_.ById(id).def().kind == TableKind::kEvent) {
        observed_events_.push_back(id);
      }
    }
    catalog_.ById(id).SetRemovalObserver(std::move(observer));
  }
  return Status::Ok();
}

std::string Engine::ExplainPlan() const {
  std::ostringstream os;
  os << "plan: greedy, " << compiled_.rules.size() << " rule(s), " << compiled_.num_strata
     << " stratum(s)\n";
  auto atom_str = [](const CompiledAtom& a) {
    std::string s = a.negated ? "!" : "";
    s += a.table;
    s += "(probe:";
    for (size_t i = 0; i < a.probe_cols.size(); ++i) {
      if (i > 0) {
        s += ',';
      }
      s += std::to_string(a.probe_cols[i]);
    }
    s += a.key_lookup ? ")[key]" : ")";
    return s;
  };
  auto variant_str = [&](const CompiledVariant& v, const std::string& label) {
    std::string s = "  " + label + ": ";
    s += v.driver_table.empty() ? "<once>" : "scan " + v.driver_table;
    for (const CompiledStep& step : v.steps) {
      s += " -> ";
      switch (step.kind) {
        case BodyTerm::Kind::kAtom:
          s += atom_str(step.atom);
          break;
        case BodyTerm::Kind::kAssign:
          s += "assign";
          break;
        case BodyTerm::Kind::kCondition:
          s += "cond";
          break;
      }
    }
    return s + "\n";
  };
  for (const CompiledRule& rule : compiled_.rules) {
    os << rule.program << ":" << rule.name << " (stratum " << rule.stratum << ")\n";
    os << variant_str(rule.full_variant, "full");
    for (const CompiledVariant& v : rule.variants) {
      os << variant_str(v, (rule.has_agg ? "mark[" : "delta[") + v.driver_table + "]");
    }
  }
  return os.str();
}

Status Engine::Enqueue(const std::string& table, Tuple tuple) {
  const Table* t = catalog_.Find(table);
  if (t == nullptr) {
    return NotFound("enqueue into undeclared table " + table);
  }
  if (t->def().arity() != tuple.size()) {
    return InvalidArgument("enqueue arity mismatch for " + table + ": got " +
                           std::to_string(tuple.size()) + ", want " +
                           std::to_string(t->def().arity()));
  }
  inbox_.emplace_back(t->id(), std::move(tuple));
  ++stats_.tuples_enqueued;
  return Status::Ok();
}

double Engine::NextTimerDeadline() const {
  double next = std::numeric_limits<double>::infinity();
  for (const TimerState& t : timers_) {
    next = std::min(next, t.next_deadline);
  }
  return next;
}

void Engine::AddWatch(const std::string& table, WatchFn fn) {
  watches_[table].push_back(std::move(fn));
}

void Engine::FireWatches(const std::string& table, const Tuple& tuple, bool inserted) {
  if (watches_.empty()) {
    return;  // common case: skip the map lookup entirely
  }
  auto it = watches_.find(table);
  if (it == watches_.end()) {
    return;
  }
  for (const WatchFn& fn : it->second) {
    fn(table, tuple, inserted);
  }
}

void Engine::RecordRuleEval(size_t rule_idx, uint64_t tuples, double wall_us) {
  RuleStats& stats = rule_stats_[rule_idx];
  ++stats.evals;
  stats.tuples += tuples;
  stats.wall_us += wall_us;
  if (tuples > 0) {
    if (stats.tick_tuples == 0) {
      tick_profiled_.push_back(rule_idx);
    }
    stats.tick_tuples += tuples;
  }
}

std::map<std::string, Engine::RuleProfile> Engine::rule_profiles() const {
  std::map<std::string, RuleProfile> out;
  for (size_t i = 0; i < rule_stats_.size(); ++i) {
    const RuleStats& stats = rule_stats_[i];
    if (stats.evals == 0) {
      continue;
    }
    const CompiledRule& rule = compiled_.rules[i];
    out.emplace(rule.program + ":" + rule.name,
                RuleProfile{rule.program, rule.name, stats.evals, stats.tuples,
                            stats.max_tuples_per_tick, stats.wall_us});
  }
  return out;
}

void Engine::ResetProfile() {
  rule_stats_.assign(rule_stats_.size(), RuleStats{});
  fixpoint_profiles_.clear();
}

Status Engine::PublishProfile() {
  if (catalog_.Find("perf_rule") == nullptr) {
    TableDef def;
    def.name = "perf_rule";
    def.columns = {"Program", "Rule", "Evals", "Tuples", "MaxTuplesPerTick", "WallUs"};
    def.key_columns = {0, 1};
    BOOM_RETURN_IF_ERROR(catalog_.Declare(def));
  }
  if (catalog_.Find("perf_fixpoint") == nullptr) {
    TableDef def;
    def.name = "perf_fixpoint";
    def.columns = {"Tick", "NowMs", "Rounds", "Derivs", "WallUs"};
    def.key_columns = {0};
    BOOM_RETURN_IF_ERROR(catalog_.Declare(def));
  }
  if (catalog_.Find("perf_table") == nullptr) {
    TableDef def;
    def.name = "perf_table";
    def.columns = {"Name", "Rows", "Probes", "IndexHits"};
    def.key_columns = {0};
    BOOM_RETURN_IF_ERROR(catalog_.Declare(def));
  }
  // Per-table runtime stats, in sorted table order (deterministic publication order).
  for (const std::string& name : catalog_.TableNames()) {
    const Table& t = catalog_.Get(name);
    BOOM_RETURN_IF_ERROR(
        Enqueue("perf_table", Tuple{Value(name), Value(static_cast<int64_t>(t.size())),
                                    Value(static_cast<int64_t>(t.probes())),
                                    Value(static_cast<int64_t>(t.probe_hits()))}));
  }
  for (const auto& [key, p] : rule_profiles()) {
    BOOM_RETURN_IF_ERROR(Enqueue(
        "perf_rule", Tuple{Value(p.program), Value(p.rule),
                           Value(static_cast<int64_t>(p.evals)),
                           Value(static_cast<int64_t>(p.tuples)),
                           Value(static_cast<int64_t>(p.max_tuples_per_tick)),
                           Value(p.wall_us)}));
  }
  for (const FixpointProfile& fp : fixpoint_profiles_) {
    BOOM_RETURN_IF_ERROR(Enqueue(
        "perf_fixpoint", Tuple{Value(static_cast<int64_t>(fp.tick)), Value(fp.now_ms),
                               Value(static_cast<int64_t>(fp.rounds)),
                               Value(static_cast<int64_t>(fp.derivations)),
                               Value(fp.wall_us)}));
  }
  return Status::Ok();
}

void Engine::AppendDelta(uint32_t id, const Tuple& tuple) {
  DeltaBuffer& delta = deltas_[id];
  if (delta.rows.empty()) {
    touched_.push_back(id);
  }
  delta.rows.push_back(tuple);
}

bool Engine::ApplyLocalInsert(uint32_t id, const Tuple& tuple) {
  Table& table = catalog_.ById(id);
  if (table.Insert(tuple, now_ms_) == Table::InsertOutcome::kUnchanged) {
    return false;
  }
  if (id < compiled_.agg_negated_readers.size() && !compiled_.agg_negated_readers[id].empty()) {
    MarkGroups(compiled_.agg_negated_readers[id], tuple);
  }
  AppendDelta(id, tuple);
  FireWatches(table.name(), tuple, /*inserted=*/true);
  return true;
}

void Engine::MarkGroups(const std::vector<AggReader>& readers, const Tuple& row) {
  for (const AggReader& reader : readers) {
    const CompiledRule& rule = compiled_.rules[reader.rule];
    AggState& state = agg_state_[reader.rule];
    const bool was_clean = state.marked.empty();
    if (reader.variant < 0) {
      FoldBindings(reader.rule, &row, &row + 1, -1);
    } else {
      evaluator_.EvalAggBindings(rule, rule.variants[static_cast<size_t>(reader.variant)],
                                 &row, &row + 1, &state.marked);
    }
    if (was_clean && !state.marked.empty()) {
      agg_pending_[static_cast<size_t>(rule.stratum)].push_back(reader.rule);
    }
  }
}

void Engine::FoldBindings(size_t rule_idx, const Tuple* begin, const Tuple* end,
                          int64_t sign) {
  const CompiledRule& rule = compiled_.rules[rule_idx];
  AggState& state = agg_state_[rule_idx];
  const size_t first = state.marked.size();
  agg_inputs_.clear();
  evaluator_.EvalAggBindings(rule, rule.full_variant, begin, end, &state.marked, &agg_inputs_);
  for (size_t b = 0; b < agg_inputs_.size(); ++b) {
    std::vector<AggAccum>& accums = state.accum[state.marked[first + b]];
    accums.resize(agg_inputs_[b].size());
    for (size_t i = 0; i < accums.size(); ++i) {
      accums[i].Add(agg_inputs_[b][i], sign);
    }
  }
}

bool Engine::PlusMinusRow(const CompiledRule& rule, const Tuple& key,
                          const std::vector<AggAccum>& accums, Tuple* row,
                          TickResult* result) {
  std::vector<Value> vals;
  vals.reserve(rule.head_args.size());
  size_t key_idx = 0;
  size_t agg_idx = 0;
  for (const CompiledHeadArg& arg : rule.head_args) {
    if (arg.agg == AggKind::kNone) {
      vals.push_back(key[key_idx++]);
      continue;
    }
    const AggAccum& accum = accums[agg_idx++];
    if (arg.agg == AggKind::kCount) {
      vals.push_back(Value(accum.count));
      continue;
    }
    if (accum.non_int > 0) {
      return false;
    }
    Result<Value> v = FinishIntegerAggregate(arg.agg, accum.sum, accum.count);
    if (!v.ok()) {
      result->errors.push_back(v.status().ToString());
      return true;  // no row, as for a recomputed group whose sum overflows
    }
    vals.push_back(std::move(v).value());
  }
  *row = Tuple(std::move(vals));
  return true;
}

void Engine::UpdateAggregate(size_t rule_idx, TickResult* result) {
  const CompiledRule& rule = compiled_.rules[rule_idx];
  AggState& state = agg_state_[rule_idx];
  using ProfClock = std::chrono::steady_clock;
  ProfClock::time_point t0;
  if (profile_) {
    t0 = ProfClock::now();
  }

  // Mark the groups of this tick's inserts (a ± rule also adds their bindings). The tables
  // sit in lower strata, so their delta buffers are complete here. On the seed tick every
  // stored row is an insert, and every group derived before is affected.
  if (rule.agg.plus_minus) {
    const uint32_t table_id = rule.full_variant.driver.table_id;
    if (needs_seed_) {
      // Rebuilt from the table: the seed's delta replay may still hold a row replaced since.
      state.accum.clear();
      const std::vector<Tuple> rows = catalog_.ById(table_id).Rows();
      FoldBindings(rule_idx, rows.data(), rows.data() + rows.size(), +1);
    } else {
      const std::vector<Tuple>& rows = deltas_[table_id].rows;
      FoldBindings(rule_idx, rows.data(), rows.data() + rows.size(), +1);
    }
  } else {
    for (const CompiledVariant& variant : rule.variants) {
      if (variant.driver.negated) {
        continue;  // marked as each row entered (ApplyLocalInsert)
      }
      const std::vector<Tuple>& rows = deltas_[variant.driver.table_id].rows;
      evaluator_.EvalAggBindings(rule, variant, rows.data(), rows.data() + rows.size(),
                                 &state.marked);
    }
    if (needs_seed_ && rule.driverless) {
      evaluator_.EvalAggBindings(rule, rule.full_variant, nullptr, nullptr, &state.marked);
    }
  }
  if (needs_seed_) {
    for (const auto& [key, row] : state.output) {
      state.marked.push_back(key);
    }
  }
  std::vector<Tuple> keys;
  keys.swap(state.marked);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Each affected group's head row, empty when the group has no binding left.
  std::vector<Tuple> rows(keys.size());
  if (rule.agg.plus_minus) {
    std::vector<size_t> inexact;  // groups holding non-integer sum<>/avg<> inputs
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = state.accum.find(keys[i]);
      if (it == state.accum.end()) {
        continue;
      }
      if (it->second[0].count == 0) {
        state.accum.erase(it);
      } else if (!PlusMinusRow(rule, keys[i], it->second, &rows[i], result)) {
        inexact.push_back(i);
      }
    }
    if (!inexact.empty()) {
      std::vector<Tuple> subset;
      std::vector<Tuple> recomputed;
      for (size_t i : inexact) {
        subset.push_back(keys[i]);
      }
      evaluator_.EvalAggGroups(rule, subset, &recomputed);
      for (size_t j = 0; j < inexact.size(); ++j) {
        rows[inexact[j]] = std::move(recomputed[j]);
      }
    }
  } else {
    evaluator_.EvalAggGroups(rule, keys, &rows);
  }

  // Derive the groups in group-key order, then retract those that emptied (or moved to
  // another head key), each only while the head still holds this rule's row for it.
  Table& head = catalog_.ById(rule.head_table_id);
  std::vector<Tuple> old_rows(keys.size());
  size_t emitted = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto out = state.output.find(keys[i]);
    if (out != state.output.end()) {
      old_rows[i] = out->second;
    }
    const Tuple& row = rows[i];
    if (row.empty()) {
      continue;
    }
    ++result->derivations;
    ++emitted;
    if (rule.head_has_location && row[0].is_string() &&
        row[0].as_string() != options_.address) {
      // Remote aggregate result: send when changed since last time.
      Tuple group_key = head.KeyOf(row);
      auto sent = state.last_sent.find(group_key);
      if (sent == state.last_sent.end() || sent->second != row) {
        state.last_sent[group_key] = row;
        result->sends.push_back(Send{row[0].as_string(), rule.head_table, row});
        ++stats_.messages_sent;
      }
      continue;
    }
    if (!rule.head_is_event) {  // an event row is gone by the rule's next update
      state.output[keys[i]] = row;
    }
    ApplyLocalInsert(rule.head_table_id, row);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const Tuple& old_row = old_rows[i];
    if (old_row.empty()) {
      continue;
    }
    if (rows[i].empty()) {
      state.output.erase(keys[i]);
    }
    const Tuple old_key = head.KeyOf(old_row);
    if (!rows[i].empty() && head.KeyOf(rows[i]) == old_key) {
      continue;
    }
    const Tuple* current = head.LookupByKey(old_key);
    if (current != nullptr && *current == old_row) {
      head.EraseByKey(old_key);
      FireWatches(rule.head_table, old_row, /*inserted=*/false);
    }
  }
  if (profile_) {
    RecordRuleEval(rule_idx, emitted,
                   std::chrono::duration<double, std::micro>(ProfClock::now() - t0).count());
  }
}

Engine::TickResult Engine::Tick(double now_ms) {
  BOOM_CHECK(now_ms >= now_ms_) << "time must be non-decreasing: " << now_ms << " < "
                                << now_ms_;
  now_ms_ = now_ms;
  ctx_.now_ms = now_ms;
  TickResult result;
  evaluator_.ClearErrors();
  // Tables are declared only between ticks (Install, PublishProfile).
  deltas_.resize(catalog_.size());

  // Profiling bookkeeping (only touched when profiling is enabled; the disabled cost is one
  // predictable branch per eval site).
  using ProfClock = std::chrono::steady_clock;
  ProfClock::time_point tick_start;
  if (profile_) {
    tick_start = ProfClock::now();
  }
  auto prof_elapsed_us = [](ProfClock::time_point t0) {
    return std::chrono::duration<double, std::micro>(ProfClock::now() - t0).count();
  };

  // 0. Soft-state expiry: TTL rows not refreshed recently vanish before anything derives
  // from them this tick. The catalog keeps the (usually short) TTL-table list cached.
  for (Table* table : catalog_.TtlTables()) {
    for (const Tuple& expired : table->ExpireOlderThan(now_ms - table->def().ttl_ms)) {
      FireWatches(table->name(), expired, /*inserted=*/false);
    }
  }

  // 1. Fire due timers as events.
  for (TimerState& timer : timers_) {
    while (timer.next_deadline <= now_ms) {
      inbox_.emplace_back(timer.table_id, Tuple{Value(options_.address)});
      timer.next_deadline += timer.period_ms;
    }
  }

  // 2. Apply the inbox.
  std::vector<std::pair<uint32_t, Tuple>> inbox;
  inbox.swap(inbox_);
  for (const auto& [id, tuple] : inbox) {
    ApplyLocalInsert(id, tuple);
  }

  // 3. Seed after (re)install: every stored tuple is a delta once, so rules derive from
  // pre-existing state. Rows the inbox just applied are deltas already.
  if (needs_seed_) {
    for (uint32_t id = 0; id < catalog_.size(); ++id) {
      const std::vector<Tuple>& applied = deltas_[id].rows;
      const std::unordered_set<Tuple, TupleHash, TupleEq> queued(applied.begin(),
                                                                 applied.end());
      catalog_.ById(id).ForEach([&](const Tuple& row) {
        if (queued.count(row) == 0) {
          AppendDelta(id, row);
        }
      });
    }
  }

  std::vector<Derivation> deletions;
  // Deduplicate network sends within the tick: (table id, destination, row).
  std::set<std::tuple<uint32_t, std::string, Tuple>> sent;

  auto apply_derivations = [&](std::vector<Derivation>& derived) {
    for (Derivation& d : derived) {
      ++result.derivations;
      if (d.kind == Derivation::Kind::kDelete) {
        deletions.push_back(std::move(d));
        continue;
      }
      if (d.remote) {
        if (sent.emplace(d.table, d.dest, d.tuple).second) {
          result.sends.push_back(
              Send{std::move(d.dest), catalog_.ById(d.table).name(), std::move(d.tuple)});
          ++stats_.messages_sent;
        }
        continue;
      }
      if (d.next) {
        // Deferred head: becomes an input of the next timestep.
        inbox_.emplace_back(d.table, std::move(d.tuple));
        continue;
      }
      ApplyLocalInsert(d.table, d.tuple);
    }
    derived.clear();
  };

  std::vector<Derivation>& derived = derived_;

  // 4. Strata, lowest first, following the compile-time schedule (rules grouped by role at
  // Recompile; no per-tick regrouping).
  for (size_t stratum = 0; stratum < compiled_.schedule.size(); ++stratum) {
    const StratumSchedule& sched = compiled_.schedule[stratum];
    // 4a. Aggregate rules with affected groups: those a removal marked since their last
    // update, those whose mark drivers (or ± body table) received rows this tick, and at
    // seed time all of them. Program order, so derivation and watch order follow it.
    agg_dirty_.clear();
    if (needs_seed_) {
      agg_dirty_ = sched.agg_rules;
    } else {
      agg_dirty_.swap(agg_pending_[stratum]);
      for (uint32_t id : touched_) {
        auto driven = sched.agg_rules_by_driver.find(id);
        if (driven != sched.agg_rules_by_driver.end()) {
          agg_dirty_.insert(agg_dirty_.end(), driven->second.begin(), driven->second.end());
        }
      }
      std::sort(agg_dirty_.begin(), agg_dirty_.end());
      agg_dirty_.erase(std::unique(agg_dirty_.begin(), agg_dirty_.end()), agg_dirty_.end());
    }
    agg_pending_[stratum].clear();
    for (size_t rule_idx : agg_dirty_) {
      UpdateAggregate(rule_idx, &result);
    }

    // 4b. Driverless rules run once, at seed time.
    if (needs_seed_) {
      for (size_t rule_idx : sched.seed_rules) {
        ProfClock::time_point t0;
        if (profile_) {
          t0 = ProfClock::now();
        }
        evaluator_.EvalFull(compiled_.rules[rule_idx], &derived);
        size_t produced = derived.size();
        apply_derivations(derived);
        if (profile_) {
          RecordRuleEval(rule_idx, produced, prof_elapsed_us(t0));
        }
      }
    }

    // 4c. Semi-naive rounds over this stratum. Each stratum starts over at every buffer's
    // first row; a round consumes what earlier rounds of this stratum left unconsumed.
    for (uint32_t id : touched_) {
      deltas_[id].begin = deltas_[id].end = 0;
    }
    if (dirty_mark_.size() < sched.delta_rules.size()) {
      dirty_mark_.resize(sched.delta_rules.size(), 0);
    }
    size_t rounds = 0;
    while (true) {
      if (++rounds > options_.max_rounds_per_tick) {
        result.errors.push_back("fixpoint did not converge within " +
                                std::to_string(options_.max_rounds_per_tick) + " rounds");
        break;
      }
      // Advance each buffer's round range to its unconsumed suffix, and collect the dirty
      // rules: those with a variant driven by a table that has rows this round, in
      // delta_rules (program) order. A rule left out would find only empty ranges.
      bool any_delta = false;
      dirty_worklist_.clear();
      for (uint32_t id : touched_) {
        DeltaBuffer& delta = deltas_[id];
        delta.begin = delta.end;
        delta.end = delta.rows.size();
        if (delta.begin == delta.end) {
          continue;
        }
        any_delta = true;
        auto driven = sched.delta_rules_by_driver.find(id);
        if (driven == sched.delta_rules_by_driver.end()) {
          continue;
        }
        for (size_t pos : driven->second) {
          if (!dirty_mark_[pos]) {
            dirty_mark_[pos] = 1;
            dirty_worklist_.push_back(pos);
          }
        }
      }
      if (!any_delta) {
        break;
      }
      ++result.rounds;
      std::sort(dirty_worklist_.begin(), dirty_worklist_.end());
      for (size_t pos : dirty_worklist_) {
        dirty_mark_[pos] = 0;
      }
      if (dirty_worklist_.empty()) {
        break;  // nothing runs, so nothing new arrives: the next round would be empty
      }
      for (size_t pos : dirty_worklist_) {
        const size_t rule_idx = sched.delta_rules[pos];
        const CompiledRule& rule = compiled_.rules[rule_idx];
        ProfClock::time_point t0;
        bool evaluated = false;
        if (profile_) {
          t0 = ProfClock::now();
        }
        // The range is taken right before each call: applying derivations (below) can grow
        // and reallocate a buffer, but nothing touches one while a rule evaluates.
        for (const CompiledVariant& variant : rule.variants) {
          const DeltaBuffer& delta = deltas_[variant.driver.table_id];
          if (delta.begin == delta.end) {
            continue;
          }
          const Tuple* rows = delta.rows.data();
          evaluator_.EvalFromRows(rule, variant, rows + delta.begin, rows + delta.end,
                                  &derived);
          evaluated = true;
        }
        size_t produced = derived.size();
        apply_derivations(derived);
        if (profile_ && evaluated) {
          RecordRuleEval(rule_idx, produced, prof_elapsed_us(t0));
        }
      }
    }
  }

  // 5. Apply deletions, then clear events (tick-boundary semantics). An event-driven
  // aggregate marks groups only from its event rows, so the removal of every event row is
  // observed first, while every binding is whole: a deletion, or another event table's
  // clear, could take another row of it away.
  for (uint32_t id : observed_events_) {
    catalog_.ById(id).ObserveClear();
  }
  for (const Derivation& d : deletions) {
    if (d.remote) {
      continue;  // remote deletes are not part of the language subset
    }
    Table& table = catalog_.ById(d.table);
    if (table.Erase(d.tuple)) {
      FireWatches(table.name(), d.tuple, /*inserted=*/false);
    }
  }

  // 6. Clear events and this tick's delta buffers (keeping their capacity); finish.
  catalog_.ClearEvents();
  for (uint32_t id : touched_) {
    DeltaBuffer& delta = deltas_[id];
    delta.rows.clear();
    delta.begin = delta.end = 0;
  }
  touched_.clear();
  needs_seed_ = false;
  for (const std::string& err : evaluator_.errors()) {
    result.errors.push_back(err);
  }
  ++stats_.ticks;
  stats_.derivations += result.derivations;
  if (profile_) {
    for (size_t rule_idx : tick_profiled_) {
      RuleStats& stats = rule_stats_[rule_idx];
      stats.max_tuples_per_tick = std::max(stats.max_tuples_per_tick, stats.tick_tuples);
      stats.tick_tuples = 0;
    }
    tick_profiled_.clear();
    FixpointProfile fp;
    fp.tick = stats_.ticks;
    fp.now_ms = now_ms;
    fp.rounds = result.rounds;
    fp.derivations = result.derivations;
    fp.wall_us = prof_elapsed_us(tick_start);
    fixpoint_profiles_.push_back(fp);
    if (fixpoint_profiles_.size() > kMaxFixpointProfiles) {
      fixpoint_profiles_.pop_front();
    }
  }
  return result;
}

}  // namespace boom
