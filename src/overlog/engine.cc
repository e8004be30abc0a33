#include "src/overlog/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace boom {

void Engine::AggAccum::Fold(const Value& v) {
  ++count;
  if (v.is_numeric()) {
    if (v.is_int() && sum_is_int) {
      sum_i += v.as_int();
    } else {
      if (sum_is_int) {
        sum_d = static_cast<double>(sum_i);
        sum_is_int = false;
      }
      sum_d += v.ToDouble();
    }
  }
  if (!has_minmax) {
    min = v;
    max = v;
    has_minmax = true;
  } else {
    if (v < min) {
      min = v;
    }
    if (max < v) {
      max = v;
    }
  }
}

Value Engine::AggAccum::Finish(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return Value(count);
    case AggKind::kSum:
      return sum_is_int ? Value(sum_i) : Value(sum_d);
    case AggKind::kMin:
      return min;
    case AggKind::kMax:
      return max;
    case AggKind::kAvg: {
      double total = sum_is_int ? static_cast<double>(sum_i) : sum_d;
      return Value(count == 0 ? 0.0 : total / static_cast<double>(count));
    }
    case AggKind::kBottomK:
    case AggKind::kNone:
      break;
  }
  return Value();
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
    Table* table = catalog_.Find(fact.table);
    if (table == nullptr) {
      return InvalidArgument("fact references undeclared table " + fact.table);
    }
    if (table->def().arity() != fact.tuple.size()) {
      return InvalidArgument("fact arity mismatch for " + fact.table);
    }
    table->Insert(fact.tuple);
  }
  for (const TimerDecl& timer : program.timers) {
    timers_.push_back(TimerState{timer.name, timer.period_ms, now_ms_ + timer.period_ms});
  }
  for (const std::string& w : program.watches) {
    AddWatch(w, [](const std::string& table, const Tuple& tuple, bool inserted) {
      BOOM_LOG(Info) << "watch " << (inserted ? "+" : "-") << table << tuple.ToString();
    });
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
  programs_.push_back(std::move(program));
  Status status = Recompile();
  if (!status.ok()) {
    programs_.pop_back();
    analyzer_reports_.pop_back();
    Status rollback = Recompile();
    BOOM_CHECK(rollback.ok()) << "rollback recompile failed: " << rollback.ToString();
    return status;
  }
  needs_seed_ = true;
  // The seed tick replays every stored row as a delta; reset incremental accumulators so
  // they are rebuilt once rather than double-counted.
  for (auto& [name, state] : agg_state_) {
    state.accum.clear();
    state.has_input_version = false;
  }
  return Status::Ok();
}

Status Engine::Recompile() {
  std::vector<Rule> all_rules;
  std::vector<std::string> rule_programs;
  // Profiling, tracing, and the dirty-rule scheduler all key rules by (program, rule);
  // a duplicate key would silently merge two rules' counters.
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
  PlannerOptions popts;
  if (options_.enable_optimizer) {
    popts.cost_based = true;
    HarvestPlannerStats(&popts.stats);
  }
  Result<CompiledProgram> compiled = CompileRules(all_rules, rule_programs, catalog_, popts);
  if (!compiled.ok()) {
    return compiled.status();
  }
  compiled_ = std::move(compiled).value();
  // Resolve body atoms to table pointers so join steps skip the per-row catalog lookup.
  // Pointers are stable: the catalog stores tables behind unique_ptr and never drops them.
  auto resolve_variant = [this](CompiledVariant& variant) {
    if (!variant.driver.table.empty()) {
      variant.driver.table_ptr = catalog_.Find(variant.driver.table);
    }
    for (CompiledStep& step : variant.steps) {
      if (step.kind == BodyTerm::Kind::kAtom) {
        step.atom.table_ptr = catalog_.Find(step.atom.table);
      }
    }
  };
  for (CompiledRule& rule : compiled_.rules) {
    for (CompiledVariant& variant : rule.variants) {
      resolve_variant(variant);
    }
    resolve_variant(rule.full_variant);
  }
  if (options_.enable_optimizer) {
    // Automatic index selection: build every index the chosen plans will probe, so first
    // probes inside a tick never pay a cold O(table) build.
    for (const auto& [table_name, cols] : compiled_.warm_indexes) {
      Table* table = catalog_.Find(table_name);
      if (table != nullptr) {
        table->WarmIndex(cols);
      }
    }
    // The drift snapshot caches Table pointers: PlanDrifted runs at every tick entry, and
    // name lookups there would charge O(tables) map probes per tick to workloads the
    // optimizer never helps. Tables declared after this snapshot (only perf_table's lazy
    // declare) join it at the next recompile.
    planned_rows_.clear();
    for (const std::string& name : catalog_.TableNames()) {
      Table* table = catalog_.Find(name);
      planned_rows_.emplace_back(table, table->size());
    }
  }
  return Status::Ok();
}

void Engine::HarvestPlannerStats(std::unordered_map<std::string, TableStats>* stats) const {
  for (const std::string& name : catalog_.TableNames()) {
    const Table& table = catalog_.Get(name);
    TableStats ts;
    ts.rows = table.size();
    const size_t arity = table.def().arity();
    ts.distinct.reserve(arity);
    for (size_t col = 0; col < arity; ++col) {
      ts.distinct.push_back(table.DistinctCount(col));
    }
    const uint64_t probes = table.probes();
    ts.probe_hit_ratio =
        probes == 0 ? 1.0
                    : static_cast<double>(table.probe_hits()) / static_cast<double>(probes);
    (*stats)[name] = std::move(ts);
  }
}

bool Engine::PlanDrifted() const {
  for (const auto& [table, planned] : planned_rows_) {
    const uint64_t now_rows = table->size();
    const uint64_t hi = std::max(planned, now_rows);
    const uint64_t lo = std::min(planned, now_rows);
    if (hi >= options_.replan_min_rows &&
        static_cast<double>(lo) * options_.replan_drift_factor < static_cast<double>(hi)) {
      return true;
    }
  }
  return false;
}

std::string Engine::ExplainPlan() const {
  std::ostringstream os;
  os << "plan: " << (compiled_.cost_based ? "cost-based" : "greedy") << ", "
     << compiled_.rules.size() << " rule(s), " << compiled_.num_strata << " stratum(s)\n";
  auto fmt_est = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return std::string(buf);
  };
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
          if (step.est_rows >= 0) {
            s += "~" + fmt_est(step.est_rows);
          }
          break;
        case BodyTerm::Kind::kAssign:
          s += "assign";
          break;
        case BodyTerm::Kind::kCondition:
          s += "cond";
          break;
      }
    }
    if (v.est_cost >= 0) {
      s += "  cost=" + fmt_est(v.est_cost);
    }
    return s + "\n";
  };
  for (const CompiledRule& rule : compiled_.rules) {
    os << rule.program << ":" << rule.name << " (stratum " << rule.stratum << ")\n";
    os << variant_str(rule.full_variant, "full");
    for (const CompiledVariant& v : rule.variants) {
      os << variant_str(v, "delta[" + v.driver_table + "]");
    }
  }
  if (!compiled_.warm_indexes.empty()) {
    os << "warm indexes:\n";
    for (const auto& [table, cols] : compiled_.warm_indexes) {
      os << "  " << table << "(";
      for (size_t i = 0; i < cols.size(); ++i) {
        if (i > 0) {
          os << ",";
        }
        os << cols[i];
      }
      os << ")\n";
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
  inbox_.emplace_back(table, std::move(tuple));
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

void Engine::RecordRuleEval(const CompiledRule& rule, uint64_t tuples, double wall_us,
                            std::map<std::string, uint64_t>& tick_tuples) {
  std::string key = rule.program + ":" + rule.name;
  RuleProfile& profile = rule_profiles_[key];
  if (profile.rule.empty()) {
    profile.program = rule.program;
    profile.rule = rule.name;
  }
  ++profile.evals;
  profile.tuples += tuples;
  profile.wall_us += wall_us;
  tick_tuples[key] += tuples;
}

void Engine::ResetProfile() {
  rule_profiles_.clear();
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
  for (const auto& [key, p] : rule_profiles_) {
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

bool Engine::ApplyLocalInsert(const std::string& table, const Tuple& tuple) {
  Table* t = catalog_.Find(table);
  BOOM_CHECK(t != nullptr) << "insert into undeclared table " << table;
  Table::InsertOutcome outcome = t->Insert(tuple, now_ms_);
  if (outcome == Table::InsertOutcome::kUnchanged) {
    return false;
  }
  tick_new_[table].push_back(tuple);
  FireWatches(table, tuple, /*inserted=*/true);
  return true;
}

Engine::TickResult Engine::Tick(double now_ms) {
  BOOM_CHECK(now_ms >= now_ms_) << "time must be non-decreasing: " << now_ms << " < "
                                << now_ms_;
  now_ms_ = now_ms;
  ctx_.now_ms = now_ms;
  TickResult result;
  evaluator_.ClearErrors();
  tick_new_.clear();

  // Optimizer: deterministic re-plan at the tick boundary when observed cardinalities have
  // drifted past the threshold. The decision reads only table state at tick entry — a pure
  // function of the seeded execution so far — so chaos traces stay byte-identical per seed.
  if (options_.enable_optimizer && !needs_seed_ && PlanDrifted()) {
    Status replanned = Recompile();
    if (replanned.ok()) {
      ++stats_.replans;
    }  // on failure the previous plan stays installed; nothing observable changes
  }

  // Profiling bookkeeping (only touched when profiling is enabled; the disabled cost is one
  // predictable branch per eval site).
  using ProfClock = std::chrono::steady_clock;
  std::map<std::string, uint64_t> tick_tuples;  // per-rule tuples this tick
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
      inbox_.emplace_back(timer.name, Tuple{Value(options_.address)});
      timer.next_deadline += timer.period_ms;
    }
  }

  // 2. Apply the inbox.
  std::vector<std::pair<std::string, Tuple>> inbox;
  inbox.swap(inbox_);
  for (auto& [table, tuple] : inbox) {
    ApplyLocalInsert(table, tuple);
  }

  // 3. Seed after (re)install: treat every stored tuple as a delta once, so rules derive
  // from pre-existing state.
  if (needs_seed_) {
    for (const std::string& name : catalog_.TableNames()) {
      const Table& t = catalog_.Get(name);
      std::vector<Tuple>& dst = tick_new_[name];
      t.ForEach([&dst](const Tuple& row) { dst.push_back(row); });
    }
  }

  std::vector<Derivation> deletions;
  // Deduplicate network sends within the tick.
  std::set<std::pair<std::pair<std::string, std::string>, Tuple>> sent;
  // Dirty-rule worklist scratch, reused across rounds.
  std::vector<size_t> dirty_worklist;
  std::vector<char> dirty_mark;

  auto apply_derivations = [&](std::vector<Derivation>& derived) {
    for (Derivation& d : derived) {
      ++result.derivations;
      if (d.kind == Derivation::Kind::kDelete) {
        deletions.push_back(std::move(d));
        continue;
      }
      if (d.remote) {
        auto key = std::make_pair(std::make_pair(d.dest, d.table), d.tuple);
        if (sent.insert(key).second) {
          result.sends.push_back(Send{std::move(d.dest), std::move(d.table), d.tuple});
          ++stats_.messages_sent;
        }
        continue;
      }
      if (d.next) {
        // Deferred head: becomes an input of the next timestep.
        inbox_.emplace_back(std::move(d.table), std::move(d.tuple));
        continue;
      }
      ApplyLocalInsert(d.table, d.tuple);
    }
    derived.clear();
  };

  std::vector<Derivation> derived;
  derived.reserve(64);

  // 4. Strata, lowest first, following the compile-time schedule (rules grouped by role at
  // Recompile; no per-tick regrouping).
  for (size_t stratum = 0; stratum < compiled_.schedule.size(); ++stratum) {
    const StratumSchedule& sched = compiled_.schedule[stratum];
    // 4a. Aggregate rules: full recomputation + reconciliation against their prior output.
    // Skipped entirely when none of the rule's input tables changed since the last
    // recomputation — this is what keeps ever-growing audit tables from making every tick
    // O(table size).
    for (size_t rule_idx : sched.agg_rules) {
      const CompiledRule* rule = &compiled_.rules[rule_idx];
      if (rule->incremental_agg && !options_.disable_incremental_aggregates) {
        // Fold only this tick's inserts into running accumulators: O(delta), not O(table).
        auto delta_it = tick_new_.find(rule->body_tables[0]);
        if (delta_it == tick_new_.end() || delta_it->second.empty()) {
          continue;
        }
        ProfClock::time_point t0;
        if (profile_) {
          t0 = ProfClock::now();
        }
        std::vector<std::pair<Tuple, std::vector<Value>>> bindings;
        evaluator_.EvalAggBindings(*rule, delta_it->second, &bindings);
        if (bindings.empty()) {
          if (profile_) {
            RecordRuleEval(*rule, 0, prof_elapsed_us(t0), tick_tuples);
          }
          continue;
        }
        AggState& state = agg_state_[rule->name];
        std::set<Tuple> changed;
        for (auto& [key, inputs] : bindings) {
          std::vector<AggAccum>& accums = state.accum[key];
          accums.resize(inputs.size());
          for (size_t i = 0; i < inputs.size(); ++i) {
            accums[i].Fold(inputs[i]);
          }
          changed.insert(key);
        }
        for (const Tuple& key : changed) {
          const std::vector<AggAccum>& accums = state.accum[key];
          std::vector<Value> vals;
          vals.reserve(rule->head_args.size());
          size_t key_idx = 0;
          size_t agg_idx = 0;
          for (const CompiledHeadArg& arg : rule->head_args) {
            if (arg.agg == AggKind::kNone) {
              vals.push_back(key[key_idx++]);
            } else {
              vals.push_back(accums[agg_idx++].Finish(arg.agg));
            }
          }
          ++result.derivations;
          ApplyLocalInsert(rule->head_table, Tuple(std::move(vals)));
        }
        if (profile_) {
          RecordRuleEval(*rule, changed.size(), prof_elapsed_us(t0), tick_tuples);
        }
        continue;
      }
      {
        AggState& state = agg_state_[rule->name];
        uint64_t version_sum = 0;
        for (const std::string& table : rule->body_tables) {
          const Table* t = catalog_.Find(table);
          if (t != nullptr) {
            version_sum += t->version();
          }
        }
        if (!needs_seed_ && state.has_input_version &&
            state.input_version_sum == version_sum &&
            !options_.disable_aggregate_version_skip) {
          continue;
        }
        state.has_input_version = true;
        state.input_version_sum = version_sum;
      }
      ProfClock::time_point t0;
      if (profile_) {
        t0 = ProfClock::now();
      }
      std::vector<Tuple> head_rows;
      evaluator_.EvalAggregate(*rule, &head_rows);
      AggState& state = agg_state_[rule->name];
      std::map<Tuple, Tuple> new_output;
      Table* head_table = catalog_.Find(rule->head_table);
      BOOM_CHECK(head_table != nullptr);
      for (Tuple& row : head_rows) {
        ++result.derivations;
        if (rule->head_has_location && row[0].is_string() &&
            row[0].as_string() != options_.address) {
          // Remote aggregate result: send when changed since last time.
          Tuple group_key = head_table->KeyOf(row);
          auto it = state.last_sent.find(group_key);
          if (it == state.last_sent.end() || it->second != row) {
            state.last_sent[group_key] = row;
            result.sends.push_back(Send{row[0].as_string(), rule->head_table, row});
            ++stats_.messages_sent;
          }
          continue;
        }
        Tuple group_key = head_table->KeyOf(row);
        new_output.emplace(std::move(group_key), row);
        ApplyLocalInsert(rule->head_table, row);
      }
      // Retract groups this rule derived before but no longer does.
      for (const auto& [key, old_row] : state.last_output) {
        if (new_output.count(key) > 0) {
          continue;
        }
        const Tuple* current = head_table->LookupByKey(key);
        if (current != nullptr && *current == old_row) {
          head_table->EraseByKey(key);
          FireWatches(rule->head_table, old_row, /*inserted=*/false);
        }
      }
      state.last_output = std::move(new_output);
      if (profile_) {
        RecordRuleEval(*rule, head_rows.size(), prof_elapsed_us(t0), tick_tuples);
      }
    }

    // 4b. Driverless rules run once, at seed time.
    if (needs_seed_) {
      for (size_t rule_idx : sched.seed_rules) {
        const CompiledRule* rule = &compiled_.rules[rule_idx];
        ProfClock::time_point t0;
        if (profile_) {
          t0 = ProfClock::now();
        }
        evaluator_.EvalFull(*rule, &derived);
        size_t produced = derived.size();
        apply_derivations(derived);
        if (profile_) {
          RecordRuleEval(*rule, produced, prof_elapsed_us(t0), tick_tuples);
        }
      }
    }

    // 4c. Semi-naive rounds over this stratum.
    std::unordered_map<std::string, size_t> cursor;  // per-table consumed prefix of tick_new_
    size_t rounds = 0;
    while (true) {
      if (++rounds > options_.max_rounds_per_tick) {
        result.errors.push_back("fixpoint did not converge within " +
                                std::to_string(options_.max_rounds_per_tick) + " rounds");
        break;
      }
      // Snapshot unconsumed deltas.
      std::map<std::string, std::vector<Tuple>> deltas;
      for (const auto& [table, rows] : tick_new_) {
        size_t& c = cursor[table];
        if (c < rows.size()) {
          deltas[table].assign(rows.begin() + static_cast<long>(c), rows.end());
          c = rows.size();
        }
      }
      if (deltas.empty()) {
        break;
      }
      ++result.rounds;
      // Dirty-rule worklist: only rules with a variant driven by a table that actually
      // received deltas this round, in delta_rules (program) order — the same order, and
      // the same evaluations, as the exhaustive scan, minus the rules that would have been
      // skipped at their deltas.find() anyway.
      const bool exhaustive = options_.disable_dirty_rule_scheduling;
      dirty_worklist.clear();
      if (!exhaustive) {
        dirty_mark.assign(sched.delta_rules.size(), 0);
        for (const auto& [table, rows] : deltas) {
          auto it = sched.delta_rules_by_driver.find(table);
          if (it == sched.delta_rules_by_driver.end()) {
            continue;
          }
          for (size_t pos : it->second) {
            if (!dirty_mark[pos]) {
              dirty_mark[pos] = 1;
              dirty_worklist.push_back(pos);
            }
          }
        }
        std::sort(dirty_worklist.begin(), dirty_worklist.end());
      } else {
        dirty_worklist.resize(sched.delta_rules.size());
        for (size_t i = 0; i < dirty_worklist.size(); ++i) {
          dirty_worklist[i] = i;
        }
      }
      for (size_t pos : dirty_worklist) {
        const CompiledRule* rule = &compiled_.rules[sched.delta_rules[pos]];
        ProfClock::time_point t0;
        bool evaluated = false;
        if (profile_) {
          t0 = ProfClock::now();
        }
        for (const CompiledVariant& variant : rule->variants) {
          auto it = deltas.find(variant.driver_table);
          if (it == deltas.end()) {
            continue;
          }
          evaluator_.EvalFromRows(*rule, variant, it->second, &derived);
          evaluated = true;
        }
        size_t produced = derived.size();
        apply_derivations(derived);
        if (profile_ && evaluated) {
          RecordRuleEval(*rule, produced, prof_elapsed_us(t0), tick_tuples);
        }
      }
    }
  }

  // 5. Apply deletions (tick-boundary semantics).
  for (const Derivation& d : deletions) {
    if (d.remote) {
      continue;  // remote deletes are not part of the language subset
    }
    Table* t = catalog_.Find(d.table);
    if (t != nullptr && t->Erase(d.tuple)) {
      FireWatches(d.table, d.tuple, /*inserted=*/false);
    }
  }

  // 6. Clear events; finish.
  catalog_.ClearEvents();
  needs_seed_ = false;
  for (const std::string& err : evaluator_.errors()) {
    result.errors.push_back(err);
  }
  ++stats_.ticks;
  stats_.derivations += result.derivations;
  if (profile_) {
    for (const auto& [key, n] : tick_tuples) {
      RuleProfile& profile = rule_profiles_[key];
      profile.max_tuples_per_tick = std::max(profile.max_tuples_per_tick, n);
    }
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
