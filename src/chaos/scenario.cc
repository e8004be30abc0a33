#include "src/chaos/scenario.h"

#include <algorithm>
#include <memory>
#include <set>

#include "src/base/logging.h"
#include "src/boomfs/boomfs.h"
#include "src/boomfs/client.h"
#include "src/boomfs/datanode.h"
#include "src/boomfs/federation.h"
#include "src/boomfs/nn_program.h"
#include "src/boommr/boommr.h"
#include "src/boommr/jt_program.h"
#include "src/paxos/paxos_program.h"
#include "src/sim/random.h"
#include "src/workload/fs_load.h"
#include "src/workload/tenancy.h"

namespace boom {

namespace {

// Removes one rule from a Program by name. Bug variants operate on the AST (programs are
// data): no re-parsing, and the remaining rules keep their program order.
void StripRule(Program* program, const std::string& name) {
  for (auto it = program->rules.begin(); it != program->rules.end(); ++it) {
    if (it->name == name) {
      program->rules.erase(it);
      return;
    }
  }
  BOOM_CHECK(false) << "rule " << name << " not found";
}

// Overwrites every fact for `table` with `tuple` (used to shrink the quorum fact).
void ReplaceFacts(Program* program, const std::string& table, const Tuple& tuple) {
  bool found = false;
  for (Fact& fact : program->facts) {
    if (fact.table == table) {
      fact.tuple = tuple;
      found = true;
    }
  }
  BOOM_CHECK(found) << "no fact for table " << table;
}

// --- Paxos: three replicas, a steady command stream, agreement + progress checks ---

class PaxosScenario : public ChaosScenario {
 public:
  explicit PaxosScenario(ScenarioOptions options) : options_(std::move(options)) {
    for (int i = 0; i < 3; ++i) {
      peers_.push_back("px" + std::to_string(i));
    }
  }

  std::string name() const override { return "paxos"; }
  bool FreshStateOnRestart() const override { return options_.bug == "amnesia"; }

  void Setup(Cluster& cluster, uint64_t /*seed*/) override {
    for (int i = 0; i < static_cast<int>(peers_.size()); ++i) {
      PaxosProgramOptions opts;
      opts.peers = peers_;
      opts.my_index = i;
      Program program = PaxosProgram(opts);
      if (options_.bug == "quorum1") {
        ReplaceFacts(&program, "quorum", Tuple{Value(1), Value(1)});
      }
      cluster.AddOverlogNode(peers_[static_cast<size_t>(i)], [program](Engine& engine) {
        Status status = engine.Install(program);
        BOOM_CHECK(status.ok()) << status.ToString();
      });
    }
    // Command stream: one batch every 250ms, submitted to every replica (only the majority
    // side can decide; the losing side's queue drains after healing).
    std::vector<std::string> peers = peers_;
    for (int k = 0; 500 + k * 250 < horizon_ms() - 1500; ++k) {
      cluster.ScheduleAt(500 + k * 250, [&cluster, peers, k] {
        for (const std::string& p : peers) {
          cluster.Send(p, p, "px_request",
                       Tuple{Value(p), Value("cmd-" + std::to_string(k))});
        }
      });
    }
    checkers_.push_back(std::make_unique<PaxosAgreementChecker>(peers_));
    checkers_.push_back(std::make_unique<PaxosProgressChecker>(peers_));
  }

  FaultGenOptions FaultProfile() const override {
    FaultGenOptions o;
    o.horizon_ms = horizon_ms();
    o.killable = peers_;
    o.partitionable = peers_;
    o.all_nodes = peers_;
    for (size_t a = 0; a < peers_.size(); ++a) {
      for (size_t b = a + 1; b < peers_.size(); ++b) {
        o.degradable_links.push_back({peers_[a], peers_[b]});
      }
    }
    // The Overlog Paxos rides on TCP in the paper's deployment: links may slow down or
    // duplicate (retransmits), but never lose or reorder a delivered stream. Crashes and
    // partitions are the faults the protocol itself must absorb.
    o.allow_drop = false;
    o.allow_reorder = false;
    o.max_crashes = 2;
    o.min_crash_ms = 800;
    o.max_crash_ms = 4000;
    o.max_partitions = 2;
    o.min_partition_ms = 1500;
    o.max_partition_ms = 5000;
    o.max_degrades = 2;
    o.min_degrade_ms = 1500;
    o.max_degrade_ms = 6000;
    return o;
  }

 private:
  ScenarioOptions options_;
  std::vector<std::string> peers_;
};

// --- BOOM-FS: Overlog NameNode + DataNode churn + random metadata/data workload ---

class BoomFsScenario : public ChaosScenario {
 public:
  explicit BoomFsScenario(ScenarioOptions options) : options_(std::move(options)) {
    for (int i = 0; i < kNumDataNodes; ++i) {
      datanodes_.push_back(nn_ + "_dn" + std::to_string(i));
    }
  }

  std::string name() const override { return "boomfs"; }

  void Setup(Cluster& cluster, uint64_t seed) override {
    NnProgramOptions prog;
    prog.replication_factor = 3;
    prog.heartbeat_timeout_ms = 1200;
    prog.failure_check_period_ms = 400;
    Program program = options_.nn_program_override.has_value()
                          ? *options_.nn_program_override
                          : BoomFsNnProgram(prog);
    if (options_.bug == "resurrect") {
      // Without the tombstone protocol a DataNode that missed the rm-time dn_delete
      // resurrects the chunk's location on its next full report, and never drops the bytes.
      StripRule(&program, "rm9");
      StripRule(&program, "hb3");
      StripRule(&program, "hb4");
    }
    cluster.AddOverlogNode(nn_, [program](Engine& engine) {
      Status status = engine.Install(program);
      BOOM_CHECK(status.ok()) << status.ToString();
    });
    for (const std::string& dn : datanodes_) {
      DataNodeOptions dn_opts;
      dn_opts.namenode = nn_;
      dn_opts.heartbeat_period_ms = 300;
      dn_opts.full_report_every = 4;
      // serve-corrupt: rotted replicas are served with a freshly recomputed checksum, so
      // only the end-to-end read oracle can catch them.
      dn_opts.verify_reads = options_.bug != "serve-corrupt";
      cluster.AddActor(std::make_unique<DataNode>(dn, dn_opts));
    }
    FsClientOptions client_opts;
    client_opts.namenode = nn_;
    client_opts.chunk_size = 24;  // small files still span several chunks
    auto client = std::make_unique<FsClient>(client_, client_opts);
    FsClient* client_ptr = client.get();
    cluster.AddActor(std::move(client));

    auto work = std::make_shared<Work>(seed);
    for (double t = 1500; t < horizon_ms() - 1000; t += 250) {
      cluster.ScheduleAt(t, [&cluster, client_ptr, work] {
        Step(cluster, client_ptr, work);
      });
    }
    checkers_.push_back(std::make_unique<BoomFsInvariantChecker>(
        nn_, datanodes_, client_ptr, work->model, /*replication_factor=*/3));
    checkers_.push_back(std::make_unique<BoomFsReadIntegrityChecker>(work->reads));
  }

  FaultGenOptions FaultProfile() const override {
    FaultGenOptions o;
    o.horizon_ms = horizon_ms();
    // Only the data plane degrades: the client <-> NameNode path models a reliable local
    // connection (namespace requests are not idempotent and have no retry protocol).
    o.killable = datanodes_;
    o.partitionable = datanodes_;
    o.all_nodes = datanodes_;
    o.all_nodes.push_back(nn_);
    o.all_nodes.push_back(client_);
    for (const std::string& dn : datanodes_) {
      o.degradable_links.push_back({nn_, dn});
    }
    o.max_crashes = 3;
    o.min_crash_ms = 800;
    o.max_crash_ms = 4000;
    o.max_partitions = 2;
    o.min_partition_ms = 1500;
    o.max_partition_ms = 5000;
    o.max_degrades = 3;
    o.min_degrade_ms = 1500;
    o.max_degrade_ms = 6000;
    // Storage faults: replicas rot at rest or the disk slows down. Checksums + quarantine
    // + re-replication must absorb these, so they are squarely inside the envelope.
    o.corruptible = datanodes_;
    o.max_corruptions = 2;
    o.max_slow_disks = 2;
    o.corrupt_avoids_partitions = true;
    // Gray DataNodes (alive and heartbeating but slow to serve) and staggered rolling
    // restarts of the DataNode fleet: checksummed read failover and re-replication must
    // ride both out. No clock skew — the NameNode's failure detector is the only clock
    // that matters here and skewing it is indistinguishable from tuning its timeout.
    o.grayable = datanodes_;
    o.max_grays = 1;
    o.rollable = datanodes_;
    o.max_rolling_restarts = 1;
    o.rolling_down_ms = 800;  // quick bounces: replication must not collapse to a single
                              // copy while a partition is also in force (durability needs
                              // one intact replica to re-replicate from)
    return o;
  }

 private:
  static constexpr int kNumDataNodes = 5;

  struct Work {
    explicit Work(uint64_t seed)
        : rng(seed ^ 0xABCDEF0123456789ULL),
          model(std::make_shared<FsModel>()),
          reads(std::make_shared<FsReadLog>()) {}
    Rng rng;
    std::shared_ptr<FsModel> model;
    std::shared_ptr<FsReadLog> reads;
    std::set<std::string> in_flight;  // paths with a pending rm (never double-issue)
    int next_dir = 0;
    int next_file = 0;
  };

  static void Step(Cluster& cluster, FsClient* client, std::shared_ptr<Work> work) {
    auto& m = *work->model;
    std::vector<std::string> dirs = {""};  // "" = the root as a parent prefix
    for (const auto& [path, entry] : m.acked) {
      if (entry.is_dir) {
        dirs.push_back(path);
      }
    }
    auto pick_dir = [&] {
      return dirs[static_cast<size_t>(
          work->rng.UniformInt(0, static_cast<int64_t>(dirs.size()) - 1))];
    };
    double r = work->rng.Uniform(0, 1);
    if (r < 0.2) {
      std::string path = "/d" + std::to_string(work->next_dir++);
      client->Mkdir(cluster, path, [&cluster, work, path](bool ok, const Value&) {
        if (ok) {
          work->model->acked[path] = {true, cluster.now()};
        }
      });
    } else if (r < 0.5) {
      std::string path = pick_dir() + "/f" + std::to_string(work->next_file++);
      client->CreateFile(cluster, path, [&cluster, work, path](bool ok, const Value&) {
        if (ok) {
          work->model->acked[path] = {false, cluster.now()};
        }
      });
    } else if (r < 0.7) {
      std::string path = pick_dir() + "/w" + std::to_string(work->next_file++);
      std::string data;
      while (data.size() < 60) {
        data += path + "|";
      }
      client->WriteFile(cluster, path, data, [&cluster, work, path, data](bool ok) {
        if (ok) {
          work->model->acked[path] = {false, cluster.now()};
          work->model->contents[path] = data;
        }
      });
    } else if (r < 0.85) {
      // Read back an acked write and record it against the oracle bytes captured now
      // (contents are immutable per path: no overwrites, rm'd paths never reused).
      std::vector<std::string> candidates;
      for (const auto& [path, data] : m.contents) {
        if (!work->in_flight.count(path)) {
          candidates.push_back(path);
        }
      }
      if (candidates.empty()) {
        return;
      }
      std::string path = candidates[static_cast<size_t>(
          work->rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
      size_t idx = work->reads->size();
      work->reads->push_back({path, m.contents[path], cluster.now(), -1, false, ""});
      client->ReadFile(cluster, path,
                       [&cluster, work, idx](bool ok, const std::string& data) {
                         FsReadRecord& rec = (*work->reads)[idx];
                         rec.done_ms = cluster.now();
                         rec.ok = ok;
                         rec.got = data;
                       });
    } else {
      std::vector<std::string> victims;
      for (const auto& [path, entry] : m.acked) {
        if (!entry.is_dir && !work->in_flight.count(path)) {
          victims.push_back(path);
        }
      }
      if (victims.empty()) {
        return;
      }
      std::string path = victims[static_cast<size_t>(
          work->rng.UniformInt(0, static_cast<int64_t>(victims.size()) - 1))];
      work->in_flight.insert(path);
      client->Rm(cluster, path, [&cluster, work, path](bool ok, const Value&) {
        work->in_flight.erase(path);
        if (ok) {
          work->model->acked.erase(path);
          work->model->contents.erase(path);
          work->model->removed[path] = cluster.now();
        }
      });
    }
  }

  ScenarioOptions options_;
  std::string nn_ = "nn";
  std::string client_ = "nn_client";
  std::vector<std::string> datanodes_;
};

// --- BOOM-MR: Overlog JobTracker + TaskTracker churn + a stream of jobs ---

class BoomMrScenario : public ChaosScenario {
 public:
  explicit BoomMrScenario(ScenarioOptions options) : options_(std::move(options)) {
    for (int i = 0; i < kNumTrackers; ++i) {
      trackers_.push_back(jt_ + "_tt" + std::to_string(i));
    }
  }

  std::string name() const override { return "boommr"; }
  double default_horizon_ms() const override { return 22000; }
  double default_settle_ms() const override { return 20000; }

  void Setup(Cluster& cluster, uint64_t /*seed*/) override {
    MrSetupOptions opts;
    opts.kind = MrKind::kBoomMr;
    opts.jobtracker = jt_;
    opts.num_trackers = kNumTrackers;
    opts.map_slots = 2;
    opts.reduce_slots = 2;
    if (options_.bug == "limplock") {
      // Strip the per-attempt timeout (x5-x7): the only defense against a gray tracker
      // whose attempts run orders of magnitude slow. The dead-tracker detector (x1-x4)
      // never fires — a limplocked node heartbeats on time — so a stuck attempt is
      // re-queued by nothing and its job never completes.
      Program program = options_.jt_program_override.has_value()
                            ? *options_.jt_program_override
                            : BoomMrJtProgram({});
      StripRule(&program, "x5");
      StripRule(&program, "x6");
      StripRule(&program, "x7");
      opts.jt_program_override = std::move(program);
    } else {
      opts.jt_program_override = options_.jt_program_override;
    }
    MrHandles handles = SetupMr(cluster, opts);
    MrClient* client = handles.client;
    data_plane_ = handles.data_plane;

    auto log = std::make_shared<MrWorkloadLog>();
    for (double t = 1000; t < horizon_ms() - 4000; t += 5000) {
      cluster.ScheduleAt(t, [&cluster, client, log] {
        JobSpec spec;
        spec.job_id = client->NextJobId();
        spec.client = client->address();
        spec.num_maps = 6;
        spec.num_reduces = 3;
        spec.duration_ms = [](const TaskRef& task, const std::string&) {
          return 150.0 + ((task.job_id * 31 + task.task_id * 17) % 5) * 40.0;
        };
        log->submitted.push_back(spec.job_id);
        log->job_shape[spec.job_id] = {spec.num_maps, spec.num_reduces};
        client->Submit(cluster, std::move(spec), [](double) {});
      });
    }
    checkers_.push_back(std::make_unique<BoomMrExactlyOnceChecker>(data_plane_, log));
    checkers_.push_back(std::make_unique<BoomMrCompletionChecker>(data_plane_, log));
  }

  FaultGenOptions FaultProfile() const override {
    FaultGenOptions o;
    o.horizon_ms = horizon_ms();
    o.killable = trackers_;
    o.partitionable = trackers_;
    o.all_nodes = trackers_;
    o.all_nodes.push_back(jt_);
    o.all_nodes.push_back(jt_ + "_client");
    for (const std::string& tt : trackers_) {
      o.degradable_links.push_back({jt_, tt});
    }
    // Control-plane messages (assignments, completions) have no retransmit protocol, so
    // like the real deployment they assume TCP: only latency spikes degrade the links.
    // Partitions outlast the JobTracker's 3s tracker timeout so reassignment fires.
    o.allow_drop = false;
    o.allow_dup = false;
    o.allow_reorder = false;
    o.max_crashes = 3;
    o.min_crash_ms = 1000;
    o.max_crash_ms = 4000;
    o.max_partitions = 2;
    o.min_partition_ms = 4000;
    o.max_partition_ms = 6000;
    o.max_degrades = 2;
    o.min_degrade_ms = 1500;
    o.max_degrade_ms = 6000;
    // Gray failures on trackers (the limplock the attempt timeout exists for), a signed
    // clock-skew window on the JobTracker (its failure detectors must stay safe when
    // f_now() jumps), and one staggered rolling restart of the tracker fleet.
    o.grayable = trackers_;
    o.max_grays = 1;
    o.skewable = {jt_};
    o.max_clock_skews = 1;
    o.rollable = trackers_;
    o.max_rolling_restarts = 1;
    return o;
  }

 private:
  static constexpr int kNumTrackers = 5;

  ScenarioOptions options_;
  std::string jt_ = "jt";
  std::vector<std::string> trackers_;
  std::shared_ptr<MrDataPlane> data_plane_;
};

// --- Tenancy: the multi-tenant open-loop production workload under mild faults ---
//
// Three tenants with skewed traffic shares drive the fair-share JobTracker while one
// tracker crashes and another limps through a mild gray window (factors small enough that
// the attempt timeout never needs to fire). The point is that the *scheduling guarantee*
// must degrade gracefully: jobs still complete exactly once, and no tenant with pending
// demand is starved while another over-consumes.

class TenancyChaosScenario : public ChaosScenario {
 public:
  explicit TenancyChaosScenario(ScenarioOptions options) : options_(std::move(options)) {
    for (int i = 0; i < kNumTrackers; ++i) {
      trackers_.push_back(jt_ + "_tt" + std::to_string(i));
    }
  }

  std::string name() const override { return "tenancy"; }
  double default_horizon_ms() const override { return 20000; }
  double default_settle_ms() const override { return 30000; }

  void Setup(Cluster& cluster, uint64_t seed) override {
    TenancyOptions opts;
    opts.policy = MrPolicy::kFairShare;
    opts.jobtracker = jt_;
    opts.num_trackers = kNumTrackers;
    opts.map_slots = 2;
    opts.reduce_slots = 1;
    opts.seed = seed;
    opts.horizon_ms = horizon_ms() - 5000;   // arrivals stop early so the queue can drain
    opts.mean_interarrival_ms = 450;         // near saturation, not over it: completion is
    opts.num_clients = 100000;               // part of the contract under faults
    auto log = std::make_shared<MrWorkloadLog>();
    int num_maps = opts.maps_per_job;
    int num_reduces = opts.reduces_per_job;
    opts.on_submit = [log, num_maps, num_reduces](int64_t job_id, int /*tenant*/) {
      log->submitted.push_back(job_id);
      log->job_shape[job_id] = {num_maps, num_reduces};
    };
    workload_ = std::make_unique<TenancyWorkload>(cluster, opts);
    std::shared_ptr<MrDataPlane> data_plane = workload_->handles().data_plane;
    checkers_.push_back(std::make_unique<BoomMrExactlyOnceChecker>(data_plane, log));
    checkers_.push_back(std::make_unique<BoomMrCompletionChecker>(data_plane, log));
    checkers_.push_back(std::make_unique<BoomMrFairnessChecker>(
        data_plane, opts.num_tenants, opts.maps_per_job + opts.reduces_per_job,
        kNumTrackers * (opts.map_slots + opts.reduce_slots)));
  }

  FaultGenOptions FaultProfile() const override {
    FaultGenOptions o;
    o.horizon_ms = horizon_ms();
    o.killable = trackers_;
    o.all_nodes = trackers_;
    o.all_nodes.push_back(jt_);
    o.all_nodes.push_back(jt_ + "_client");
    for (int t = 1; t < 3; ++t) {
      o.all_nodes.push_back(jt_ + "_client_t" + std::to_string(t));
    }
    o.allow_drop = false;
    o.allow_dup = false;
    o.allow_reorder = false;
    o.max_crashes = 1;
    o.min_crash_ms = 1000;
    o.max_crash_ms = 3000;
    o.max_partitions = 0;
    o.max_degrades = 0;
    o.grayable = trackers_;
    o.max_grays = 1;
    o.min_gray_factor = 2;  // mild: inflated attempts stay under the attempt timeout
    o.max_gray_factor = 8;
    return o;
  }

 private:
  static constexpr int kNumTrackers = 5;

  ScenarioOptions options_;
  std::string jt_ = "jt";
  std::vector<std::string> trackers_;
  std::unique_ptr<TenancyWorkload> workload_;
};

// --- Overload: open-loop FS-metadata traffic, a mid-run burst past NameNode capacity,
// --- and the admission gateway + retry budgets that must keep the collapse metastable-
// --- free. The only random faults are mild gray windows on the NameNode itself: the
// --- burst is the trigger, the gray window composes with it.
//
// The "retry-storm" bug variant strips the gateway's shed rules (ady1/ady2) and removes
// the client retry budget + retry-after hint: requests queue unboundedly at the
// NameNode, time out, and the unbudgeted retry stream replaces the burst as the
// sustaining load — goodput stays collapsed after the trigger clears, which the
// GoodputRecoveryChecker flags (and the explorer shrinks the fault schedule to show the
// workload alone reproduces it).

class OverloadScenario : public ChaosScenario {
 public:
  explicit OverloadScenario(ScenarioOptions options) : options_(std::move(options)) {
    for (int i = 0; i < kNumDataNodes; ++i) {
      datanodes_.push_back(nn_ + "_dn" + std::to_string(i));
    }
    for (int t = 0; t < kNumTenants; ++t) {
      clients_.push_back(nn_ + "_client_t" + std::to_string(t));
    }
  }

  std::string name() const override { return "overload"; }
  double default_horizon_ms() const override { return 30000; }
  double default_settle_ms() const override { return 10000; }

  void Setup(Cluster& cluster, uint64_t seed) override {
    FsLoadOptions opts;
    opts.namenode = nn_;
    opts.num_datanodes = kNumDataNodes;
    opts.num_tenants = kNumTenants;
    opts.seed = seed;
    opts.horizon_ms = horizon_ms();
    // ~250 ops/s offered against a 625 ops/s NameNode (1.6ms serial service); the burst
    // alone exceeds capacity, everything else has headroom.
    opts.service_ms_per_request = 1.6;
    opts.mean_interarrival_ms = 4.0;
    opts.burst_factor = kBurstFactor;
    opts.burst_start_ms = kBurstStartMs;
    opts.burst_end_ms = kBurstEndMs;
    opts.with_admission = true;
    // Brownout (backlog-triggered read-only degradation) is the mechanism under test;
    // park the per-tenant write quota far above any rate this run can reach.
    opts.gateway.tenant_quota = 1000000;
    opts.gateway.queue_bound_ms = 400;
    opts.gateway.retry_after_ms = 500;
    // The recovering configuration: budgeted retries, full jitter, honored hints.
    opts.retry_budget_cap = 16;
    opts.retry_budget_refill = 0.2;
    opts.honor_retry_after = true;
    opts.full_jitter = true;
    if (options_.bug == "retry-storm") {
      // Gateway becomes a pass-through: same topology, no shedding. Clients lose the
      // budget (cap 0 = unbounded) and ignore retry-after hints — the pre-PR behaviour.
      GatewayOptions gw = opts.gateway;
      gw.namenode = nn_;
      for (int t = 0; t < kNumTenants; ++t) {
        gw.client_tenants.emplace_back(clients_[static_cast<size_t>(t)],
                                       static_cast<int64_t>(t));
      }
      Program program = BoomFsGatewayProgram(gw);
      StripRule(&program, "ady1");
      StripRule(&program, "ady2");
      opts.gateway_program_override = std::move(program);
      opts.retry_budget_cap = 0;
      opts.honor_retry_after = false;
      opts.max_op_retries = 6;
    }
    workload_ = std::make_unique<FsLoadWorkload>(cluster, std::move(opts));
    FsLoadWorkload* w = workload_.get();
    checkers_.push_back(std::make_unique<GoodputRecoveryChecker>(
        [w](double t0, double t1) { return w->GoodputBetween(t0, t1); },
        /*pre_t0_ms=*/4000, /*pre_t1_ms=*/kBurstStartMs,
        /*post_t0_ms=*/kBurstEndMs + 6000, /*post_t1_ms=*/horizon_ms() - 1000,
        /*min_ratio=*/0.9));
  }

  FaultGenOptions FaultProfile() const override {
    FaultGenOptions o;
    o.horizon_ms = horizon_ms();
    o.all_nodes = datanodes_;
    o.all_nodes.push_back(nn_);
    o.all_nodes.push_back(nn_ + "_gw");
    for (const std::string& c : clients_) {
      o.all_nodes.push_back(c);
    }
    // No crashes/partitions/degrades: the overload trigger lives in the workload itself.
    // The random dimension is a mild gray window on the NameNode — capacity dips but
    // stays above the steady offered load, so only its composition with the burst bites.
    o.max_crashes = 0;
    o.max_partitions = 0;
    o.max_degrades = 0;
    o.grayable = {nn_};
    o.max_grays = 1;
    o.min_gray_factor = 1.2;
    o.max_gray_factor = 1.8;
    return o;
  }

 private:
  static constexpr int kNumDataNodes = 3;
  static constexpr int kNumTenants = 3;
  static constexpr double kBurstFactor = 4.0;   // 4x offered = ~1.6x capacity
  static constexpr double kBurstStartMs = 10000;
  static constexpr double kBurstEndMs = 14000;

  ScenarioOptions options_;
  std::string nn_ = "nn";
  std::vector<std::string> datanodes_;
  std::vector<std::string> clients_;
  std::unique_ptr<FsLoadWorkload> workload_;
};

// --- Federation: partitioned + Paxos-replicated NameNode groups under replica churn ---
//
// Two groups of three replicas serve an 8-partition namespace behind the partition-map
// service while clients churn files (create/exists/rename/delete, renames deliberately
// cross-directory so the two-phase xr protocol fires) and, mid-run, partition 0 is
// migrated to the other group by the map node's migration coordinator (StartRebalance) —
// the split-during-churn composition. The random faults are crashes and partitions of
// NameNode REPLICAS only: the contract under test is that group failover and the
// migration protocol never lose, duplicate, or resurrect an acknowledged namespace entry
// (FedNamespaceChecker) and that routing epochs only ever move forward (FedEpochChecker).
//
// The "split-rename" bug variant strips the xr_commit delete rules (xc2/xc3): a committed
// cross-partition rename acks the client but leaves the source entry behind, so renamed-
// away paths resurface and migrated files end up present in two groups.

class FederationScenario : public ChaosScenario {
 public:
  explicit FederationScenario(ScenarioOptions options) : options_(std::move(options)) {
    for (int g = 0; g < kNumGroups; ++g) {
      for (int r = 0; r < kReplicasPerGroup; ++r) {
        replicas_.push_back(prefix_ + "_g" + std::to_string(g) + "r" + std::to_string(r));
      }
    }
    for (int i = 0; i < kNumDataNodes; ++i) {
      datanodes_.push_back(prefix_ + "_dn" + std::to_string(i));
    }
  }

  std::string name() const override { return "federation"; }

  void Setup(Cluster& cluster, uint64_t seed) override {
    FederatedFsOptions opts;
    opts.num_groups = kNumGroups;
    opts.replicas_per_group = kReplicasPerGroup;
    opts.num_partitions = kNumPartitions;
    opts.prefix = prefix_;
    opts.num_datanodes = kNumDataNodes;
    opts.num_clients = kNumClients;
    if (options_.bug == "split-rename") {
      opts.federation_strip_rules = {"xc2", "xc3"};
    }
    handles_ = SetupFederatedFs(cluster, opts);

    auto model = std::make_shared<FedModel>();
    model->num_partitions = kNumPartitions;
    model->pmap = handles_.pmap;
    model->groups = handles_.groups;
    auto work = std::make_shared<FedWork>(seed, model);

    // Pre-made working directories: twelve roots spread over the eight partitions, so
    // cross-directory renames usually cross partitions (and often cross groups).
    for (int d = 0; d < 12; ++d) {
      std::string dir = "/d" + std::to_string(d);
      cluster.ScheduleAt(700 + d * 40, [this, &cluster, work, dir] {
        FsClient* client = NextClient(work);
        client->Mkdir(cluster, dir, [work, dir](bool ok, const Value&) {
          if (ok) {
            work->model->live[dir] = true;
          } else {
            work->model->uncertain.insert(dir);
          }
        });
      });
    }
    for (double t = 1500; t < horizon_ms() - 1000; t += 250) {
      cluster.ScheduleAt(t, [this, &cluster, work] { Step(cluster, work); });
    }

    // Mid-run migration: partition 0 moves to the other group while the churn continues.
    // An aborted migration (a step can go unanswered past its deadline under leader
    // churn) leaves committed destination entries orphaned from the routed namespace, so
    // its partition's paths stop carrying obligations.
    cluster.ScheduleAt(horizon_ms() * 0.45, [this, &cluster, work] {
      StartRebalance(cluster, handles_, /*pid=*/0, 1 - handles_.pid_group[0],
                     [work](bool ok) {
                       if (!ok) {
                         work->model->uncertain_pids.insert(0);
                       }
                     });
    });

    checkers_.push_back(std::make_unique<FedEpochChecker>(model));
    checkers_.push_back(std::make_unique<FedNamespaceChecker>(model));
  }

  FaultGenOptions FaultProfile() const override {
    FaultGenOptions o;
    o.horizon_ms = horizon_ms();
    // Only NameNode replicas fault: the contract is that Paxos failover inside a group and
    // the epoch protocol across groups absorb replica loss. The map service, DataNodes,
    // and clients stay up (faulting the sole routing authority is a different experiment).
    o.killable = replicas_;
    o.partitionable = replicas_;
    o.all_nodes = replicas_;
    o.all_nodes.push_back(prefix_ + "_pmap");
    o.all_nodes.push_back(prefix_ + "_admin");
    for (const std::string& dn : datanodes_) {
      o.all_nodes.push_back(dn);
    }
    for (int i = 0; i < kNumClients; ++i) {
      o.all_nodes.push_back(prefix_ + "_client" + std::to_string(i));
    }
    // The replicated intake assumes TCP links (like the Paxos scenario): crashes and
    // partitions are the faults under test, not message loss.
    o.allow_drop = false;
    o.allow_dup = false;
    o.allow_reorder = false;
    o.max_crashes = 2;
    o.min_crash_ms = 800;
    o.max_crash_ms = 4000;
    o.max_partitions = 1;
    o.min_partition_ms = 1500;
    o.max_partition_ms = 4000;
    o.max_degrades = 0;
    return o;
  }

 private:
  static constexpr int kNumGroups = 2;
  static constexpr int kReplicasPerGroup = 3;
  static constexpr int kNumPartitions = 8;
  static constexpr int kNumDataNodes = 4;
  static constexpr int kNumClients = 2;

  struct FedWork {
    FedWork(uint64_t seed, std::shared_ptr<FedModel> m)
        : rng(seed ^ 0xFEDFEDFED0123ULL), model(std::move(m)) {}
    Rng rng;
    std::shared_ptr<FedModel> model;
    std::set<std::string> busy;  // paths with a pending rename/delete (never double-issue)
    int next_file = 0;
    int next_client = 0;
  };

  FsClient* NextClient(const std::shared_ptr<FedWork>& work) {
    return handles_.clients[static_cast<size_t>(work->next_client++) %
                            handles_.clients.size()];
  }

  void Step(Cluster& cluster, std::shared_ptr<FedWork> work) {
    auto& m = *work->model;
    std::vector<std::string> dirs;
    for (const auto& [path, is_dir] : m.live) {
      if (is_dir && !m.uncertain.count(path)) {
        dirs.push_back(path);
      }
    }
    if (dirs.empty()) {
      return;  // mkdirs still in flight
    }
    auto pick = [&work](const std::vector<std::string>& from) {
      return from[static_cast<size_t>(
          work->rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
    };
    std::vector<std::string> files;
    for (const auto& [path, is_dir] : m.live) {
      if (!is_dir && !m.uncertain.count(path) && !work->busy.count(path)) {
        files.push_back(path);
      }
    }
    FsClient* client = NextClient(work);
    double r = work->rng.Uniform(0, 1);
    if (r < 0.45 || files.empty()) {
      std::string path = pick(dirs) + "/f" + std::to_string(work->next_file++);
      client->CreateFile(cluster, path, [work, path](bool ok, const Value&) {
        if (ok) {
          work->model->live[path] = false;
        } else {
          work->model->uncertain.insert(path);
        }
      });
    } else if (r < 0.6) {
      client->Exists(cluster, pick(files), [](bool, const Value&) {});
    } else if (r < 0.8) {
      // Rename into a different directory: under the dirname routing this is usually a
      // cross-partition move, exercising the xr two-phase protocol under faults.
      std::string src = pick(files);
      std::string dst = pick(dirs) + "/r" + std::to_string(work->next_file++);
      work->busy.insert(src);
      client->Rename(cluster, src, dst, [work, src, dst](bool ok, const Value&) {
        work->busy.erase(src);
        if (ok) {
          work->model->live.erase(src);
          work->model->gone.insert(src);
          work->model->live[dst] = false;
        } else {
          // Unknown outcome: the intent/commit may have applied without the ack landing.
          work->model->uncertain.insert(src);
          work->model->uncertain.insert(dst);
        }
      });
    } else {
      std::string path = pick(files);
      work->busy.insert(path);
      client->Rm(cluster, path, [work, path](bool ok, const Value&) {
        work->busy.erase(path);
        if (ok) {
          work->model->live.erase(path);
          work->model->gone.insert(path);
        } else {
          work->model->uncertain.insert(path);
        }
      });
    }
  }

  ScenarioOptions options_;
  std::string prefix_ = "fed";
  std::vector<std::string> replicas_;
  std::vector<std::string> datanodes_;
  FederatedFsHandles handles_;
};

}  // namespace

namespace {

bool KnownBug(const std::string& scenario, const std::string& bug) {
  if (bug.empty()) {
    return true;
  }
  std::vector<std::string> known = ScenarioBugNames(scenario);
  return std::find(known.begin(), known.end(), bug) != known.end();
}

}  // namespace

std::vector<std::string> ScenarioBugNames(const std::string& scenario) {
  if (scenario == "paxos") {
    return {"quorum1", "amnesia"};
  }
  if (scenario == "boomfs") {
    return {"resurrect", "serve-corrupt"};
  }
  if (scenario == "boommr") {
    return {"limplock"};
  }
  if (scenario == "overload") {
    return {"retry-storm"};
  }
  if (scenario == "federation") {
    return {"split-rename"};
  }
  return {};  // the tenancy scenario has no bug variants
}

std::unique_ptr<ChaosScenario> MakeScenario(const std::string& name,
                                            const ScenarioOptions& options) {
  // Rejecting unknown bug names matters: a typo'd --bug would otherwise sweep the
  // *correct* implementation and report it green under the misspelled bug's banner.
  if (!KnownBug(name, options.bug)) {
    return nullptr;
  }
  if (name == "paxos") {
    return std::make_unique<PaxosScenario>(options);
  }
  if (name == "boomfs") {
    return std::make_unique<BoomFsScenario>(options);
  }
  if (name == "boommr") {
    return std::make_unique<BoomMrScenario>(options);
  }
  if (name == "tenancy") {
    return std::make_unique<TenancyChaosScenario>(options);
  }
  if (name == "overload") {
    return std::make_unique<OverloadScenario>(options);
  }
  if (name == "federation") {
    return std::make_unique<FederationScenario>(options);
  }
  return nullptr;
}

std::vector<std::string> ScenarioNames() {
  return {"paxos", "boomfs", "boommr", "tenancy", "overload", "federation"};
}

}  // namespace boom
