#include "src/boomfs/ha.h"

#include "src/base/logging.h"
#include "src/boomfs/datanode.h"
#include "src/boomfs/nn_program.h"
#include "src/telemetry/metrics.h"

namespace boom {

namespace {

constexpr char kBridgeModule[] = R"olg(
// Relations borrowed from the Paxos and BOOM-FS programs on the same engine. `extern`
// records the expected schema; the engine verifies it at install time.
extern table leader(K, Addr) keys(0);
extern event px_request(Addr, Cmd);
extern event apply_cmd(Slot, Cmd);
extern event ns_request(Addr, ReqId, Client, Cmd, Path, Arg);

// Client-facing request event; same shape as ns_request but routed through Paxos.
event ha_request(Addr, ReqId, Client, Cmd, Path, Arg);
table seen_req(Client, ReqId) keys(0, 1);

// Leader: propose the command (unless this exact client request was already applied —
// dedupes client retries across failovers).
h1 px_request(@Me, C) :- ha_request(@Me, R, Cl, Cm, P, A), leader(1, L), Me := f_me(),
                         L == Me, notin seen_req(Cl, R), C := [R, Cl, Cm, P, A];

// Non-leader: forward to the current leader.
h2 ha_request(@L, R, Cl, Cm, P, A) :- ha_request(@Me, R, Cl, Cm, P, A), leader(1, L),
                                      L != f_me();

// Every replica replays decided commands into its local BOOM-FS program.
h3 seen_req(Cl, R)@next :- apply_cmd(_, C), R := list_get(C, 0), Cl := list_get(C, 1);
h4 ns_request(@Me, R, Cl, Cm, P, A) :- apply_cmd(_, C), Me := f_me(),
                                       R := list_get(C, 0), Cl := list_get(C, 1),
                                       Cm := list_get(C, 2), P := list_get(C, 3),
                                       A := list_get(C, 4);
)olg";

// The federated variant of the bridge: identical intake (h1-h3), but the replay of a
// PLAIN namespace command is fenced by the partition seal (fed_sealed, owned by the
// nn_federation program on the same engine; installing the bridge first auto-creates the
// table and the owner's identical declaration collapses into it).
//
// Why fence at replay and not just at intake: a command admitted at intake before the
// seal — or stuck in a crashed ex-leader's proposer and re-proposed when it recovers and
// wins its election back — lands in the log AFTER the seal. Replaying it would mutate a
// namespace whose ownership already migrated away (a duplicated entry at the old group: a
// zombie write). Dropping it at replay means it is never applied and never acked, so the
// client's retry converges at the new owner. Intake-side shedding (fr3 in nn_federation)
// remains the fast path; this gate is the correctness backstop.
//
// The routing key recomputed in h4 is bit-for-bit the client's NsRoutingKey/RoutingPid
// (src/boomfs/protocol.h): "ls" routes by the listed directory itself, everything else by
// the parent directory; route_pid is the same full-64-bit FNV-1a mod partition count.
constexpr char kFencedBridgeModule[] = R"olg(
// Relations borrowed from the Paxos, BOOM-FS, and federation programs on the same engine.
// `extern` records the expected schema; the engine verifies it at install time.
extern table leader(K, Addr) keys(0);
extern event px_request(Addr, Cmd);
extern event apply_cmd(Slot, Cmd);
extern event ns_request(Addr, ReqId, Client, Cmd, Path, Arg);
extern table fed_sealed(Pid) keys(0);

// Client-facing request event; same shape as ns_request but routed through Paxos.
event ha_request(Addr, ReqId, Client, Cmd, Path, Arg);
table seen_req(Client, ReqId) keys(0, 1);

// Leader: propose the command (unless this exact client request was already applied —
// dedupes client retries across failovers).
h1 px_request(@Me, C) :- ha_request(@Me, R, Cl, Cm, P, A), leader(1, L), Me := f_me(),
                         L == Me, notin seen_req(Cl, R), C := [R, Cl, Cm, P, A];

// Non-leader: forward to the current leader.
h2 ha_request(@L, R, Cl, Cm, P, A) :- ha_request(@Me, R, Cl, Cm, P, A), leader(1, L),
                                      L != f_me();

// Every replica replays decided commands into its local BOOM-FS program — but a plain
// namespace command whose routing partition is sealed is dropped (never applied, never
// acked): once `xr_seal Pid` is in the log, no later plain command can mutate Pid here.
h3 seen_req(Cl, R)@next :- apply_cmd(_, C), R := list_get(C, 0), Cl := list_get(C, 1);
h4 ns_request(@Me, R, Cl, Cm, P, A) :- apply_cmd(_, C), Me := f_me(),
                                       R := list_get(C, 0), Cl := list_get(C, 1),
                                       Cm := list_get(C, 2), P := list_get(C, 3),
                                       A := list_get(C, 4),
                                       Fed := starts_with(Cm, "xr_"), Fed == false,
                                       K := if(P == "", "/",
                                               if(Cm == "ls", P, path_dirname(P))),
                                       Pid := route_pid(K, num_partitions),
                                       notin fed_sealed(Pid);

// The migration/2PC plane (xr_*-prefixed commands, including xr_seal/xr_unseal
// themselves) is exempt: it must keep operating on a sealed partition.
h5 ns_request(@Me, R, Cl, Cm, P, A) :- apply_cmd(_, C), Me := f_me(),
                                       R := list_get(C, 0), Cl := list_get(C, 1),
                                       Cm := list_get(C, 2), P := list_get(C, 3),
                                       A := list_get(C, 4),
                                       Fed := starts_with(Cm, "xr_"), Fed == true;
)olg";

}  // namespace

const Module& HaBridgeModule() {
  static const Module* kModule = new Module{"ha_bridge", kBridgeModule, {}};
  return *kModule;
}

const Module& FencedHaBridgeModule() {
  static const Module* kModule =
      new Module{"ha_bridge_fenced",
                 kFencedBridgeModule,
                 {ModuleParam::Required("num_partitions", ValueKind::kInt)}};
  return *kModule;
}

Program HaBridgeProgram(const HaBridgeOptions& options) {
  ProgramBuilder builder(options.fed_fence ? "ha_bridge_fenced" : "ha_bridge");
  // ha_request arrives from clients (and from peer replicas forwarding to the leader).
  builder.WithExternalInputs({"ha_request"});
  Status status;
  if (options.fed_fence) {
    BOOM_CHECK(options.num_partitions > 0) << "fenced bridge needs the partition count";
    status = builder.Add(FencedHaBridgeModule(),
                         {{"num_partitions",
                           Value(static_cast<int64_t>(options.num_partitions))}});
  } else {
    status = builder.Add(HaBridgeModule());
  }
  BOOM_CHECK(status.ok()) << status.ToString();
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

HaFsHandles SetupHaFs(Cluster& cluster, const HaFsOptions& options) {
  HaFsHandles handles;
  for (int i = 0; i < options.num_replicas; ++i) {
    handles.replicas.push_back(options.prefix + std::to_string(i));
  }

  NnProgramOptions nn_prog;
  nn_prog.replication_factor = options.replication_factor;
  nn_prog.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  Program fs_program = BoomFsNnProgram(nn_prog);
  Program bridge_program = HaBridgeProgram();

  for (int i = 0; i < options.num_replicas; ++i) {
    PaxosProgramOptions paxos = options.paxos;
    paxos.peers = handles.replicas;
    paxos.my_index = i;
    Program paxos_program = PaxosProgram(paxos);
    auto init = [paxos_program, fs_program, bridge_program](Engine& engine) {
      Status s = engine.Install({paxos_program, fs_program, bridge_program});
      BOOM_CHECK(s.ok()) << "paxos + boomfs + ha bridge install: " << s.ToString();
      // Consensus metrics from table activity: proposals, decisions, ballot churn, and
      // propose->decide quorum latency (virtual ms, matched per slot on this replica).
      Engine* e = &engine;
      auto propose_ms = std::make_shared<std::map<int64_t, double>>();
      engine.AddWatch("proposal", [e, propose_ms](const std::string&, const Tuple& t,
                                                  bool inserted) {
        if (inserted && !t.empty() && t[0].is_int()) {
          MetricsRegistry::Global().counter("paxos.proposal").Add();
          propose_ms->emplace(t[0].as_int(), e->now());
        }
      });
      engine.AddWatch("decided", [e, propose_ms](const std::string&, const Tuple& t,
                                                 bool inserted) {
        if (!inserted || t.empty() || !t[0].is_int()) {
          return;
        }
        MetricsRegistry::Global().counter("paxos.decided").Add();
        auto it = propose_ms->find(t[0].as_int());
        if (it != propose_ms->end()) {
          MetricsRegistry::Global().histogram("paxos.quorum_ms").Observe(e->now() -
                                                                         it->second);
          propose_ms->erase(it);
        }
      });
      engine.AddWatch("my_ballot", [](const std::string&, const Tuple&, bool inserted) {
        if (inserted) {
          MetricsRegistry::Global().counter("paxos.ballot_advance").Add();
        }
      });
    };
    // Shared salt: replicas replaying the same log mint identical file/chunk ids.
    cluster.AddOverlogNode(handles.replicas[static_cast<size_t>(i)], init,
                           /*id_salt=*/0xB00);
  }

  for (int i = 0; i < options.num_datanodes; ++i) {
    std::string dn = options.prefix + "_dn" + std::to_string(i);
    DataNodeOptions dn_opts;
    dn_opts.namenode = handles.replicas[0];
    dn_opts.extra_namenodes.assign(handles.replicas.begin() + 1, handles.replicas.end());
    dn_opts.heartbeat_period_ms = options.heartbeat_period_ms;
    cluster.AddActor(std::make_unique<DataNode>(dn, dn_opts));
    handles.datanodes.push_back(std::move(dn));
  }

  FsClientOptions client_opts;
  client_opts.namenode = handles.replicas[0];
  client_opts.fallbacks.assign(handles.replicas.begin() + 1, handles.replicas.end());
  client_opts.chunk_size = options.chunk_size;
  client_opts.request_timeout_ms = options.client_timeout_ms;
  client_opts.max_retries = options.client_retries;
  client_opts.request_table = "ha_request";
  auto client = std::make_unique<FsClient>(options.prefix + "_client", client_opts);
  handles.client = client.get();
  cluster.AddActor(std::move(client));
  return handles;
}

}  // namespace boom
