#include "src/boomfs/federation.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/boomfs/datanode.h"
#include "src/boomfs/ha.h"
#include "src/boomfs/nn_program.h"
#include "src/boomfs/protocol.h"

namespace boom {

namespace {

// Federation layer on one NameNode replica (one member of one Paxos-replicated group).
//
// fed_request is the client-facing intake: ns_request's shape plus the partition id the
// client routed by and the map epoch its cache held. Owned + unfrozen partitions admit
// into the HA bridge (ha_request -> Paxos -> replayed ns_request); a partition this group
// does not own bounces with a stale-epoch response carrying the replica's whole map, so
// one round trip refreshes the client's cache; a frozen partition (mid-migration) sheds
// with a retryable ["overloaded", hint] answer.
//
// The replica's map view arrives as fed_map_update pushes from the partition-map service
// and is applied through a strict-epoch guard: a row only replaces a strictly older row
// and the global epoch only ratchets forward, so reordered or replayed updates can never
// roll routing back (this is also what terminates the semi-naive fixpoint — an admitted
// row never re-admits itself).
constexpr char kNnFederationModule[] = R"olg(
// Relations borrowed from the Paxos/BOOM-FS/HA-bridge programs on the same engine, plus
// the events fed from outside (clients send fed_request; the map service sends
// fed_map_update / fed_freeze / fed_unfreeze).
extern event ha_request(Addr, ReqId, Client, Cmd, Path, Arg);
extern event ns_request(Addr, ReqId, Client, Cmd, Path, Arg);
extern event ns_response(Addr, ReqId, Ok, Payload);
extern table file(FileId, ParentId, FName, IsDir) keys(0);
extern table fqpath(Path, FileId);
extern table fchunk(ChunkId, FileId) keys(0);
extern event fed_request(Addr, ReqId, Client, Cmd, Path, Arg, Pid, Epoch);
extern event fed_map_update(Addr, Pid, Epoch, Leader, Members, GlobalEpoch);
extern event fed_freeze(Addr, Pid);
extern event fed_unfreeze(Addr, Pid);

table fed_map(Pid, Epoch, Leader, Members) keys(0);
table fed_epoch(K, Epoch) keys(0);
table fed_owned(Pid) keys(0);
table fed_frozen(Pid) keys(0);
// Partitions this group has sealed (xr_seal in the replicated log — see protocol.h and
// the fenced HA bridge, which negates this table at log replay). Owned here; the bridge
// declares it extern.
table fed_sealed(Pid) keys(0);
event fed_apply(Pid, Epoch, Leader, Members);

// Strict-epoch map application. fa1/fa2 admit a row iff it is new or strictly newer;
// ownership is recomputed from the admitted member list (derived tables never
// auto-retract, so fa6's delete is explicit). fa3 lands the row @next: fa1 negates
// fed_map, so the admit/insert loop must be broken across a tick to stratify.
fa1 fed_apply(Pid, E, L, M) :- fed_map_update(@Me, Pid, E, L, M, _),
                               notin fed_map(Pid, _, _, _);
fa2 fed_apply(Pid, E, L, M) :- fed_map_update(@Me, Pid, E, L, M, _),
                               fed_map(Pid, Old, _, _), E > Old;
fa3 fed_map(Pid, E, L, M)@next :- fed_apply(Pid, E, L, M);
fa4 fed_epoch(1, G) :- fed_map_update(@Me, _, _, _, _, G), fed_epoch(1, Cur), G > Cur;
fa5 fed_owned(Pid) :- fed_apply(Pid, _, _, M), Me := f_me(),
                      In := list_contains(M, Me), In == true;
fa6 delete fed_owned(Pid) :- fed_apply(Pid, _, _, M), fed_owned(Pid), Me := f_me(),
                             In := list_contains(M, Me), In == false;

// Migration freeze: the frozen partition sheds (fr2) while its subtree is copied out; the
// rebalancer unfreezes only after the new assignment has been broadcast.
ff1 fed_frozen(Pid) :- fed_freeze(@Me, Pid);
ff2 delete fed_frozen(Pid) :- fed_unfreeze(@Me, Pid), fed_frozen(Pid);

// Intake gating. A sealed partition (xr_seal applied from the replicated log — the
// migration fence) sheds retryably like a frozen one (fr3, the fast path; the fenced HA
// bridge's replay gate is the correctness backstop for commands that slip past intake on
// a replica that has not applied the seal yet).
fr1 ha_request(@Me, R, Cl, Cm, P, A) :- fed_request(@Me, R, Cl, Cm, P, A, Pid, _),
                                        fed_owned(Pid), notin fed_frozen(Pid),
                                        notin fed_sealed(Pid);
fr2 ns_response(@Cl, R, false, Pay) :- fed_request(@Me, R, Cl, _, _, _, Pid, _),
                                       fed_frozen(Pid),
                                       Pay := ["overloaded", freeze_retry_ms];
fr3 ns_response(@Cl, R, false, Pay) :- fed_request(@Me, R, Cl, _, _, _, Pid, _),
                                       fed_sealed(Pid), fed_owned(Pid),
                                       notin fed_frozen(Pid),
                                       Pay := ["overloaded", freeze_retry_ms];

// Stale routing: the whole map rides the bounce. fm1 keeps it pre-aggregated into one
// list row (re-derived whenever fed_map changes) so fs1 is a single lookup; fs2 covers a
// replica that has no map at all yet (fresh restart before the anti-entropy tick).
table fed_map_rows(K, Rows) keys(0);
fm1 fed_map_rows(1, bottomk<4096, Row>) :- fed_map(Pid, E, L, M), Row := [Pid, E, L, M];
fs1 ns_response(@Cl, R, false, Pay) :- fed_request(@Me, R, Cl, _, _, _, Pid, _),
                                       notin fed_owned(Pid), notin fed_frozen(Pid),
                                       fed_epoch(1, G), fed_map_rows(1, Rows),
                                       Pay := ["stale_epoch", G, Rows];
fs2 ns_response(@Cl, R, false, Pay) :- fed_request(@Me, R, Cl, _, _, _, Pid, _),
                                       notin fed_owned(Pid), notin fed_frozen(Pid),
                                       fed_epoch(1, G), notin fed_map_rows(1, _),
                                       Rows := [], Pay := ["stale_epoch", G, Rows];

// --- cross-partition rename: the replicated two-phase protocol ---
// Client-driven: xr_intent (source) validates + marks moving + returns [FileId, chunks];
// the destination entry is made with an ordinary "create"; xr_addchunk (destination)
// adopts one already-allocated chunk id; xr_commit (source) drops the source entry and
// leaves a tombstone — deliberately with NO dn_delete / dead_chunk, the destination owns
// the bytes now. xr_abort (source) and xr_drop (destination) unwind a failed attempt.
event do_xintent(ReqId, Client, Path);
event do_xadd(ReqId, Client, Path, ChunkId);
event do_xcommit(ReqId, Client, Path);
event do_xabort(ReqId, Client, Path);
event do_xdrop(ReqId, Client, Path);
event xr_intent_ok(ReqId, Client, Path, FileId);
event xr_chunks(ReqId, Client, FileId, L);
event xr_adopt_ok(ReqId, Client, FileId, ChunkId);
event xr_commit_ok(ReqId, Client, Path, FileId);
event xr_drop_ok(ReqId, Client, Path, FileId);
table xr_moving(Path, FileId) keys(0);
table xr_tomb(Path, DoneMs) keys(0);

// Command dispatch off the replicated log (same pattern as the dp rules in boomfs_nn).
xd1 do_xintent(R, C, P) :- ns_request(@Me, R, C, "xr_intent", P, _);
xd2 do_xadd(R, C, P, Ch) :- ns_request(@Me, R, C, "xr_addchunk", P, Ch);
xd3 do_xcommit(R, C, P) :- ns_request(@Me, R, C, "xr_commit", P, _);
xd4 do_xabort(R, C, P) :- ns_request(@Me, R, C, "xr_abort", P, _);
xd5 do_xdrop(R, C, P) :- ns_request(@Me, R, C, "xr_drop", P, _);

// Intent: only files move. A path already moving admits only the same file again (an
// idempotent client retry), never a second competing rename. xi3 marks @next: xi1
// negates xr_moving, so the check/mark loop must be broken across a tick to stratify
// (two same-tick intents for one path both pass xi1, but they carry the same FileId, so
// the marks coincide).
xi1 xr_intent_ok(R, C, P, F) :- do_xintent(R, C, P), fqpath(P, F), file(F, _, _, false),
                                notin xr_moving(P, _);
xi2 xr_intent_ok(R, C, P, F) :- do_xintent(R, C, P), fqpath(P, F), file(F, _, _, false),
                                xr_moving(P, F);
xi3 xr_moving(P, F)@next :- xr_intent_ok(_, _, P, F);
xi4 xr_chunks(R, C, F, bottomk<1000000, Ch>) :- xr_intent_ok(R, C, _, F), fchunk(Ch, F);
xi5 ns_response(@C, R, true, Pay) :- xr_chunks(R, C, F, L), Pay := [F, L];
xi6 ns_response(@C, R, true, Pay) :- xr_intent_ok(R, C, _, F), notin fchunk(_, F),
                                     L := [], Pay := [F, L];
xi7 ns_response(@C, R, false, "xr_intent failed") :- do_xintent(R, C, _),
                                                     notin xr_intent_ok(R, _, _, _);

// Adoption at the destination: the id was minted by the source group (per-group id salts
// keep the spaces disjoint); adopting rather than re-minting keeps the DataNodes' stored
// bytes addressable under the destination entry.
xa1 xr_adopt_ok(R, C, F, Ch) :- do_xadd(R, C, P, Ch), fqpath(P, F), file(F, _, _, false);
xa2 fchunk(Ch, F) :- xr_adopt_ok(_, _, F, Ch);
xa3 ns_response(@C, R, true, nil) :- xr_adopt_ok(R, C, _, _);
xa4 ns_response(@C, R, false, "xr_addchunk failed") :- do_xadd(R, C, _, _),
                                                       notin xr_adopt_ok(R, _, _, _);

// Commit: tombstone the source.
xc1 xr_commit_ok(R, C, P, F) :- do_xcommit(R, C, P), xr_moving(P, F);
xc2 delete file(F, Par, N, D) :- xr_commit_ok(_, _, _, F), file(F, Par, N, D);
xc3 delete fqpath(P, F) :- xr_commit_ok(_, _, P, _), fqpath(P, F);
xc4 delete fchunk(Ch, F) :- xr_commit_ok(_, _, _, F), fchunk(Ch, F);
xc5 delete xr_moving(P, F) :- xr_commit_ok(_, _, P, F), xr_moving(P, F);
xc6 xr_tomb(P, T)@next :- xr_commit_ok(_, _, P, _), T := f_now();
xc7 ns_response(@C, R, true, nil) :- xr_commit_ok(R, C, _, _);
xc8 ns_response(@C, R, true, nil) :- do_xcommit(R, C, P), notin xr_moving(P, _),
                                     xr_tomb(P, _);
xc9 ns_response(@C, R, false, "xr_commit failed") :- do_xcommit(R, C, P),
                                                     notin xr_moving(P, _),
                                                     notin xr_tomb(P, _);

// Abort (source): release the intent. Always acked — releasing a non-existent intent is
// a no-op, which keeps client-side unwinding idempotent.
xb1 delete xr_moving(P, F) :- do_xabort(_, _, P), xr_moving(P, F);
xb2 ns_response(@C, R, true, nil) :- do_xabort(R, C, _);

// Drop (destination): remove a half-imported destination entry WITHOUT chunk GC — the
// source still references the adopted chunks until its commit lands.
xp1 xr_drop_ok(R, C, P, F) :- do_xdrop(R, C, P), fqpath(P, F), file(F, _, _, false);
xp2 delete file(F, Par, N, D) :- xr_drop_ok(_, _, _, F), file(F, Par, N, D);
xp3 delete fqpath(P, F) :- xr_drop_ok(_, _, P, _), fqpath(P, F);
xp4 delete fchunk(Ch, F) :- xr_drop_ok(_, _, _, F), fchunk(Ch, F);
xp5 ns_response(@C, R, true, nil) :- xr_drop_ok(R, C, _, _);
xp6 ns_response(@C, R, true, nil) :- do_xdrop(R, C, P), notin fqpath(P, _);

// --- partition seal (migration fence) ---
// xr_seal/xr_unseal ride the replicated log with the partition id in Arg, so the fence
// state is itself replicated and durable: a recovering replica rebuilds it by replay.
// se1 lands @next — the fenced bridge's replay gate and fr1/fr3 negate fed_sealed, so
// the insert must be broken across a tick to stratify. That is safe for the fence: the
// learner applies one log slot per tick, so any plain command in a later slot replays at
// least one tick after the seal's fed_sealed row is visible. Both commands are acked
// unconditionally (sealing a sealed partition and unsealing an open one are no-ops),
// which keeps the rebalancer's retries idempotent.
se1 fed_sealed(Pid)@next :- ns_request(@Me, _, _, "xr_seal", _, Pid);
se2 ns_response(@C, R, true, nil) :- ns_request(@Me, R, C, "xr_seal", _, _);
se3 delete fed_sealed(Pid) :- ns_request(@Me, _, _, "xr_unseal", _, Pid), fed_sealed(Pid);
se4 ns_response(@C, R, true, nil) :- ns_request(@Me, R, C, "xr_unseal", _, _);
)olg";

// The partition-map service: the sole authority for pid -> group assignment. Assignments
// (pm_assign) carry explicit epochs chosen by the coordinator; the service accepts only
// strictly newer ones, ratchets its global epoch, and broadcasts accepted rows to every
// registered replica. An anti-entropy timer rebroadcasts the whole map so replicas that
// missed an update (restart, dropped message) reconverge; the strict-epoch guard on the
// replica side makes rebroadcasts idempotent.
constexpr char kPartitionMapModule[] = R"olg(
extern event pm_assign(Addr, Pid, Leader, Members, Epoch);
extern event pm_freeze(Addr, Pid);
extern event pm_unfreeze(Addr, Pid);

table partition_map(Pid, Epoch, Leader, Members) keys(0);
table pm_epoch(K, Epoch) keys(0);
table pm_node(Addr) keys(0);
event fed_map_update(Addr, Pid, Epoch, Leader, Members, GlobalEpoch);
event fed_freeze(Addr, Pid);
event fed_unfreeze(Addr, Pid);

// Accept a strictly newer assignment; ratchet the global epoch; broadcast the new row.
// pa1/pa2 land the row @next (pa1 negates partition_map, so the admit/insert loop must
// be broken across a tick to stratify — same shape as fa1/fa3 on the replica side).
pa1 partition_map(Pid, E, L, M)@next :- pm_assign(@Me, Pid, L, M, E),
                                        notin partition_map(Pid, _, _, _);
pa2 partition_map(Pid, E, L, M)@next :- pm_assign(@Me, Pid, L, M, E),
                                        partition_map(Pid, Old, _, _), E > Old;
pa3 pm_epoch(1, E) :- pm_assign(@Me, _, _, _, E), pm_epoch(1, Cur), E > Cur;
pa4 fed_map_update(@N, Pid, E, L, M, E) :- pm_assign(@Me, Pid, L, M, E), pm_node(N);

// Freeze/unfreeze relays go to every replica (a non-owner that sheds while frozen is
// harmless: it simply answers retryable until the unfreeze lands).
pf1 fed_freeze(@N, Pid) :- pm_freeze(@Me, Pid), pm_node(N);
pf2 fed_unfreeze(@N, Pid) :- pm_unfreeze(@Me, Pid), pm_node(N);

// Anti-entropy: rebroadcast the full map + global epoch every period.
timer pm_tick(pm_rebroadcast_ms);
pb1 fed_map_update(@N, Pid, E, L, M, G) :- pm_tick(_), partition_map(Pid, E, L, M),
                                           pm_node(N), pm_epoch(1, G);
)olg";

// Removes a rule by name (chaos bug variants are built by deleting steps of a protocol).
void StripProgramRule(Program* program, const std::string& name) {
  for (auto it = program->rules.begin(); it != program->rules.end(); ++it) {
    if (it->name == name) {
      program->rules.erase(it);
      return;
    }
  }
  BOOM_CHECK(false) << "federation rule " << name << " not found";
}

Value MembersValue(const std::vector<std::string>& members) {
  ValueList list;
  list.reserve(members.size());
  for (const std::string& m : members) {
    list.push_back(Value(m));
  }
  return Value(std::move(list));
}

// Reads every row of `table` on `node` (empty when the node is dead or lacks the table).
std::vector<Tuple> ReadEngineTable(Cluster& cluster, const std::string& node,
                                   const std::string& table) {
  std::vector<Tuple> rows;
  if (!cluster.IsAlive(node)) {
    return rows;
  }
  Engine* engine = cluster.engine(node);
  if (engine == nullptr) {
    return rows;
  }
  const Table* t = engine->catalog().Find(table);
  if (t == nullptr) {
    return rows;
  }
  t->ForEach([&rows](const Tuple& row) { rows.push_back(row); });
  return rows;
}

}  // namespace

const Module& NnFederationModule() {
  static const Module* kModule = new Module{
      "nn_federation",
      kNnFederationModule,
      {ModuleParam::Required("freeze_retry_ms", ValueKind::kDouble)}};
  return *kModule;
}

const Module& PartitionMapModule() {
  static const Module* kModule = new Module{
      "partition_map",
      kPartitionMapModule,
      {ModuleParam::Required("pm_rebroadcast_ms", ValueKind::kDouble)}};
  return *kModule;
}

Program NnFederationProgram(const NnFederationProgramOptions& options) {
  ProgramBuilder builder("nn_federation");
  Status status =
      builder.Add(NnFederationModule(), {{"freeze_retry_ms", options.freeze_retry_ms}});
  BOOM_CHECK(status.ok()) << status.ToString();
  builder.AddFact("fed_epoch",
                  Tuple{Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(0))});
  for (const FedMapRow& row : options.initial_map) {
    builder.AddFact("fed_map", Tuple{Value(row.pid), Value(row.epoch), Value(row.leader),
                                     MembersValue(row.members)});
  }
  for (int64_t pid : options.owned_pids) {
    builder.AddFact("fed_owned", Tuple{Value(pid)});
  }
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

Program PartitionMapProgram(const PartitionMapProgramOptions& options) {
  ProgramBuilder builder("partition_map");
  Status status =
      builder.Add(PartitionMapModule(), {{"pm_rebroadcast_ms", options.rebroadcast_ms}});
  BOOM_CHECK(status.ok()) << status.ToString();
  builder.AddFact("pm_epoch",
                  Tuple{Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(0))});
  for (const FedMapRow& row : options.initial_map) {
    builder.AddFact("partition_map",
                    Tuple{Value(row.pid), Value(row.epoch), Value(row.leader),
                          MembersValue(row.members)});
  }
  for (const std::string& node : options.nodes) {
    builder.AddFact("pm_node", Tuple{Value(node)});
  }
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

std::vector<std::string> FederatedFsHandles::AllReplicas() const {
  std::vector<std::string> all;
  for (const std::vector<std::string>& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

FederatedFsHandles SetupFederatedFs(Cluster& cluster, const FederatedFsOptions& options) {
  BOOM_CHECK(options.num_groups > 0 && options.replicas_per_group > 0 &&
             options.num_partitions > 0)
      << "degenerate federation";
  FederatedFsHandles handles;
  handles.num_partitions = options.num_partitions;
  handles.pmap = options.prefix + "_pmap";

  for (int g = 0; g < options.num_groups; ++g) {
    std::vector<std::string> members;
    for (int r = 0; r < options.replicas_per_group; ++r) {
      members.push_back(options.prefix + "_g" + std::to_string(g) + "r" +
                        std::to_string(r));
    }
    handles.groups.push_back(std::move(members));
  }

  // Initial assignment: pid -> group round-robin, everything at epoch 0.
  std::vector<FedMapRow> initial_map;
  for (int64_t pid = 0; pid < options.num_partitions; ++pid) {
    int g = static_cast<int>(pid % options.num_groups);
    handles.pid_group.push_back(g);
    FedMapRow row;
    row.pid = pid;
    row.epoch = 0;
    row.leader = handles.groups[g][0];
    row.members = handles.groups[g];
    initial_map.push_back(std::move(row));
  }

  NnProgramOptions nn_prog;
  nn_prog.replication_factor = options.replication_factor;
  nn_prog.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  nn_prog.with_rename = true;
  Program fs_program = BoomFsNnProgram(nn_prog);
  // The fenced bridge: replayed plain commands for a sealed (migrated-away) partition
  // are dropped at every replica — the zombie-write fence (see ha.h).
  HaBridgeOptions bridge_opts;
  bridge_opts.fed_fence = true;
  bridge_opts.num_partitions = options.num_partitions;
  Program bridge_program = HaBridgeProgram(bridge_opts);

  for (int g = 0; g < options.num_groups; ++g) {
    const std::vector<std::string>& members = handles.groups[g];
    NnFederationProgramOptions fed_prog;
    fed_prog.freeze_retry_ms = options.freeze_retry_ms;
    fed_prog.initial_map = initial_map;
    for (int64_t pid = 0; pid < options.num_partitions; ++pid) {
      if (handles.pid_group[static_cast<size_t>(pid)] == g) {
        fed_prog.owned_pids.push_back(pid);
      }
    }
    Program fed_program = NnFederationProgram(fed_prog);
    for (const std::string& rule : options.federation_strip_rules) {
      StripProgramRule(&fed_program, rule);
    }
    for (int i = 0; i < options.replicas_per_group; ++i) {
      PaxosProgramOptions paxos = options.paxos;
      paxos.peers = members;
      paxos.my_index = i;
      Program paxos_program = PaxosProgram(paxos);
      auto init = [paxos_program, fs_program, bridge_program, fed_program](Engine& engine) {
        Status s = engine.Install({paxos_program, fs_program, bridge_program, fed_program});
        BOOM_CHECK(s.ok()) << "paxos + boomfs + ha bridge + federation install: "
                           << s.ToString();
      };
      // Group-salted ids: shared within a group (replicas replaying the same log mint
      // identical file/chunk ids), distinct across groups (no cross-partition chunk-id
      // collisions over the shared DataNode pool).
      cluster.AddOverlogNode(members[static_cast<size_t>(i)], init,
                             /*id_salt=*/0xF00 + static_cast<uint64_t>(g));
    }
  }

  PartitionMapProgramOptions pm_prog;
  pm_prog.rebroadcast_ms = options.pm_rebroadcast_ms;
  pm_prog.initial_map = initial_map;
  pm_prog.nodes = handles.AllReplicas();
  Program pm_program = PartitionMapProgram(pm_prog);
  cluster.AddOverlogNode(handles.pmap, [pm_program](Engine& engine) {
    Status s = engine.Install(pm_program);
    BOOM_CHECK(s.ok()) << "partition_map install: " << s.ToString();
  });

  // One shared DataNode pool heartbeating to every replica of every group: any group can
  // allocate chunks on any DataNode (the paper's shared storage tier under a partitioned
  // metadata tier).
  std::vector<std::string> all = handles.AllReplicas();
  for (int i = 0; i < options.num_datanodes; ++i) {
    std::string dn = options.prefix + "_dn" + std::to_string(i);
    DataNodeOptions dn_opts;
    dn_opts.namenode = all[0];
    dn_opts.extra_namenodes.assign(all.begin() + 1, all.end());
    dn_opts.heartbeat_period_ms = options.heartbeat_period_ms;
    cluster.AddActor(std::make_unique<DataNode>(dn, dn_opts));
    handles.datanodes.push_back(std::move(dn));
  }

  // Federated clients share one map cache seeded with the epoch-0 assignment; any
  // client's stale-epoch bounce refreshes routing for all of them.
  handles.cache = std::make_shared<FedMapCache>();
  for (const FedMapRow& row : initial_map) {
    handles.cache->ApplyRow(row.pid, row.epoch, row.leader, row.members);
  }
  for (int i = 0; i < options.num_clients; ++i) {
    FsClientOptions client_opts;
    client_opts.namenode = all[0];
    client_opts.chunk_size = options.chunk_size;
    client_opts.request_timeout_ms = options.client_timeout_ms;
    client_opts.max_retries = options.client_retries;
    client_opts.request_table = kFedRequest;
    auto client = std::make_unique<FsClient>(
        options.prefix + "_client" + std::to_string(i), client_opts);
    client->SetFedRouting(handles.cache, options.num_partitions);
    handles.clients.push_back(client.get());
    cluster.AddActor(std::move(client));
  }

  // Raw-op admin client for the rebalancer and tests: no routing, explicit targets only.
  FsClientOptions admin_opts;
  admin_opts.namenode = all[0];
  admin_opts.request_timeout_ms = options.client_timeout_ms;
  auto admin = std::make_unique<FsClient>(options.prefix + "_admin", admin_opts);
  handles.admin = admin.get();
  cluster.AddActor(std::move(admin));
  return handles;
}

std::string GroupLeader(Cluster& cluster, const std::vector<std::string>& members) {
  for (const std::string& m : members) {
    if (!cluster.IsAlive(m)) {
      continue;
    }
    for (const Tuple& row : ReadEngineTable(cluster, m, "leader")) {
      if (row.size() == 2 && row[1].is_string() && cluster.IsAlive(row[1].as_string())) {
        return row[1].as_string();
      }
    }
    // Election still converging (or the recorded leader is dead): any alive member
    // forwards ha_request to whoever wins.
    return m;
  }
  return "";
}

namespace {

// One online partition migration, driven as an asynchronous chain of scheduled steps and
// admin-client ops (RunUntil is not reentrant, so nothing here blocks the simulation).
class Rebalance : public std::enable_shared_from_this<Rebalance> {
 public:
  Rebalance(Cluster& cluster, FedRebalanceOptions opts, std::function<void(bool)> done)
      : cluster_(cluster), opts_(std::move(opts)), done_(std::move(done)) {
    BOOM_CHECK(opts_.admin != nullptr) << "rebalance needs an admin client";
  }

  void Start() {
    SendPm("pm_freeze");
    // Seal the partition in the SOURCE group's replicated log. The seal is the ordering
    // barrier that makes the snapshot complete: every command acked by the source
    // precedes the seal in the log, and every plain command after it is dropped at
    // replay — including one a crashed ex-leader re-proposes when it recovers after the
    // partition has already migrated away (the zombie-write fence).
    auto self = shared_from_this();
    Op(&opts_.source, kCmdXrSeal, "", Value(opts_.pid), [self](bool ok, const Value&) {
      if (!ok) {
        self->FailUnseal();
        return;
      }
      self->cluster_.ScheduleAfter(self->opts_.settle_ms, [self] { self->Snapshot(); });
    });
  }

 private:
  using OpCb = std::function<void(bool, const Value&)>;

  void SendPm(const std::string& table) {
    cluster_.Send(opts_.admin->address(), opts_.pmap, table,
                  Tuple{Value(opts_.pmap), Value(opts_.pid)});
  }

  void Fail() {
    // Abort: the map stays with the source group; unfreeze and report. Files already
    // committed to the destination are orphaned from routing — callers tracking per-path
    // state treat the whole partition as uncertain (see header).
    SendPm("pm_unfreeze");
    done_(false);
  }

  // Abort after the seal may have landed: reopen the source partition (best-effort —
  // unsealing an open partition is an acked no-op) so the still-owning source group can
  // serve it again, then unfreeze and report.
  void FailUnseal() {
    auto self = shared_from_this();
    Op(&opts_.source, kCmdXrUnseal, "", Value(opts_.pid),
       [self](bool, const Value&) { self->Fail(); });
  }

  // Snapshot the source group's committed namespace and compute what moves: entries the
  // partition serves (routing key = parent dir) plus child-serving directory copies
  // (routing key = the dir's own path), and every ancestor needed as scaffolding.
  void Snapshot() {
    std::string source = GroupLeader(cluster_, opts_.source);
    if (source.empty()) {
      FailUnseal();
      return;
    }
    // The seal op was acked by SOME replica; only snapshot a leader that has replayed up
    // to (at least) the seal, so every command the group ever acked for this partition
    // is already in the tables read below.
    bool sealed = false;
    for (const Tuple& row : ReadEngineTable(cluster_, source, "fed_sealed")) {
      if (!row.empty() && row[0].is_int() && row[0].as_int() == opts_.pid) {
        sealed = true;
      }
    }
    if (!sealed) {
      if (++seal_waits_ > opts_.op_retries) {
        FailUnseal();
        return;
      }
      auto self = shared_from_this();
      cluster_.ScheduleAfter(opts_.retry_ms, [self] { self->Snapshot(); });
      return;
    }
    std::map<int64_t, bool> is_dir;
    for (const Tuple& row : ReadEngineTable(cluster_, source, "file")) {
      if (row.size() == 4) {
        is_dir[row[0].as_int()] = row[3].Truthy();
      }
    }
    std::set<std::string> dir_set;
    std::vector<std::string> files;
    for (const Tuple& row : ReadEngineTable(cluster_, source, "fqpath")) {
      if (row.size() != 2 || !row[0].is_string()) {
        continue;
      }
      const std::string path = row[0].as_string();
      if (path == "/") {
        continue;
      }
      auto kind = is_dir.find(row[1].as_int());
      if (kind == is_dir.end()) {
        continue;  // mid-apply inconsistency; the settle window makes this rare
      }
      bool keyed_here = RoutingPid(PathDirname(path), opts_.num_partitions) == opts_.pid;
      bool child_copy =
          kind->second && RoutingPid(path, opts_.num_partitions) == opts_.pid;
      if (!keyed_here && !child_copy) {
        continue;
      }
      if (kind->second) {
        dir_set.insert(path);
      } else {
        files.push_back(path);
      }
    }
    std::set<std::string> all_dirs = dir_set;
    auto add_ancestors = [&all_dirs](const std::string& path) {
      for (std::string p = PathDirname(path); !p.empty() && p != "/"; p = PathDirname(p)) {
        all_dirs.insert(p);
      }
    };
    for (const std::string& f : files) {
      add_ancestors(f);
    }
    for (const std::string& d : dir_set) {
      add_ancestors(d);
    }
    dirs_.assign(all_dirs.begin(), all_dirs.end());
    std::sort(dirs_.begin(), dirs_.end(), [](const std::string& a, const std::string& b) {
      size_t da = static_cast<size_t>(std::count(a.begin(), a.end(), '/'));
      size_t db = static_cast<size_t>(std::count(b.begin(), b.end(), '/'));
      return da != db ? da < db : a < b;  // parents before children
    });
    std::sort(files.begin(), files.end());
    files_ = std::move(files);
    // Reopen the partition at the DESTINATION before importing: if an earlier migration
    // ever moved this pid away from `dest`, its seal is still in that group's replayed
    // state and would fence the plain mkdir/create imports below. (Unsealing a
    // never-sealed partition is an acked no-op.)
    auto self = shared_from_this();
    Op(&opts_.dest, kCmdXrUnseal, "", Value(opts_.pid), [self](bool ok, const Value&) {
      if (!ok) {
        self->FailUnseal();
        return;
      }
      self->NextDir();
    });
  }

  // One migration op with bounded retries. The target group's leader is re-resolved every
  // attempt, and ops ride ha_request (through Paxos), so the migration survives a
  // failover of either group and bypasses the frozen-partition intake gate.
  void Op(const std::vector<std::string>* group, const std::string& cmd,
          const std::string& path, Value arg, OpCb k) {
    OpAttempt(group, cmd, path, std::move(arg), 0, std::move(k));
  }

  void OpAttempt(const std::vector<std::string>* group, const std::string& cmd,
                 const std::string& path, Value arg, int attempt, OpCb k) {
    auto self = shared_from_this();
    std::string target = GroupLeader(cluster_, *group);
    if (target.empty()) {
      OpRetry(group, cmd, path, std::move(arg), attempt, std::move(k), Value());
      return;
    }
    opts_.admin->RawOp(
        cluster_, cmd, path, arg,
        [self, group, cmd, path, arg, attempt, k](bool ok, const Value& pay) {
          if (ok) {
            k(true, pay);
            return;
          }
          self->OpRetry(group, cmd, path, arg, attempt, k, pay);
        },
        target, "ha_request");
  }

  void OpRetry(const std::vector<std::string>* group, const std::string& cmd,
               const std::string& path, Value arg, int attempt, OpCb k,
               const Value& last) {
    if (attempt + 1 >= opts_.op_retries) {
      k(false, last);
      return;
    }
    auto self = shared_from_this();
    cluster_.ScheduleAfter(opts_.retry_ms, [self, group, cmd, path, arg, attempt, k] {
      self->OpAttempt(group, cmd, path, arg, attempt + 1, k);
    });
  }

  // Mkdir at the destination, treating already-exists (surfaced as "mkdir failed") as
  // success via an exists probe — re-runs after a partial earlier migration stay clean.
  void NextDir() {
    if (next_dir_ >= dirs_.size()) {
      NextFile();
      return;
    }
    const std::string path = dirs_[next_dir_];
    auto self = shared_from_this();
    Op(&opts_.dest, kCmdMkdir, path, Value(), [self, path](bool ok, const Value&) {
      if (ok) {
        ++self->next_dir_;
        self->NextDir();
        return;
      }
      self->Op(&self->opts_.dest, kCmdExists, path, Value(),
               [self](bool ok2, const Value& present) {
                 if (ok2 && present.Truthy()) {
                   ++self->next_dir_;
                   self->NextDir();
                   return;
                 }
                 self->FailUnseal();
               });
    });
  }

  // Move one file through the xr two-phase protocol: intent at the source, create+adopt
  // at the destination (same path — this is an ownership move), commit at the source.
  void NextFile() {
    if (next_file_ >= files_.size()) {
      Publish();
      return;
    }
    const std::string path = files_[next_file_];
    auto self = shared_from_this();
    Op(&opts_.source, kCmdXrIntent, path, Value(), [self, path](bool ok, const Value& pay) {
      if (!ok || !pay.is_list() || pay.as_list().size() != 2 ||
          !pay.as_list()[1].is_list()) {
        self->FailUnseal();
        return;
      }
      self->ImportFile(path, pay.as_list()[1].as_list());
    });
  }

  void ImportFile(const std::string& path, ValueList chunks) {
    auto self = shared_from_this();
    Op(&opts_.dest, kCmdCreate, path, Value(),
       [self, path, chunks](bool ok, const Value&) {
         if (ok) {
           self->AdoptChunk(path, chunks, 0);
           return;
         }
         // Possibly created by an earlier partial run; adoption is idempotent.
         self->Op(&self->opts_.dest, kCmdExists, path, Value(),
                  [self, path, chunks](bool ok2, const Value& present) {
                    if (ok2 && present.Truthy()) {
                      self->AdoptChunk(path, chunks, 0);
                      return;
                    }
                    self->FailUnseal();
                  });
       });
  }

  void AdoptChunk(const std::string& path, ValueList chunks, size_t index) {
    if (index >= chunks.size()) {
      CommitFile(path);
      return;
    }
    auto self = shared_from_this();
    Op(&opts_.dest, kCmdXrAddChunk, path, chunks[index],
       [self, path, chunks, index](bool ok, const Value&) {
         if (!ok) {
           self->FailUnseal();
           return;
         }
         self->AdoptChunk(path, chunks, index + 1);
       });
  }

  void CommitFile(const std::string& path) {
    auto self = shared_from_this();
    Op(&opts_.source, kCmdXrCommit, path, Value(), [self](bool ok, const Value&) {
      if (!ok) {
        self->FailUnseal();
        return;
      }
      ++self->next_file_;
      self->NextFile();
    });
  }

  // Publish the new assignment with a bumped epoch, then unfreeze after the broadcast has
  // outrun any straggler intake at the old group.
  void Publish() {
    int64_t epoch = 1;
    for (const Tuple& row : ReadEngineTable(cluster_, opts_.pmap, "pm_epoch")) {
      if (row.size() == 2 && row[1].is_numeric()) {
        epoch = row[1].as_int() + 1;
      }
    }
    cluster_.Send(opts_.admin->address(), opts_.pmap, "pm_assign",
                  Tuple{Value(opts_.pmap), Value(opts_.pid),
                        Value(GroupLeader(cluster_, opts_.dest)),
                        MembersValue(opts_.dest), Value(epoch)});
    auto self = shared_from_this();
    cluster_.ScheduleAfter(100, [self] {
      self->SendPm("pm_unfreeze");
      self->done_(true);
    });
  }

  Cluster& cluster_;
  FedRebalanceOptions opts_;
  std::function<void(bool)> done_;
  std::vector<std::string> dirs_;
  std::vector<std::string> files_;
  size_t next_dir_ = 0;
  size_t next_file_ = 0;
  int seal_waits_ = 0;  // Snapshot() polls of the source leader for the applied seal
};

}  // namespace

void StartRebalance(Cluster& cluster, const FedRebalanceOptions& options,
                    std::function<void(bool ok)> done) {
  auto job = std::make_shared<Rebalance>(cluster, options, std::move(done));
  job->Start();
}

bool RebalancePartitionSync(Cluster& cluster, FederatedFsHandles& handles, int64_t pid,
                            int dest_group, double timeout_ms) {
  BOOM_CHECK(dest_group >= 0 && dest_group < static_cast<int>(handles.groups.size()));
  // Current owner: the map service's row for `pid` (fall back to the recorded initial
  // assignment if the service is unreadable).
  int src_group = handles.pid_group[static_cast<size_t>(pid)];
  for (const Tuple& row : ReadEngineTable(cluster, handles.pmap, "partition_map")) {
    if (row.size() != 4 || row[0].as_int() != pid || !row[3].is_list() ||
        row[3].as_list().empty()) {
      continue;
    }
    const std::string& first = row[3].as_list()[0].as_string();
    for (size_t g = 0; g < handles.groups.size(); ++g) {
      if (!handles.groups[g].empty() && handles.groups[g][0] == first) {
        src_group = static_cast<int>(g);
      }
    }
  }
  FedRebalanceOptions opts;
  opts.pmap = handles.pmap;
  opts.source = handles.groups[static_cast<size_t>(src_group)];
  opts.dest = handles.groups[static_cast<size_t>(dest_group)];
  opts.pid = pid;
  opts.num_partitions = handles.num_partitions;
  opts.admin = handles.admin;
  bool finished = false;
  bool ok = false;
  StartRebalance(cluster, opts, [&finished, &ok](bool r) {
    finished = true;
    ok = r;
  });
  double deadline = cluster.now() + timeout_ms;
  while (!finished && cluster.now() < deadline) {
    cluster.RunUntil(cluster.now() + 5.0);
  }
  if (finished && ok) {
    handles.pid_group[static_cast<size_t>(pid)] = dest_group;
  }
  return finished && ok;
}

}  // namespace boom
