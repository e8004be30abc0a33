#include "src/boomfs/federation.h"

#include <utility>

#include "src/base/logging.h"
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
// migration coordinator unfreezes only after the new assignment has been broadcast.
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
// which keeps the migration coordinator's resends idempotent.
se1 fed_sealed(Pid)@next :- ns_request(@Me, _, _, "xr_seal", _, Pid);
se2 ns_response(@C, R, true, nil) :- ns_request(@Me, R, C, "xr_seal", _, _);
se3 delete fed_sealed(Pid) :- ns_request(@Me, _, _, "xr_unseal", _, Pid), fed_sealed(Pid);
se4 ns_response(@C, R, true, nil) :- ns_request(@Me, R, C, "xr_unseal", _, _);

// --- migration snapshot ---
// xr_snapshot, Arg [Pid, NumPartitions, After], answers one page of what partition Pid
// serves: up to 64 [Path, IsDir] pairs past the cursor After, in path order. An entry
// belongs to Pid when its parent directory routes there, and a directory also when its
// own path does (the child-serving copy). The coordinator sends it through the log after
// the seal, so every replica that answers has applied the seal and no plain command for
// Pid can change the pages; a full page means "ask again from its last path". xn1 is an
// aggregate driven by its event alone, so namespace updates never evaluate it.
event do_xsnap(ReqId, Client, Pid, N, After);
event xr_snap_page(ReqId, Client, Entries);
xd6 do_xsnap(R, C, Pid, N, After) :- ns_request(@Me, R, C, "xr_snapshot", _, A),
                                     Pid := list_get(A, 0), N := list_get(A, 1),
                                     After := list_get(A, 2);
xn1 xr_snap_page(R, C, bottomk<64, E>) :- do_xsnap(R, C, Pid, N, After), fqpath(P, F),
                                          P > After, P != "/", file(F, _, _, D),
                                          K := route_pid(path_dirname(P), N),
                                          Own := route_pid(P, N),
                                          K == Pid || D && Own == Pid, E := [P, D];
xn2 ns_response(@C, R, true, L) :- xr_snap_page(R, C, L);
xn3 ns_response(@C, R, true, L) :- do_xsnap(R, C, _, _, _), notin xr_snap_page(R, _, _),
                                   L := [];
)olg";

// The partition-map service: the sole authority for pid -> group assignment, and the
// coordinator that migrates a partition between groups. Assignments (pm_assign) carry
// explicit epochs; the service accepts only strictly newer ones, ratchets its global
// epoch, and broadcasts accepted rows to every registered replica. An anti-entropy timer
// rebroadcasts the whole map so replicas that missed an update (restart, dropped message)
// reconverge; the strict-epoch guard on the replica side makes rebroadcasts idempotent.
constexpr char kPartitionMapModule[] = R"olg(
extern event ns_request(Addr, ReqId, Client, Cmd, Path, Arg);

table partition_map(Pid, Epoch, Leader, Members) keys(0);
table pm_epoch(K, Epoch) keys(0);
table pm_node(Addr) keys(0);
event pm_assign(Addr, Pid, Leader, Members, Epoch);
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

// Anti-entropy: rebroadcast the full map + global epoch every period.
timer pm_tick(pm_rebroadcast_ms);
pb1 fed_map_update(@N, Pid, E, L, M, G) :- pm_tick(_), partition_map(Pid, E, L, M),
                                           pm_node(N), pm_epoch(1, G);

// --- partition migration ---
// Request: ns_request(@Map, R, Client, "pm_migrate", _, [Pid, DestMembers]). The answer,
// ns_response(@Client, R, Ok, _), comes once the migration has completed or aborted. One
// migration per partition at a time (mq3); a partition already at the destination is
// answered at once (mq2). The steps: freeze the partition everywhere; seal it through the
// source group's log; page its entries out of the same log; unseal it at the
// destination; make its directories there, parents first; move each file with the
// cross-partition rename commands; assign it to the destination at pm_epoch + 1;
// unfreeze.
event ns_response(Addr, ReqId, Ok, Payload);
event ha_request(Addr, ReqId, Client, Cmd, Path, Arg);
event pm_migrate(ReqId, Client, Pid, Members);
table mg_job(Pid, ReqId, Client, Src, Dst) keys(0);
mq1 pm_migrate(R, Cl, Pid, M) :- ns_request(@Me, R, Cl, "pm_migrate", _, A),
                                 Pid := list_get(A, 0), M := list_get(A, 1);
mq2 ns_response(@Cl, R, true, nil) :- pm_migrate(R, Cl, Pid, M),
                                      partition_map(Pid, _, _, M);
mq3 ns_response(@Cl, R, false, "migration in progress") :- pm_migrate(R, Cl, Pid, _),
                                                          mg_job(Pid, _, _, _, _);
mq4 mg_job(Pid, R, Cl, Src, M)@next :- pm_migrate(R, Cl, Pid, M),
                                      partition_map(Pid, _, _, Src), Src != M,
                                      notin mg_job(Pid, _, _, _, _);

// Each step is one command in a group's log: mg_op holds a partition's outstanding one.
// It goes to every member (a follower forwards it to its leader, whose proposer drops
// the copies), again on every pm_tick, and aborts the migration 4 s after it was issued
// (mo3). The first answer settles it: copies from the other replicas (or from a second
// log slot after a leader change) find no op left to match. A failed mkdir or create
// turns into an exists probe (mo4): the entry may be left from an earlier, aborted run.
table mg_op(Pid, Step, ReqId, Members, Cmd, Path, Arg, Since) keys(0);
event mg_ack(Pid, Step, Payload);
event mg_nack(Pid, Step, Cmd);
event mg_abort(Pid, Step);
mo1 ha_request(@N, R, Me, Cm, P, A) :- mg_op(_, _, R, G, Cm, P, A, _), pm_node(N),
                                       In := list_contains(G, N), In == true,
                                       Me := f_me();
mo2 ha_request(@N, R, Me, Cm, P, A) :- pm_tick(_), mg_op(_, _, R, G, Cm, P, A, _),
                                       pm_node(N), In := list_contains(G, N), In == true,
                                       Me := f_me();
ma1 mg_ack(Pid, S, min<Pay>) :- ns_response(@Me, R, true, Pay),
                                mg_op(Pid, S, R, _, _, _, _, _);
ma2 mg_nack(Pid, S, Cm) :- ns_response(@Me, R, false, _),
                           mg_op(Pid, S, R, _, Cm, _, _, _), notin mg_ack(Pid, _, _);
mo3 mg_abort(Pid, S) :- pm_tick(_), mg_op(Pid, S, _, _, _, _, _, T0), f_now() - T0 > 4000,
                        notin mg_ack(Pid, _, _), notin mg_nack(Pid, _, _);
ma3 delete mg_op(Pid, S, R, G, Cm, P, A, T) :- mg_ack(Pid, S, _),
                                               mg_op(Pid, S, R, G, Cm, P, A, T);
ma4 delete mg_op(Pid, S, R, G, Cm, P, A, T) :- mg_nack(Pid, S, _),
                                               mg_op(Pid, S, R, G, Cm, P, A, T);
ma5 delete mg_op(Pid, S, R, G, Cm, P, A, T) :- mg_abort(Pid, S),
                                               mg_op(Pid, S, R, G, Cm, P, A, T);
mo4 mg_op(Pid, S, R, G, "exists", P, nil, T)@next :- mg_nack(Pid, S, Cm),
                                                    Cm == "mkdir" || Cm == "create",
                                                    mg_op(Pid, S, _, G, _, P, _, _),
                                                    R := f_unique_id(), T := f_now();

// Freeze and seal. The seal is the migration fence: every command the source group ever
// acked for Pid precedes it in that group's log, and every plain command for Pid after it
// is dropped at replay (see the fenced HA bridge).
ms1 fed_freeze(@N, Pid) :- mg_job(Pid, _, _, _, _), pm_node(N);
ms2 mg_op(Pid, "seal", R, Src, "xr_seal", "", Pid, T) :- mg_job(Pid, _, _, Src, _),
                                                        R := f_unique_id(), T := f_now();

// Snapshot, one page per command. Each rides the log after the seal, so the pages list
// a frozen partition. Rows are unpacked by recursion over the page index (mt4/mt5) into
// mg_entry, the entries still to import; every ancestor of a moved entry is scaffolded
// as a directory (mt7).
table pm_nparts(K, N) keys(0);
table mg_entry(Pid, Path, IsDir) keys(0, 1);
event mg_snap(Pid, After);
event mg_row(Pid, Page, I);
mt0 pm_nparts(1, count<Pid>) :- partition_map(Pid, _, _, _);
mt1 mg_snap(Pid, "") :- mg_ack(Pid, "seal", _);
mt2 mg_snap(Pid, After) :- mg_ack(Pid, "snap", L), N := list_len(L), N == 64,
                           E := list_get(L, 63), After := list_get(E, 0);
mt3 mg_op(Pid, "snap", R, Src, "xr_snapshot", "", A, T)@next :-
        mg_snap(Pid, After), mg_job(Pid, _, _, Src, _), pm_nparts(1, K),
        A := [Pid, K, After], R := f_unique_id(), T := f_now();
mt4 mg_row(Pid, L, 0) :- mg_ack(Pid, "snap", L), N := list_len(L), N > 0;
mt5 mg_row(Pid, L, J) :- mg_row(Pid, L, I), J := I + 1, N := list_len(L), J < N;
mt6 mg_entry(Pid, P, D) :- mg_row(Pid, L, I), E := list_get(L, I), P := list_get(E, 0),
                           D := list_get(E, 1);
mt7 mg_entry(Pid, D, true) :- mg_entry(Pid, P, _), D := path_dirname(P), D != "/";

// The last page is in: reopen the partition at the destination (a seal left there by an
// earlier migration away would fence the imports).
mu1 mg_op(Pid, "open", R, Dst, "xr_unseal", "", Pid, T)@next :-
        mg_ack(Pid, "snap", L), N := list_len(L), N < 64, mg_job(Pid, _, _, _, Dst),
        R := f_unique_id(), T := f_now();

// Import, one command at a time: directories in path order (a parent's path sorts before
// its children's), then each file — xr_intent at the source, create and one xr_addchunk
// per chunk at the destination, xr_commit at the source.
table mg_next_dir(Pid, Path) keys(0);
table mg_next_file(Pid, Path) keys(0);
table mg_chunks(Pid, Path, Chunks, Next) keys(0);
event mg_go(Pid);
event mg_adopt(Pid);
mi1 mg_next_dir(Pid, min<P>) :- mg_entry(Pid, P, true);
mi2 mg_next_file(Pid, min<P>) :- mg_entry(Pid, P, false);
mi3 mg_go(Pid)@next :- mg_ack(Pid, S, Pay), Pay != false,
                       S == "open" || S == "dir" || S == "commit";
mi4 delete mg_entry(Pid, P, D) :- mg_ack(Pid, S, Pay), Pay != false,
                                  S == "dir" || S == "commit",
                                  mg_op(Pid, S, _, _, _, P, _, _), mg_entry(Pid, P, D);
mi5 mg_op(Pid, "dir", R, Dst, "mkdir", D, nil, T)@next :-
        mg_go(Pid), mg_next_dir(Pid, D), mg_job(Pid, _, _, _, Dst),
        R := f_unique_id(), T := f_now();
mi6 mg_op(Pid, "intent", R, Src, "xr_intent", P, nil, T)@next :-
        mg_go(Pid), notin mg_next_dir(Pid, _), mg_next_file(Pid, P),
        mg_job(Pid, _, _, Src, _), R := f_unique_id(), T := f_now();
mf1 mg_chunks(Pid, P, L, 0) :- mg_ack(Pid, "intent", Pay),
                               mg_op(Pid, "intent", _, _, _, P, _, _),
                               L := list_get(Pay, 1);
mf2 mg_op(Pid, "create", R, Dst, "create", P, nil, T)@next :-
        mg_ack(Pid, "intent", _), mg_op(Pid, "intent", _, _, _, P, _, _),
        mg_job(Pid, _, _, _, Dst), R := f_unique_id(), T := f_now();
mf3 mg_adopt(Pid)@next :- mg_ack(Pid, S, Pay), Pay != false,
                          S == "create" || S == "adopt";
mf4 mg_chunks(Pid, P, L, J)@next :- mg_ack(Pid, "adopt", _), mg_chunks(Pid, P, L, I),
                                    J := I + 1;
mf5 mg_op(Pid, "adopt", R, Dst, "xr_addchunk", P, Ch, T)@next :-
        mg_adopt(Pid), mg_chunks(Pid, P, L, I), N := list_len(L), I < N,
        Ch := list_get(L, I), mg_job(Pid, _, _, _, Dst), R := f_unique_id(), T := f_now();
mf6 mg_op(Pid, "commit", R, Src, "xr_commit", P, nil, T)@next :-
        mg_adopt(Pid), mg_chunks(Pid, P, L, I), N := list_len(L), I >= N,
        mg_job(Pid, _, _, Src, _), R := f_unique_id(), T := f_now();

// Nothing left to import: assign the partition to the destination at pm_epoch + 1 (led
// by its first member, as at setup). The unfreeze follows the accepted assignment's
// broadcast on every FIFO link, so each replica applies the new map first.
event mg_end(Pid, Ok);
mp1 pm_assign(@Me, Pid, L, Dst, E)@next :- mg_go(Pid), notin mg_next_dir(Pid, _),
                                           notin mg_next_file(Pid, _),
                                           mg_job(Pid, _, _, _, Dst), pm_epoch(1, Cur),
                                           E := Cur + 1, L := list_get(Dst, 0),
                                           Me := f_me();
mp2 mg_end(Pid, true)@next :- pm_assign(@Me, Pid, _, M, _), mg_job(Pid, _, _, _, M);

// Abort: a step that failed for good, or ran out of time, reopens the source partition
// (xr_unseal) and ends the migration with the map unchanged. Files already committed at
// the destination are then unreachable through routing until a later migration.
mx1 mg_abort(Pid, S) :- mg_nack(Pid, S, Cm), Cm != "mkdir", Cm != "create";
mx2 mg_abort(Pid, S) :- mg_ack(Pid, S, false);
mx3 mg_op(Pid, "undo", R, Src, "xr_unseal", "", Pid, T)@next :-
        mg_abort(Pid, S), S != "undo", mg_job(Pid, _, _, Src, _),
        R := f_unique_id(), T := f_now();
mx4 mg_end(Pid, false)@next :- mg_abort(Pid, "undo");
mx5 mg_end(Pid, false)@next :- mg_ack(Pid, "undo", _);

// End: unfreeze, answer the requester, forget the job.
me1 fed_unfreeze(@N, Pid) :- mg_end(Pid, _), mg_job(Pid, _, _, _, _), pm_node(N);
me2 ns_response(@Cl, R, Ok, Pay) :- mg_end(Pid, Ok), mg_job(Pid, R, Cl, _, _),
                                    Pay := if(Ok, nil, "migration aborted");
me3 delete mg_job(Pid, R, Cl, S, D) :- mg_end(Pid, _), mg_job(Pid, R, Cl, S, D);
me4 delete mg_entry(Pid, P, D) :- mg_end(Pid, _), mg_entry(Pid, P, D);
me5 delete mg_chunks(Pid, P, L, I) :- mg_end(Pid, _), mg_chunks(Pid, P, L, I);
)olg";

// How long the admin client waits for a migration's answer.
constexpr double kMigrationAnswerMs = 120000;

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

  // Raw-op admin client that sends migration requests to the map node. The coordinator
  // answers only once a migration has completed or aborted, and its per-step deadlines
  // bound that, so the admin's timeout is only a backstop for a dead map node.
  FsClientOptions admin_opts;
  admin_opts.namenode = handles.pmap;
  admin_opts.request_timeout_ms = kMigrationAnswerMs;
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
    std::string leader;
    if (const Table* t = cluster.engine(m)->catalog().Find("leader")) {
      t->ForEach([&cluster, &leader](const Tuple& row) {
        if (row.size() == 2 && row[1].is_string() &&
            cluster.IsAlive(row[1].as_string())) {
          leader = row[1].as_string();
        }
      });
    }
    // Election still converging (or the recorded leader is dead): any alive member
    // forwards ha_request to whoever wins.
    return leader.empty() ? m : leader;
  }
  return "";
}

void StartRebalance(Cluster& cluster, const FederatedFsHandles& handles, int64_t pid,
                    int dest_group, std::function<void(bool ok)> done) {
  BOOM_CHECK(pid >= 0 && pid < handles.num_partitions);
  BOOM_CHECK(dest_group >= 0 && dest_group < static_cast<int>(handles.groups.size()));
  const std::vector<std::string>& dest = handles.groups[static_cast<size_t>(dest_group)];
  Value request(ValueList{Value(pid), MembersValue(dest)});
  handles.admin->RawOp(
      cluster, kCmdPmMigrate, "", std::move(request),
      [done = std::move(done)](bool ok, const Value&) { done(ok); }, handles.pmap,
      kNsRequest);
}

bool RebalancePartitionSync(Cluster& cluster, FederatedFsHandles& handles, int64_t pid,
                            int dest_group, double timeout_ms) {
  bool finished = false;
  bool ok = false;
  StartRebalance(cluster, handles, pid, dest_group, [&finished, &ok](bool r) {
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
