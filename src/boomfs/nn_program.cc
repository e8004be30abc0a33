#include "src/boomfs/nn_program.h"

#include "src/base/logging.h"

namespace boom {

namespace {

// Core namespace module (paper revision F1). `rep_factor` is the chunk placement width.
constexpr char kNamespaceModule[] = R"olg(
/////////////////////////////////////////////////////////////////////////////
// File-system metadata: the entire NameNode state is relational.
/////////////////////////////////////////////////////////////////////////////
table file(FileId, ParentId, FName, IsDir) keys(0);
table fqpath(Path, FileId);
table fchunk(ChunkId, FileId) keys(0);
table datanode(Dn, LastHb) keys(0);
table hb_chunk(Dn, ChunkId);
table dn_load(Dn, Load) keys(0);
// Tombstones for removed chunks: a DataNode that was down during the rm would otherwise
// resurrect the chunk's location via its next full chunk report. Tombstones (not absence
// from fchunk) gate reports so an HA replica that is still replaying the command log never
// garbage-collects a chunk it merely has not heard of yet.
table dead_chunk(ChunkId) keys(0);
// Nonempty while the NameNode is in safe mode (seeded by the safe-mode extension; always
// empty when that extension is disabled, so the notin guards below are no-ops).
table safemode(On) keys(0);

// The root directory.
file(0, -1, "", true);
fqpath("/", 0);

// Fully-qualified paths: a recursive view over the directory tree.
fq1 fqpath(P, F) :- file(F, Par, Name, _), F != 0, fqpath(PPath, Par),
                    P := path_join(PPath, Name);

/////////////////////////////////////////////////////////////////////////////
// Client protocol events and command dispatch.
/////////////////////////////////////////////////////////////////////////////
event ns_request(Addr, ReqId, Client, Cmd, Path, Arg);
event ns_response(Addr, ReqId, Ok, Payload);

event do_mkdir(ReqId, Client, Path);
event do_create(ReqId, Client, Path);
event do_exists(ReqId, Client, Path);
event do_ls(ReqId, Client, Path);
event do_rm(ReqId, Client, Path);
event do_addchunk(ReqId, Client, Path);
event do_chunks(ReqId, Client, Path);
event do_locations(ReqId, Client, ChunkId);
event do_abandon(ReqId, Client, ChunkId);

dp1 do_mkdir(R, C, P)     :- ns_request(@Me, R, C, "mkdir", P, _);
dp2 do_create(R, C, P)    :- ns_request(@Me, R, C, "create", P, _);
dp3 do_exists(R, C, P)    :- ns_request(@Me, R, C, "exists", P, _);
dp4 do_ls(R, C, P)        :- ns_request(@Me, R, C, "ls", P, _);
dp5 do_rm(R, C, P)        :- ns_request(@Me, R, C, "rm", P, _);
dp6 do_addchunk(R, C, P)  :- ns_request(@Me, R, C, "addchunk", P, _);
dp7 do_chunks(R, C, P)    :- ns_request(@Me, R, C, "chunks", P, _);
dp8 do_locations(R, C, A) :- ns_request(@Me, R, C, "locations", _, A);
dp9 do_abandon(R, C, A)   :- ns_request(@Me, R, C, "abandon", _, A);

/////////////////////////////////////////////////////////////////////////////
// mkdir / create: insert under an existing parent directory unless the path
// already exists. State updates are deferred (@next), Dedalus-style, so the
// existence checks read the pre-request state.
/////////////////////////////////////////////////////////////////////////////
event mkdir_ok(ReqId, Client, ParentId, BName);
event mk_new(ParentId, BName);
mk1 mkdir_ok(R, C, Par, N) :- do_mkdir(R, C, P), D := path_dirname(P),
                              N := path_basename(P), N != "",
                              fqpath(D, Par), file(Par, _, _, true),
                              notin fqpath(P, _);
// mk1b collapses same-tick duplicate requests for one (parent, name) into a single set-
// semantics row, so two concurrent mkdirs of one path can never mint two file ids. Cross-
// tick duplicates are already rejected by mk1's fqpath guard (fqpath materializes in the
// same tick the file row lands).
mk1b mk_new(Par, N) :- mkdir_ok(_, _, Par, N);
mk2 file(Id, Par, N, true)@next :- mk_new(Par, N), Id := f_unique_id();
mk3 ns_response(@C, R, true, nil)  :- mkdir_ok(R, C, _, _);
mk4 ns_response(@C, R, false, "mkdir failed") :- do_mkdir(R, C, _),
                                                 notin mkdir_ok(R, _, _, _);

event create_ok(ReqId, Client, ParentId, BName);
event cr_new(ParentId, BName);
cr1 create_ok(R, C, Par, N) :- do_create(R, C, P), D := path_dirname(P),
                               N := path_basename(P), N != "",
                               fqpath(D, Par), file(Par, _, _, true),
                               notin fqpath(P, _);
cr1b cr_new(Par, N) :- create_ok(_, _, Par, N);
cr2 file(Id, Par, N, false)@next :- cr_new(Par, N), Id := f_unique_id();
cr3 ns_response(@C, R, true, nil) :- create_ok(R, C, _, _);
cr4 ns_response(@C, R, false, "create failed") :- do_create(R, C, _),
                                                  notin create_ok(R, _, _, _);

/////////////////////////////////////////////////////////////////////////////
// exists / ls
/////////////////////////////////////////////////////////////////////////////
ex1 ns_response(@C, R, true, true)  :- do_exists(R, C, P), fqpath(P, _);
ex2 ns_response(@C, R, true, false) :- do_exists(R, C, P), notin fqpath(P, _);

event do_ls2(ReqId, Client, DirId);
event ls_result(ReqId, Client, Names);
ls1 do_ls2(R, C, Dir) :- do_ls(R, C, P), fqpath(P, Dir), file(Dir, _, _, true);
ls2 ls_result(R, C, bottomk<1000000, N>) :- do_ls2(R, C, Dir), file(_, Dir, N, _);
ls3 ns_response(@C, R, true, Names) :- ls_result(R, C, Names);
ls4 ns_response(@C, R, true, L) :- do_ls2(R, C, Dir), notin file(_, Dir, _, _), L := [];
ls5 ns_response(@C, R, false, "no such directory") :- do_ls(R, C, _),
                                                      notin do_ls2(R, _, _);

/////////////////////////////////////////////////////////////////////////////
// rm: files and empty directories only; deletes cascade to the path index
// and chunk ownership at the tick boundary.
/////////////////////////////////////////////////////////////////////////////
event rm_ok(ReqId, Client, FileId);
rm1 rm_ok(R, C, F) :- do_rm(R, C, P), fqpath(P, F), F != 0, notin file(_, F, _, _);
rm2 delete file(F, Par, N, D) :- rm_ok(_, _, F), file(F, Par, N, D);
rm3 delete fqpath(P, F)       :- rm_ok(_, _, F), fqpath(P, F);
rm4 delete fchunk(Ch, F)      :- rm_ok(_, _, F), fchunk(Ch, F);
// Chunk garbage collection: tell every holder to drop the dead file's chunks, and forget
// their locations.
event dn_delete(Addr, ChunkId);
rm7 dn_delete(@Dn, Ch) :- rm_ok(_, _, F), fchunk(Ch, F), hb_chunk(Dn, Ch);
rm8 delete hb_chunk(Dn, Ch) :- rm_ok(_, _, F), fchunk(Ch, F), hb_chunk(Dn, Ch);
rm9 dead_chunk(Ch) :- rm_ok(_, _, F), fchunk(Ch, F);
rm5 ns_response(@C, R, true, nil) :- rm_ok(R, C, _);
rm6 ns_response(@C, R, false, "rm failed") :- do_rm(R, C, _), notin rm_ok(R, _, _);

/////////////////////////////////////////////////////////////////////////////
// addchunk: allocate a fresh chunk id and pick the rep_factor least-loaded
// live DataNodes (load = chunk count, a classic declarative placement policy).
/////////////////////////////////////////////////////////////////////////////
// Chunks per reporting DataNode: a single-atom count, maintained by ± as hb_chunk rows come
// and go (heartbeats, which replace datanode rows, do not touch it).
dl1 dn_load(Dn, count<C>) :- hb_chunk(Dn, C);

// Candidate targets per request: every live DataNode, with its chunk count as load — or 0
// when it holds nothing (dn_load has no row then: removing a DataNode's last hb_chunk row
// retracts its group, so the fallback must live at the consumer, evaluated per request).
// The datanode join, not dl1, restricts candidates to live DataNodes.
event do_addchunk2(ReqId, Client, FileId);
event cand_dn(ReqId, Client, FileId, Dn, Load);
event addchunk_sel(ReqId, Client, FileId, Pairs);
event addchunk_ok(ReqId, Client, FileId, ChunkId, Dns);
ac0 do_addchunk2(R, C, F) :- do_addchunk(R, C, P), fqpath(P, F), file(F, _, _, false);
ac1a cand_dn(R, C, F, Dn, L) :- do_addchunk2(R, C, F), datanode(Dn, _), dn_load(Dn, L);
ac1b cand_dn(R, C, F, Dn, 0) :- do_addchunk2(R, C, F), datanode(Dn, _),
                                notin dn_load(Dn, _);
ac1 addchunk_sel(R, C, F, bottomk<rep_factor, Pair>) :- cand_dn(R, C, F, Dn, L),
                                                        Pair := [L, Dn];
ac2 addchunk_ok(R, C, F, Ch, Dns) :- addchunk_sel(R, C, F, Pairs),
                                     list_len(Pairs) > 0,
                                     Ch := f_unique_id(),
                                     Dns := list_project(Pairs, 1);
ac3 fchunk(Ch, F) :- addchunk_ok(_, _, F, Ch, _);
ac4 ns_response(@C, R, true, Payload) :- addchunk_ok(R, C, _, Ch, Dns),
                                         Payload := [Ch, Dns];
ac5 ns_response(@C, R, false, "addchunk failed") :- do_addchunk(R, C, _),
                                                    notin addchunk_ok(R, _, _, _, _);

/////////////////////////////////////////////////////////////////////////////
// abandon: a client whose every replica write failed gives the allocated chunk
// id back. Detach it from the file, tombstone it, and GC any replica that did
// land. Idempotent: abandoning an unknown chunk succeeds (the retry that
// follows a lost abandon response must not wedge the writer).
/////////////////////////////////////////////////////////////////////////////
event abandon_ok(ReqId, Client, ChunkId);
ab1 abandon_ok(R, C, Ch) :- do_abandon(R, C, Ch), fchunk(Ch, _);
ab2 delete fchunk(Ch, F)    :- abandon_ok(_, _, Ch), fchunk(Ch, F);
ab3 dn_delete(@Dn, Ch)      :- abandon_ok(_, _, Ch), hb_chunk(Dn, Ch);
ab4 delete hb_chunk(Dn, Ch) :- abandon_ok(_, _, Ch), hb_chunk(Dn, Ch);
ab5 dead_chunk(Ch) :- abandon_ok(_, _, Ch);
ab6 ns_response(@C, R, true, nil) :- abandon_ok(R, C, _);
ab7 ns_response(@C, R, true, nil) :- do_abandon(R, C, Ch), notin fchunk(Ch, _);

/////////////////////////////////////////////////////////////////////////////
// chunks / locations: read-side metadata lookups.
/////////////////////////////////////////////////////////////////////////////
event chunks_ok(ReqId, Client, FileId);
event chunk_list(ReqId, Client, L);
ch1 chunks_ok(R, C, F) :- do_chunks(R, C, P), fqpath(P, F), file(F, _, _, false);
ch2 chunk_list(R, C, bottomk<1000000, Ch>) :- chunks_ok(R, C, F), fchunk(Ch, F);
ch3 ns_response(@C, R, true, L) :- chunk_list(R, C, L);
ch4 ns_response(@C, R, true, L) :- chunks_ok(R, C, F), notin fchunk(_, F), L := [];
ch5 ns_response(@C, R, false, "no such file") :- do_chunks(R, C, _),
                                                 notin chunks_ok(R, _, _);

// Locations are not served in safe mode: the location table is still being rebuilt from
// chunk reports, and answering from a partial view would steer clients at replicas the
// NameNode merely has not heard from (clients back off and retry on "safe mode").
event loc_list(ReqId, Client, L);
lo1 loc_list(R, C, bottomk<100, Dn>) :- do_locations(R, C, Ch), hb_chunk(Dn, Ch),
                                        datanode(Dn, _), notin safemode(_);
lo2 ns_response(@C, R, true, L) :- loc_list(R, C, L);
lo3 ns_response(@C, R, false, "no locations") :- do_locations(R, C, Ch),
                                                 notin hb_chunk(_, Ch),
                                                 notin safemode(_);
lo4 ns_response(@C, R, false, "safe mode") :- do_locations(R, C, _), safemode(_);

/////////////////////////////////////////////////////////////////////////////
// DataNode control plane: heartbeats and chunk reports.
/////////////////////////////////////////////////////////////////////////////
event dn_heartbeat(Addr, Dn);
event dn_chunk_report(Addr, Dn, ChunkId);
hb1 datanode(Dn, T) :- dn_heartbeat(_, Dn), T := f_now();
hb2 hb_chunk(Dn, Ch) :- dn_chunk_report(_, Dn, Ch);
// Distributed GC: a report of a tombstoned chunk means the DataNode missed the rm-time
// dn_delete (it was down or the message was lost) — tell it again, and retract the
// location row in the same timestep instead of resurrecting it. (A delete rule, not a
// `notin dead_chunk` guard on hb2: the guard would close a negation cycle through the
// dn_load aggregate and the addchunk placement rules.)
hb3 dn_delete(@Dn, Ch) :- dn_chunk_report(_, Dn, Ch), dead_chunk(Ch);
hb4 delete hb_chunk(Dn, Ch) :- dn_chunk_report(_, Dn, Ch), dead_chunk(Ch),
                               hb_chunk(Dn, Ch);

// Corrupt-replica quarantine: a DataNode that found a replica failing its checksum has
// already dropped the bytes; retract the location so reads stop landing there. The
// re-replication rules see the lowered count and heal from a healthy copy.
event dn_corrupt(Addr, Dn, ChunkId);
cq1 delete hb_chunk(Dn, Ch) :- dn_corrupt(_, Dn, Ch), hb_chunk(Dn, Ch);
)olg";

// Availability extension: failure detection + re-replication (toward revision F2).
constexpr char kFailureDetectorModule[] = R"olg(
// ---- availability extension: failure detection + re-replication ----

timer dn_check(fd_check_ms);
event dn_dead(Dn);
fd1 dn_dead(Dn) :- dn_check(_), datanode(Dn, T), f_now() - T > hb_timeout_ms;
fd2 delete datanode(Dn, T) :- dn_dead(Dn), datanode(Dn, T);
fd3 delete hb_chunk(Dn, Ch) :- dn_dead(Dn), hb_chunk(Dn, Ch);

// Re-replicate chunks whose live replica count dropped below the target. A chunk with zero
// live replicas is lost (nothing to copy from).
table chunk_rep(ChunkId, N) keys(0);
event under_rep(ChunkId);
event repl_sel(ChunkId, Pairs);
table repl_src(ChunkId, Src) keys(0);
event replicate_cmd(Addr, ChunkId, Dest);
event repl_cand(ChunkId, Dn, Load);
rr1 chunk_rep(Ch, count<Dn>) :- fchunk(Ch, _), hb_chunk(Dn, Ch);
rr2 under_rep(Ch) :- dn_check(_), chunk_rep(Ch, N), N < rep_factor, N > 0,
                     notin safemode(_);
// Candidate targets: loaded DataNodes not already holding the chunk, plus chunk-less ones
// (which have no dn_load row at all).
rr2a repl_cand(Ch, Dn, L) :- under_rep(Ch), datanode(Dn, _), dn_load(Dn, L),
                             notin hb_chunk(Dn, Ch);
rr2b repl_cand(Ch, Dn, 0) :- under_rep(Ch), datanode(Dn, _), notin dn_load(Dn, _);
rr3 repl_sel(Ch, bottomk<1, Pair>) :- repl_cand(Ch, Dn, L), Pair := [L, Dn];
rr4 repl_src(Ch, min<Dn>) :- under_rep(Ch), hb_chunk(Dn, Ch);
rr5 replicate_cmd(@Src, Ch, Dest) :- repl_sel(Ch, Pairs), list_len(Pairs) > 0,
                                     repl_src(Ch, Src),
                                     Dest := list_get(list_project(Pairs, 1), 0);
)olg";

// Safe-mode extension: after a (re)start the NameNode defers location serving and
// re-replication until it has heard about enough of its chunks.
constexpr char kSafeModeModule[] = R"olg(
// ---- safe mode: defer the data plane until the location table is warm ----

// In safe mode from the first tick; the namespace rules above are unaffected.
safemode(1);
timer sm_check(sm_check_ms);
// First sm_check stamps the epoch start (f_now-based, so it is correct after a failover
// restart too — an absolute deadline computed at program-load time would not be).
table sm_start(T) keys(0);
// Chunks some DataNode has reported since this start (reports arrive before the fchunk
// log finishes replaying in HA, hence a table rather than a per-tick join on hb_chunk).
table sm_reported(ChunkId) keys(0);
event sm_total(Me, N);
event sm_seen(Me, N);
event sm_exit(Me);
smr sm_reported(Ch) :- dn_chunk_report(_, _, Ch);
sma sm_start(T)@next :- sm_check(_), notin sm_start(_), T := f_now();
sm1 sm_total(Me, count<Ch>) :- sm_check(Me), safemode(_), fchunk(Ch, _);
sm2 sm_seen(Me, count<Ch>)  :- sm_check(Me), safemode(_), sm_reported(Ch), fchunk(Ch, _);
// Exit when sm_frac_pct percent of owned chunks have a reported location...
sm3 sm_exit(Me) :- sm_total(Me, Tot), sm_seen(Me, Seen), Seen * 100 >= Tot * sm_frac_pct;
// ...or the namespace owns no chunks at all (fresh cluster / empty log) after a short
// grace period that covers HA log replay...
sm4 sm_exit(Me) :- sm_check(Me), safemode(_), notin fchunk(_, _), sm_start(T),
                   f_now() - T > sm_grace_ms;
// ...or unconditionally after the timeout (better to serve a partial view than none).
sm5 sm_exit(Me) :- sm_check(Me), safemode(_), sm_start(T), f_now() - T > sm_timeout_ms;
sm6 delete safemode(On) :- sm_exit(_), safemode(On);
sm7 delete sm_reported(Ch) :- sm_exit(_), sm_reported(Ch);
)olg";

// Rename extension: move a file to a new path. Files only — moving a directory would
// leave every descendant's materialized fqpath stale, so directories keep their paths for
// the lifetime of the namespace (HDFS-style metadata workloads rename files, not trees).
constexpr char kRenameModule[] = R"olg(
// ---- rename: move a file (not a directory) to a fresh path ----
event do_rename(ReqId, Client, Path, NewPath);
event rename_ok(ReqId, Client, FileId, NewParent, NewName);
rn0 do_rename(R, C, P, NP) :- ns_request(@Me, R, C, "rename", P, NP);
// Valid when the source is an existing file, the destination parent is a directory, and
// the destination path is free. Existence checks read pre-request state, like mk1/cr1.
rn1 rename_ok(R, C, F, NPar, NN) :- do_rename(R, C, P, NP), fqpath(P, F),
                                    file(F, _, _, false),
                                    D := path_dirname(NP),
                                    NN := path_basename(NP), NN != "",
                                    fqpath(D, NPar), file(NPar, _, _, true),
                                    notin fqpath(NP, _);
rn2 delete file(F, Par, N, IsD) :- rename_ok(_, _, F, _, _), file(F, Par, N, IsD);
rn3 delete fqpath(P, F)         :- rename_ok(_, _, F, _, _), fqpath(P, F);
// Re-inserting the file row under its new parent lets fq1 re-derive the new fqpath; the
// file keeps its id, so chunk ownership (fchunk is keyed on the chunk) survives the move.
rn4 file(F, NPar, NN, false)@next :- rename_ok(_, _, F, NPar, NN);
rn5 ns_response(@C, R, true, nil) :- rename_ok(R, C, _, _, _);
rn6 ns_response(@C, R, false, "rename failed") :- do_rename(R, C, _, _),
                                                  notin rename_ok(R, _, _, _, _);
)olg";

// Tombstone GC extension: dead_chunk rows protect against resurrection-by-chunk-report
// only while a DataNode could still be holding a stale replica; after gc_tombstone_ms
// (chosen to exceed any plausible down-time plus a report period) they are pure garbage.
// Tombstones are stamped from the same events that mint them (rm9/ab5) — stamping from
// dead_chunk itself would put the rule's head in its own negation support.
constexpr char kGcModule[] = R"olg(
// ---- tombstone GC: bound dead_chunk growth under sustained churn ----
table tomb_born(ChunkId, BornMs) keys(0);
timer gc_check(gc_check_ms);
gc1a tomb_born(Ch, T) :- rm_ok(_, _, F), fchunk(Ch, F), T := f_now();
gc1b tomb_born(Ch, T) :- abandon_ok(_, _, Ch), T := f_now();
gc2 delete dead_chunk(Ch) :- gc_check(_), dead_chunk(Ch), tomb_born(Ch, T),
                             f_now() - T > gc_tombstone_ms;
gc3 delete tomb_born(Ch, T) :- gc_check(_), tomb_born(Ch, T),
                               f_now() - T > gc_tombstone_ms;
)olg";

// Admission-control module: installed alone on a gateway node (program "boomfs_gw"), not
// composed into the NameNode — a self-addressed head would bypass the simulator's
// busy-server service charge, making admitted work free. The gateway forwards admitted
// requests over the network to the real NameNode, which replies to the client directly.
constexpr char kAdmissionModule[] = R"olg(
/////////////////////////////////////////////////////////////////////////////
// SLO-aware admission control: per-tenant windowed write quotas, read-only
// brownout under backlog, and load shedding with a retry-after hint.
/////////////////////////////////////////////////////////////////////////////
table adm_target(Nn) keys(0);
table adm_tenant(Client, Tenant) keys(0);
table adm_write(Cmd) keys(0);
// Writes admitted in the current quota window, and the per-tenant count over them.
table adm_win_w(ReqId, Tenant) keys(0);
table adm_used(Tenant, N) keys(0);
table brownout(On) keys(0);
// The engine's published fixpoint profile (declared eagerly so bo3 can read it; the
// engine reuses this declaration when PublishProfile runs).
table perf_fixpoint(Tick, NowMs, Rounds, Derivs, WallUs) keys(0);

// The non-monotone commands: everything else is a monotone read, served even browned out.
adm_write("mkdir");
adm_write("create");
adm_write("rm");
adm_write("addchunk");
adm_write("abandon");
adm_write("rename");

timer adm_reset(adm_window_ms);

event ns_ingress(Addr, ReqId, Client, Cmd, Path, Arg);
event svc_load(Addr, BacklogMs);
event ns_request(Addr, ReqId, Client, Cmd, Path, Arg);
event ns_response(Addr, ReqId, Ok, Payload);
event req_t(ReqId, Client, Cmd, Path, Arg, Tenant);
event adm_deny(ReqId, Client, Tenant);

// Tenant resolution: the configured mapping, else tenant 0.
at1 req_t(R, C, Cmd, P, A, T) :- ns_ingress(@Me, R, C, Cmd, P, A), adm_tenant(C, T);
at2 req_t(R, C, Cmd, P, A, 0) :- ns_ingress(@Me, R, C, Cmd, P, A),
                                 notin adm_tenant(C, _);

// Reads are monotone: always forwarded (the graceful-degradation guarantee).
ar1 ns_request(@Nn, R, C, Cmd, P, A) :- req_t(R, C, Cmd, P, A, _),
                                        notin adm_write(Cmd), adm_target(Nn);

// Writes pay admission: shed when the tenant's window quota is spent or the plane is
// browned out. (ady1/ady2 are the retry-storm bug-variant strip targets.)
ady1 adm_deny(R, C, T) :- req_t(R, C, Cmd, _, _, T), adm_write(Cmd),
                          adm_used(T, N), N >= adm_quota;
ady2 adm_deny(R, C, T) :- req_t(R, C, Cmd, _, _, T), adm_write(Cmd), brownout(_);

aw1 ns_request(@Nn, R, C, Cmd, P, A) :- req_t(R, C, Cmd, P, A, _), adm_write(Cmd),
                                        notin adm_deny(R, _, _), adm_target(Nn);
// Window accounting lands @next so the per-tick admit set is not re-judged against the
// count it is itself producing.
aw2 adm_win_w(R, T)@next :- req_t(R, _, Cmd, _, _, T), adm_write(Cmd),
                            notin adm_deny(R, _, _);
au1 adm_used(T, count<R>) :- adm_win_w(R, T);
aw3 delete adm_win_w(R, T) :- adm_reset(_), adm_win_w(R, T);

// Shed path: a cheap local rejection carrying the retry-after hint.
ash1 ns_response(@C, R, false, Pay) :- adm_deny(R, C, _),
                                       Pay := ["overloaded", adm_retry_ms];

// Brownout with hysteresis: enter when the NameNode's sampled service backlog exceeds
// the bound, exit once it drains below half. bo3 is the perf_fixpoint hook — a published
// profile tick that blew its budget also trips the brownout.
bo1 brownout(1) :- svc_load(_, Ms), Ms > adm_queue_bound_ms;
bo2 delete brownout(On) :- svc_load(_, Ms), brownout(On), 2 * Ms < adm_queue_bound_ms;
bo3 brownout(1) :- perf_fixpoint(_, _, _, _, W), W > adm_fixpoint_budget_us;
)olg";

}  // namespace

const Module& NnNamespaceModule() {
  static const Module* kModule = new Module{
      "nn_namespace",
      kNamespaceModule,
      {ModuleParam::Required("rep_factor", ValueKind::kInt)},
  };
  return *kModule;
}

const Module& NnFailureDetectorModule() {
  static const Module* kModule = new Module{
      "nn_failure_detector",
      kFailureDetectorModule,
      {ModuleParam::Required("rep_factor", ValueKind::kInt),
       ModuleParam::Required("hb_timeout_ms", ValueKind::kDouble),
       ModuleParam::Required("fd_check_ms", ValueKind::kDouble)},
  };
  return *kModule;
}

const Module& NnSafeModeModule() {
  static const Module* kModule = new Module{
      "nn_safe_mode",
      kSafeModeModule,
      {ModuleParam::Required("sm_check_ms", ValueKind::kDouble),
       ModuleParam::Required("sm_frac_pct", ValueKind::kInt),
       ModuleParam::Required("sm_timeout_ms", ValueKind::kDouble),
       ModuleParam::Required("sm_grace_ms", ValueKind::kDouble)},
  };
  return *kModule;
}

const Module& NnRenameModule() {
  static const Module* kModule = new Module{"nn_rename", kRenameModule, {}};
  return *kModule;
}

const Module& NnGcModule() {
  static const Module* kModule = new Module{
      "nn_gc",
      kGcModule,
      {ModuleParam::Required("gc_check_ms", ValueKind::kDouble),
       ModuleParam::Required("gc_tombstone_ms", ValueKind::kDouble)},
  };
  return *kModule;
}

const Module& NnAdmissionModule() {
  static const Module* kModule = new Module{
      "nn_admission",
      kAdmissionModule,
      {ModuleParam::Required("adm_quota", ValueKind::kInt),
       ModuleParam::Required("adm_window_ms", ValueKind::kDouble),
       ModuleParam::Required("adm_queue_bound_ms", ValueKind::kDouble),
       ModuleParam::Required("adm_retry_ms", ValueKind::kDouble),
       ModuleParam::Required("adm_fixpoint_budget_us", ValueKind::kDouble)},
  };
  return *kModule;
}

Program BoomFsNnProgram(const NnProgramOptions& options) {
  ProgramBuilder builder("boomfs_nn");
  // Protocol inputs arrive over the network (clients, DataNodes); nothing in the program
  // produces them.
  builder.WithExternalInputs(
      {"ns_request", "dn_heartbeat", "dn_chunk_report", "dn_corrupt"});
  Status status =
      builder.Add(NnNamespaceModule(), {{"rep_factor", options.replication_factor}});
  BOOM_CHECK(status.ok()) << status.ToString();
  if (options.with_failure_detector) {
    status = builder.Add(NnFailureDetectorModule(),
                         {{"rep_factor", options.replication_factor},
                          {"hb_timeout_ms", options.heartbeat_timeout_ms},
                          {"fd_check_ms", options.failure_check_period_ms}});
    BOOM_CHECK(status.ok()) << status.ToString();
  }
  if (options.with_safe_mode) {
    status = builder.Add(NnSafeModeModule(),
                         {{"sm_check_ms", options.safe_mode_check_period_ms},
                          {"sm_frac_pct", options.safe_mode_report_frac_pct},
                          {"sm_timeout_ms", options.safe_mode_timeout_ms},
                          {"sm_grace_ms", options.safe_mode_grace_ms}});
    BOOM_CHECK(status.ok()) << status.ToString();
  }
  if (options.with_rename) {
    status = builder.Add(NnRenameModule());
    BOOM_CHECK(status.ok()) << status.ToString();
  }
  if (options.with_gc) {
    status = builder.Add(NnGcModule(), {{"gc_check_ms", options.gc_check_period_ms},
                                        {"gc_tombstone_ms", options.gc_tombstone_ms}});
    BOOM_CHECK(status.ok()) << status.ToString();
  }
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

Program BoomFsGatewayProgram(const GatewayOptions& options) {
  ProgramBuilder builder("boomfs_gw");
  builder.WithExternalInputs({"ns_ingress", "svc_load"});
  Status status = builder.Add(
      NnAdmissionModule(),
      {{"adm_quota", options.tenant_quota},
       {"adm_window_ms", options.window_ms},
       {"adm_queue_bound_ms", options.queue_bound_ms},
       {"adm_retry_ms", options.retry_after_ms},
       {"adm_fixpoint_budget_us", options.fixpoint_budget_us}});
  BOOM_CHECK(status.ok()) << status.ToString();
  builder.AddFact("adm_target", Tuple{Value(options.namenode)});
  for (const auto& [client, tenant] : options.client_tenants) {
    builder.AddFact("adm_tenant", Tuple{Value(client), Value(tenant)});
  }
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

}  // namespace boom
