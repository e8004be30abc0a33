#include "src/paxos/paxos_program.h"

#include "src/base/logging.h"

namespace boom {

namespace {

constexpr char kCoreModule[] = R"olg(
/////////////////////////////////////////////////////////////////////////////
// Membership and constants (facts appended per replica by PaxosProgram).
/////////////////////////////////////////////////////////////////////////////
table paxos_peer(Peer) keys(0);
table quorum(K, Q) keys(0);

/////////////////////////////////////////////////////////////////////////////
// Timers.
/////////////////////////////////////////////////////////////////////////////
timer px_ping_t(ping_ms);
timer px_tick(tick_ms);
timer px_sync_t(sync_ms);

/////////////////////////////////////////////////////////////////////////////
// Leader election: lowest-addressed live replica. Liveness from pings; the
// event-aggregate -> @next-table pattern keeps `leader` stable between timer
// ticks.
/////////////////////////////////////////////////////////////////////////////
event px_ping(Addr, From);
table peer_alive(Peer, LastSeen) keys(0);
event live_peer(Peer);
event leader_now(K, Addr);
table leader(K, Addr) keys(0);

el1 px_ping(@P, Me) :- px_ping_t(_), paxos_peer(P), Me := f_me();
el2 peer_alive(F, T) :- px_ping(_, F), T := f_now();
el3 live_peer(P) :- px_ping_t(_), peer_alive(P, T), f_now() - T < lead_timeout_ms;
el4 live_peer(Me) :- px_ping_t(_), Me := f_me();
el5 leader_now(1, min<P>) :- live_peer(P);
el6 leader(1, L)@next :- leader_now(1, L);

/////////////////////////////////////////////////////////////////////////////
// Proposer state.
/////////////////////////////////////////////////////////////////////////////
table my_ballot(K, Bal) keys(0);
table phase1_done(K, Bal) keys(0);
table next_slot(K, S) keys(0);
table request_q(ReqKey, Cmd) keys(0);   // dedup memory: every command ever seen
table pending_req(ReqKey, Cmd) keys(0); // work queue: not yet assigned to a slot
table proposal(Slot, Bal, Cmd) keys(0, 1);

my_ballot(1, my_idx);
phase1_done(1, -1);
next_slot(1, 0);

/////////////////////////////////////////////////////////////////////////////
// Client commands enter through px_request; each gets a queue key.
/////////////////////////////////////////////////////////////////////////////
// The queue key is a hash of the command, NOT f_unique_id(): replicas replaying the log must
// keep their id counters aligned, and hashing also dedupes client retries of the same
// command.
event px_request(Addr, Cmd);
q1 request_q(R, C)@next :- px_request(@Me, C), R := hash(to_string(C));
q2 pending_req(R, C)@next :- px_request(@Me, C), R := hash(to_string(C)),
                             notin request_q(R, _);

/////////////////////////////////////////////////////////////////////////////
// Phase 1 (once per ballot): the leader prepares until a quorum promises.
/////////////////////////////////////////////////////////////////////////////
event prepare(Addr, From, Bal);
event promise(Addr, From, Bal);
event promise_acc(Addr, From, Bal, Slot, AccBal, AccCmd);
event px_nack(Addr, From, PromisedBal);
table promise_log(Bal, From) keys(0, 1);
table promise_acc_log(Bal, From, Slot, AccBal, AccCmd) keys(0, 1, 2);
table promise_cnt(Bal, N) keys(0);

p1a prepare(@P, Me, B) :- px_tick(_), leader(1, L), Me := f_me(), L == Me,
                          my_ballot(1, B), phase1_done(1, DB), DB != B,
                          paxos_peer(P);
p1b promise_log(B, F) :- promise(_, F, B);
p1c promise_acc_log(B, F, S, AB, AC) :- promise_acc(_, F, B, S, AB, AC);
p1d promise_cnt(B, count<F>) :- promise_log(B, F);
p1e phase1_done(1, B)@next :- promise_cnt(B, N), quorum(1, Q), N >= Q, my_ballot(1, B);

// Ballot bump on rejection: next round that still encodes our index.
p1f my_ballot(1, NB)@next :- px_nack(_, _, PB), my_ballot(1, B), PB >= B,
                             NB := (PB / n_peers + 1) * n_peers + my_idx;

/////////////////////////////////////////////////////////////////////////////
// New-leader recovery: re-propose the highest-ballot accepted value of every
// slot reported during phase 1, and move next_slot past everything seen.
/////////////////////////////////////////////////////////////////////////////
table recover_hi(Slot, MaxAB) keys(0);
table max_seen_slot(K, S) keys(0);
event phase1_won(Bal);

// quorum_promised fires in the same tick that phase1_done is scheduled, so the recovery
// proposals and the next_slot bump land together with phase1_done — picks can never race a
// recovered slot.
event quorum_promised(Bal);
table decided_cmd(Cmd) keys(0);
// Forward declarations (defined with the phase-2 rules below; identical re-declaration is a
// no-op).
event decide(Addr, Slot, Cmd);
table decided(Slot, Cmd) keys(0);
r0 quorum_promised(B) :- promise_cnt(B, N), quorum(1, Q), N >= Q, my_ballot(1, B);
r1 recover_hi(S, max<AB>) :- promise_acc_log(B, _, S, AB, _), my_ballot(1, B);
r2 phase1_won(B) :- phase1_done(1, B), my_ballot(1, B);
r3 proposal(S, B, C)@next :- quorum_promised(B), recover_hi(S, AB),
                             promise_acc_log(B, _, S, AB, C), notin decided(S, _);
r4 max_seen_slot(1, max<S>) :- promise_acc_log(_, _, S, _, _);
r5 next_slot(1, S + 1)@next :- quorum_promised(_), max_seen_slot(1, S), next_slot(1, S0),
                               S >= S0;
r7 decided_cmd(C) :- decided(_, C);
// A new ballot orphans slot assignments whose accepts were rejected under the old ballot:
// re-queue everything not yet decided so the new leader re-picks it into fresh slots.
// (The phase-1 recovery above re-proposes anything a quorum may have accepted; commands in
// both sets can land in two slots — at-least-once, deduplicated by the application layer.)
r6 pending_req(R, C)@next :- phase1_won(_), request_q(R, C), notin decided_cmd(C);

/////////////////////////////////////////////////////////////////////////////
// Slot assignment: on each px_drain the leader moves one queued command into
// the next slot (declarative serialization of the log). px_drain is raised by
// the data, not polled: a new command raises it for the timestep its
// pending_req lands in (d1, q2's guard), a pick raises it again so a backlog
// drains one slot per timestep at the same virtual instant (d2), and a won
// ballot raises it for the commands r6 re-queues (d3). px_tick is only the
// liveness backstop (d4), e.g. for a replica that regains leadership under a
// ballot it already prepared.
/////////////////////////////////////////////////////////////////////////////
event px_drain(K);
event best_req(K, R);
event pick(ReqKey, Cmd, Slot, Bal);

d1 px_drain(1)@next :- px_request(@Me, C), R := hash(to_string(C)), notin request_q(R, _);
d2 px_drain(1)@next :- pick(_, _, _, _);
d3 px_drain(1)@next :- phase1_won(_);
d4 px_drain(1) :- px_tick(_);

s1 best_req(1, min<R>) :- px_drain(_), leader(1, L), L == f_me(),
                          my_ballot(1, B), phase1_done(1, B),
                          pending_req(R, _);
s2 pick(R, C, S, B) :- best_req(1, R), pending_req(R, C), next_slot(1, S), my_ballot(1, B);
s3 delete pending_req(R, C) :- pick(R, _, _, _), pending_req(R, C);
s4 next_slot(1, S + 1)@next :- pick(_, _, S, _);
s5 proposal(S, B, C)@next :- pick(_, C, S, B);

/////////////////////////////////////////////////////////////////////////////
// Phase 2: send accepts; acceptors ack iff the ballot is current; a quorum
// of acks decides the slot, and the decision is broadcast to all replicas.
/////////////////////////////////////////////////////////////////////////////
event accept_req(Addr, From, Slot, Bal, Cmd);
event accept_ack(Addr, From, Slot, Bal);
table accept_log(Slot, Bal, From) keys(0, 1, 2);
table accept_cnt(Slot, Bal, N) keys(0, 1);
event decide(Addr, Slot, Cmd);
table decided(Slot, Cmd) keys(0);
// Slots whose decision this leader already broadcast. Without it p2d fires again on every
// later ack (accept_cnt 2 -> 3 re-satisfies N >= Q). Soft state: once the broadcast is a
// lead timeout old no straggling ack is expected, and a missed decide is repaired by the
// learner anti-entropy below. (notin decided(S, _) cannot guard p2d: decided depends on
// decide through p2e, so that negation would be unstratifiable.)
table decide_sent(Slot) keys(0) ttl(lead_timeout_ms);

p2a accept_req(@P, Me, S, B, C) :- proposal(S, B, C), phase1_done(1, B),
                                   paxos_peer(P), Me := f_me();
p2b accept_log(S, B, F) :- accept_ack(_, F, S, B);
p2c accept_cnt(S, B, count<F>) :- accept_log(S, B, F);
p2d decide(@P, S, C) :- accept_cnt(S, B, N), quorum(1, Q), N >= Q,
                        proposal(S, B, C), paxos_peer(P), notin decide_sent(S);
p2f decide_sent(S)@next :- accept_cnt(S, B, N), quorum(1, Q), N >= Q, proposal(S, B, _);
p2e decided(S, C) :- decide(_, S, C);

/////////////////////////////////////////////////////////////////////////////
// Acceptor: single global promised ballot; per-slot accepted values.
/////////////////////////////////////////////////////////////////////////////
table promised(K, Bal) keys(0);
table accepted(Slot, Bal, Cmd) keys(0);
promised(1, -1);

// SAFETY-CRITICAL ORDER: the accepted-value stream (a1) must be *sent before* the promise
// (a2). Links are FIFO, and rules in one stratum emit in program order, so the proposer is
// guaranteed to have every accepted entry by the time the promise completes its quorum —
// otherwise it could win phase 1 without learning a possibly-chosen value and overwrite a
// decided slot.
a1 promise_acc(@F, Me, B, S, AB, AC) :- prepare(@Me, F, B), promised(1, PB), B >= PB,
                                        accepted(S, AB, AC);
a2 promise(@F, Me, B) :- prepare(@Me, F, B), promised(1, PB), B >= PB;
a3 promised(1, B)@next :- prepare(_, _, B), promised(1, PB), B > PB;
a4 px_nack(@F, Me, PB) :- prepare(@Me, F, B), promised(1, PB), B < PB;
a5 accepted(S, B, C)@next :- accept_req(_, _, S, B, C), promised(1, PB), B >= PB;
a6 accept_ack(@F, Me, S, B) :- accept_req(@Me, F, S, B, _), promised(1, PB), B >= PB;
a7 promised(1, B)@next :- accept_req(_, _, S, B, _), promised(1, PB), B > PB;
a8 px_nack(@F, Me, PB) :- accept_req(@Me, F, _, B, _), promised(1, PB), B < PB;

/////////////////////////////////////////////////////////////////////////////
// Learner: apply decided commands in strict slot order.
/////////////////////////////////////////////////////////////////////////////
table applied_upto(K, S) keys(0);
event apply_cmd(Slot, Cmd);
applied_upto(1, -1);

// Bind S by arithmetic *before* the decided atom: both semi-naive variants then reach
// decided through its primary-key index instead of scanning the whole log.
l1 apply_cmd(S, C) :- applied_upto(1, S0), S := S0 + 1, decided(S, C);
l2 applied_upto(1, S)@next :- apply_cmd(S, _);

/////////////////////////////////////////////////////////////////////////////
// Learner anti-entropy. Decide messages are broadcast once, at decision time:
// a replica that was down or partitioned misses them, and with no client
// traffic nothing triggers phase-1 recovery — it can rejoin, win the election
// back (lowest live address), and serve a stale state machine forever. Each
// replica periodically advertises its applied watermark; any peer re-sends the
// decided slots just above it (a bounded window per round, so a laggard
// streams back instead of being flooded).
/////////////////////////////////////////////////////////////////////////////
event px_sync_req(Addr, From, Upto);

sy1 px_sync_req(@P, Me, S0) :- px_sync_t(_), applied_upto(1, S0), paxos_peer(P),
                               Me := f_me(), P != Me;
// sy2 joins the local watermark first: a request from a peer that is not behind stops
// there and never reaches the decided atom, which S only range-filters (a full scan).
sy2 decide(@F, S, C) :- px_sync_req(@Me, F, S0), applied_upto(1, A), A > S0,
                        Hi := S0 + 64, decided(S, C), S > S0, S <= Hi;
)olg";

}  // namespace

const Module& PaxosCoreModule() {
  static const Module* kModule = new Module{
      "paxos_core",
      kCoreModule,
      {ModuleParam::Required("ping_ms", ValueKind::kDouble),
       ModuleParam::Required("tick_ms", ValueKind::kDouble),
       ModuleParam::Required("sync_ms", ValueKind::kDouble),
       ModuleParam::Required("lead_timeout_ms", ValueKind::kDouble),
       ModuleParam::Required("my_idx", ValueKind::kInt),
       ModuleParam::Required("n_peers", ValueKind::kInt)},
  };
  return *kModule;
}

Program PaxosProgram(const PaxosProgramOptions& options) {
  BOOM_CHECK(!options.peers.empty());
  BOOM_CHECK(options.my_index >= 0 &&
             static_cast<size_t>(options.my_index) < options.peers.size());
  ProgramBuilder builder("paxos");
  // px_request arrives from clients (or the HA bridge); apply_cmd is consumed by the
  // replicated application from C++ (or by a bridge program's rules).
  builder.WithExternalInputs({"px_request"});
  builder.analyzer_options().external_outputs.insert("apply_cmd");
  Status status =
      builder.Add(PaxosCoreModule(),
                  {{"ping_ms", options.ping_period_ms},
                   {"tick_ms", options.tick_period_ms},
                   {"sync_ms", options.sync_period_ms},
                   {"lead_timeout_ms", options.lead_timeout_ms},
                   {"my_idx", options.my_index},
                   {"n_peers", static_cast<int>(options.peers.size())}});
  BOOM_CHECK(status.ok()) << status.ToString();
  for (const std::string& peer : options.peers) {
    builder.AddFact("paxos_peer", Tuple({Value(peer)}));
  }
  int64_t quorum = static_cast<int64_t>(options.peers.size()) / 2 + 1;
  builder.AddFact("quorum", Tuple({Value(1), Value(quorum)}));
  Result<Program> program = builder.Build();
  BOOM_CHECK(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

}  // namespace boom
