// Multi-Paxos as an Overlog program — the paper's availability revision (F2): BOOM-FS
// NameNode state updates become a Paxos-replicated log of namespace commands, and the whole
// consensus protocol is a page of rules.
//
// Design (global-ballot multi-Paxos):
//   - Leader election: replicas ping each other on a timer; the lowest-addressed live
//     replica is leader (min<> aggregate over live peers).
//   - Phase 1 runs once per (leader, ballot) across all log slots; promises stream back the
//     acceptor's accepted entries so a new leader can re-propose unfinished commands.
//   - Client commands queue in `pending_req`; the leader moves one per timestep into the
//     next log slot (this serializes slot assignment declaratively). Slot assignment is
//     driven by the data: a command's arrival, the previous pick, and a won ballot each
//     raise `px_drain` for the next timestep, so a command gets its slot at the virtual
//     instant it arrives and a backlog drains back to back. The `px_tick` timer paces
//     only phase-1 prepare retries and a liveness backstop for the drain.
//   - Phase 2 per slot; a majority of accept acks decides the slot; `decide` is broadcast
//     and each replica applies decided commands in strict slot order (`apply_cmd`).
//
// Ballot uniqueness: ballot = round * num_peers + replica_index.
//
// The protocol is one module (PaxosCoreModule) with typed parameters (ping_ms, tick_ms,
// lead_timeout_ms, my_idx, n_peers); membership facts (paxos_peer, quorum) are appended by
// PaxosProgram via ProgramBuilder::AddFact.

#ifndef SRC_PAXOS_PAXOS_PROGRAM_H_
#define SRC_PAXOS_PAXOS_PROGRAM_H_

#include <string>
#include <vector>

#include "src/overlog/ast.h"
#include "src/overlog/module.h"

namespace boom {

struct PaxosProgramOptions {
  std::vector<std::string> peers;  // all replica addresses, including this node
  int my_index = 0;                // this node's position in `peers`
  double ping_period_ms = 200;     // leader-election heartbeat
  double lead_timeout_ms = 1000;   // peer considered dead after this silence
  double tick_period_ms = 10;      // phase-1 prepare retry period; drain liveness backstop
  double sync_period_ms = 200;     // learner anti-entropy: applied-watermark advert period
};

// The consensus protocol module, for composition on a caller-owned ProgramBuilder.
const Module& PaxosCoreModule();

// Composes the Paxos program for one replica (protocol module + membership facts) and runs
// the analyzer. Aborts on error — the module is compiled in, so failure is a code bug.
Program PaxosProgram(const PaxosProgramOptions& options);

}  // namespace boom

#endif  // SRC_PAXOS_PAXOS_PROGRAM_H_
