// Federated BOOM-FS metadata plane (the paper's F2 x F3 composition): the namespace is
// hash-partitioned across N NameNode *groups*, each group Paxos-replicated via the HA
// bridge, fronted by a partition-map service.
//
// Layers, bottom-up, on each replica engine: paxos.olg + boomfs_nn.olg + ha_bridge +
// the nn_federation module below. nn_federation owns the intake gate: a fed_request for an
// owned, unfrozen partition enters the HA bridge (ha_request -> Paxos -> replayed
// ns_request); a request for a partition the group does not own bounces with a stale-epoch
// response carrying the replica's whole partition map (clients cache it and re-route); a
// frozen partition (mid-migration) sheds with a retryable ["overloaded", hint] answer.
//
// The partition-map service is one Overlog node running the partition_map module: the sole
// authority for pid -> group assignment. Assignments carry explicit, strictly-increasing
// epochs; the service broadcasts every accepted assignment (and an anti-entropy
// rebroadcast on a timer) to all replicas as fed_map_update, which the replicas apply
// through the same strict-epoch guard. Routing therefore never rolls back anywhere.
//
// Cross-partition rename is a client-driven two-phase protocol (xr_intent at the source,
// create + xr_addchunk at the destination, xr_commit tombstoning the source; xr_drop /
// xr_abort unwind) — see src/boomfs/protocol.h and FsClient::Rename.
//
// Online rebalance is a program too: the partition-map node runs a migration coordinator
// (rules next to partition_map) that takes one request and drives the whole migration
// through the groups' replicated logs — freeze, seal at the source, snapshot the sealed
// partition in pages through the same log, unseal at the destination, make directories
// there, move each file with the xr commands, assign the partition at epoch+1, unfreeze.
// StartRebalance only sends that request and reports its answer. Chaos invariant
// checkers (src/chaos/invariants.h: FedNamespaceChecker / FedEpochChecker) watch for lost
// or duplicated namespace entries and epoch regressions throughout.

#ifndef SRC_BOOMFS_FEDERATION_H_
#define SRC_BOOMFS_FEDERATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/boomfs/boomfs.h"
#include "src/boomfs/client.h"
#include "src/overlog/module.h"
#include "src/paxos/paxos_program.h"
#include "src/sim/cluster.h"

namespace boom {

// --- programs ---

// One row of the initial (or published) partition map.
struct FedMapRow {
  int64_t pid = 0;
  int64_t epoch = 0;
  std::string leader;
  std::vector<std::string> members;
};

const Module& NnFederationModule();
const Module& PartitionMapModule();

// Per-replica federation layer. `initial_map` seeds fed_map facts; `owned_pids` seeds
// fed_owned (the pids whose member lists include this replica). Both empty for the
// lint/golden build.
struct NnFederationProgramOptions {
  double freeze_retry_ms = 50;  // retry-after hint on frozen-partition sheds
  std::vector<FedMapRow> initial_map;
  std::vector<int64_t> owned_pids;
};
Program NnFederationProgram(const NnFederationProgramOptions& options = {});

// The partition-map service program. `nodes` seeds pm_node (the broadcast set — every
// replica of every group); `initial_map` seeds partition_map. Both empty for lint/golden.
struct PartitionMapProgramOptions {
  double rebroadcast_ms = 1000;  // anti-entropy rebroadcast period
  std::vector<FedMapRow> initial_map;
  std::vector<std::string> nodes;
};
Program PartitionMapProgram(const PartitionMapProgramOptions& options = {});

// --- deployment ---

struct FederatedFsOptions {
  int num_groups = 2;
  int replicas_per_group = 3;
  int num_partitions = 8;
  std::string prefix = "fed";  // replicas are <prefix>_g<G>r<R>, the map node <prefix>_pmap
  int num_datanodes = 4;
  int replication_factor = 3;
  double heartbeat_period_ms = 500;
  double heartbeat_timeout_ms = 2000;
  size_t chunk_size = 64 * 1024;
  double client_timeout_ms = 400;  // per-attempt timeout before rotating group members
  int client_retries = 20;
  int num_clients = 1;
  double pm_rebroadcast_ms = 1000;
  double freeze_retry_ms = 50;
  PaxosProgramOptions paxos;  // peers/my_index filled in per group
  // Chaos hook: rule names stripped from every replica's federation program (bug
  // variants, e.g. the split-rename commit that forgets to delete the source).
  std::vector<std::string> federation_strip_rules;
};

struct FederatedFsHandles {
  std::vector<std::vector<std::string>> groups;  // group -> replica addresses
  std::string pmap;
  std::vector<std::string> datanodes;
  std::vector<FsClient*> clients;        // fed-routed; owned by the cluster
  FsClient* admin = nullptr;             // sends migration requests; cluster-owned
  std::shared_ptr<FedMapCache> cache;    // routing cache shared by all fed clients
  std::vector<int> pid_group;            // pid -> group (initial, then as migrated)
  int num_partitions = 0;

  // All replica addresses of every group, flattened (group-major).
  std::vector<std::string> AllReplicas() const;
};

// Builds the full federated deployment: N groups of Paxos-replicated NameNode engines
// (per-group f_unique_id salts, so groups can never mint colliding chunk ids), one
// partition-map node, a shared DataNode pool heartbeating to every replica, and
// `num_clients` federated clients sharing one map cache seeded with the epoch-0 map.
FederatedFsHandles SetupFederatedFs(Cluster& cluster, const FederatedFsOptions& options);

// Observer helper for invariant checkers, tests and benches, never used by the protocol:
// the group's current Paxos leader, read from the `leader` table of the first alive
// member ("" when the whole group is down; falls back to the first alive member while an
// election is still converging).
std::string GroupLeader(Cluster& cluster, const std::vector<std::string>& members);

// --- online rebalance ---

// Asks the partition-map node to migrate partition `pid` to group `dest_group` and calls
// done(ok) with its answer. The coordinator freezes the partition, seals it in the source
// group's log, snapshots it through the same log, unseals it at the destination, makes
// its directories there (ancestors included), moves each file through the xr commands,
// assigns it to the destination at epoch+1 and unfreezes it. A step that fails for good,
// or goes unanswered for 4 s, aborts the migration: the source is unsealed, the map is
// left unchanged and the partition unfrozen, and done(false) follows. Files already
// committed to the destination are then orphaned from the routed namespace, so callers
// that track per-path state (the chaos scenario) mark the partition's paths uncertain.
void StartRebalance(Cluster& cluster, const FederatedFsHandles& handles, int64_t pid,
                    int dest_group, std::function<void(bool ok)> done);

// Synchronous wrapper for tests/benches: drives the cluster in RunUntil quanta until the
// migration completes (true) or `timeout_ms` of virtual time passes (false), and records
// the new owner in handles.pid_group. Not callable from inside an event callback
// (RunUntil is not reentrant).
bool RebalancePartitionSync(Cluster& cluster, FederatedFsHandles& handles, int64_t pid,
                            int dest_group, double timeout_ms = 60000);

}  // namespace boom

#endif  // SRC_BOOMFS_FEDERATION_H_
