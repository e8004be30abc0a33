// DataNode: the imperative data plane of BOOM-FS (chunk storage and transfer stay in native
// code in the paper too; only metadata is declarative).
//
// Integrity: every stored chunk keeps the writer's end-to-end checksum next to its bytes.
// The DataNode verifies the payload on store (a mangled transfer is rejected before it can
// be reported as a location) and again on serve; a replica that rotted at rest is
// quarantined — dropped locally and reported to every NameNode via dn_corrupt so the
// metadata plane retracts the location and re-replicates from a healthy copy.

#ifndef SRC_BOOMFS_DATANODE_H_
#define SRC_BOOMFS_DATANODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/cluster.h"

namespace boom {

struct DataNodeOptions {
  std::string namenode;            // control-plane target
  // Additional NameNodes (HA replicas) that also receive heartbeats and chunk reports.
  std::vector<std::string> extra_namenodes;
  double heartbeat_period_ms = 500;
  // Every Nth heartbeat carries a full chunk report (lets a failed-over NameNode rebuild its
  // location table). 0 disables full reports: the NameNode sees incremental reports only.
  int full_report_every = 4;
  // Checksum-verify chunks before serving them (reads and replication sources). Disabled
  // only by the chaos "serve-corrupt" bug variant, which models a DataNode without
  // end-to-end checksumming: it serves whatever bytes are on disk as if they were good.
  bool verify_reads = true;
  // Replication copies (replicate_cmd) carry a real request id and are acked by the
  // destination; a copy that gets no ack within the timeout is re-sent.
  double replicate_timeout_ms = 1000;
  int replicate_max_attempts = 3;
};

class DataNode : public Actor {
 public:
  DataNode(std::string address, DataNodeOptions options)
      : Actor(std::move(address)), options_(std::move(options)) {}

  void OnStart(Cluster& cluster) override;
  void OnMessage(const Message& msg, Cluster& cluster) override;

  // Points heartbeats/reports at a different NameNode (used by HA failover glue).
  void set_namenode(const std::string& nn) { options_.namenode = nn; }

  size_t chunk_count() const { return chunks_.size(); }
  bool HasChunk(int64_t chunk_id) const { return chunks_.count(chunk_id) > 0; }
  // Stored chunk ids in ascending order (chaos invariants audit these against the NameNode).
  std::vector<int64_t> ChunkIds() const {
    std::vector<int64_t> ids;
    ids.reserve(chunks_.size());
    for (const auto& [id, stored] : chunks_) {
      ids.push_back(id);
    }
    return ids;
  }
  // Total stored bytes (for tests / examples).
  size_t stored_bytes() const;

  // Test hook: silently flips a byte of this replica's copy of a stored chunk without
  // touching its checksum, simulating corruption at rest. Returns false when the chunk is
  // not stored here.
  bool CorruptStoredChunk(int64_t chunk_id);
  bool IsQuarantined(int64_t chunk_id) const { return quarantined_.count(chunk_id) > 0; }
  size_t quarantined_count() const { return quarantined_.size(); }

 private:
  struct StoredChunk {
    // The payload Value the writer created: every hop, replica and read shares its one
    // interned buffer. Corruption at rest replaces it with a private copy.
    Value data;
    int64_t checksum = 0;  // the writer's checksum, carried end-to-end
  };

  void HeartbeatLoop(Cluster& cluster);
  void SendHeartbeat(Cluster& cluster, bool full_report);
  void StoreChunk(int64_t chunk_id, const Value& data, int64_t checksum, Cluster& cluster);
  // Drops a replica that failed its checksum and reports it to every NameNode.
  void Quarantine(int64_t chunk_id, Cluster& cluster);
  // One attempt of an acked replication copy; re-arms itself until acked or exhausted.
  void SendReplica(int64_t chunk_id, const std::string& dest, int attempt, Cluster& cluster);
  void ForEachNameNode(const std::function<void(const std::string&)>& fn) const;
  double DiskDelayMs(Cluster& cluster) const;

  DataNodeOptions options_;
  std::map<int64_t, StoredChunk> chunks_;
  // Chunk ids dropped after a checksum mismatch (cleared when a fresh good copy arrives).
  std::set<int64_t> quarantined_;
  // In-flight acked replication copies: req -> (chunk, dest) and the reverse dedupe set
  // (the NameNode re-issues replicate_cmd every check period while under-replicated).
  std::map<int64_t, std::pair<int64_t, std::string>> repl_reqs_;
  std::set<std::pair<int64_t, std::string>> repl_inflight_;
  int64_t next_repl_req_ = 1;
  int heartbeats_sent_ = 0;
  uint64_t start_epoch_ = 0;  // invalidates heartbeat loops from before a restart
};

}  // namespace boom

#endif  // SRC_BOOMFS_DATANODE_H_
