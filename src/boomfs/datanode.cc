#include "src/boomfs/datanode.h"

#include "src/base/logging.h"
#include "src/boomfs/protocol.h"
#include "src/telemetry/metrics.h"

namespace boom {

namespace {
Counter& DnCounter(const char* name) { return MetricsRegistry::Global().counter(name); }

// Copy-on-corrupt: a payload with byte `at` flipped. The original buffer is shared with the
// other replicas (and messages in flight), so it is never mutated.
Value FlipByte(const Value& data, size_t at) {
  std::string bytes = data.as_string();
  bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
  return Value(std::move(bytes));
}
}  // namespace

void DataNode::OnStart(Cluster& cluster) {
  ++start_epoch_;
  // Replication copies in flight before a crash are forgotten; the NameNode re-issues
  // replicate_cmd while the chunk stays under-replicated.
  repl_reqs_.clear();
  repl_inflight_.clear();
  SendHeartbeat(cluster, /*full_report=*/true);
  HeartbeatLoop(cluster);
}

void DataNode::HeartbeatLoop(Cluster& cluster) {
  uint64_t epoch = start_epoch_;
  cluster.ScheduleAfter(options_.heartbeat_period_ms, [this, &cluster, epoch] {
    if (epoch != start_epoch_ || !cluster.IsAlive(address())) {
      return;  // superseded by a restart, or we are dead
    }
    ++heartbeats_sent_;
    bool full = options_.full_report_every > 0 &&
                heartbeats_sent_ % options_.full_report_every == 0;
    SendHeartbeat(cluster, full);
    HeartbeatLoop(cluster);
  });
}

void DataNode::ForEachNameNode(const std::function<void(const std::string&)>& fn) const {
  fn(options_.namenode);
  for (const std::string& nn : options_.extra_namenodes) {
    fn(nn);
  }
}

double DataNode::DiskDelayMs(Cluster& cluster) const {
  return cluster.disk_faults(address()).slow_ms;
}

void DataNode::SendHeartbeat(Cluster& cluster, bool full_report) {
  ForEachNameNode([this, &cluster, full_report](const std::string& nn) {
    cluster.Send(address(), nn, kDnHeartbeat, Tuple{Value(nn), Value(address())});
    if (full_report) {
      for (const auto& [chunk_id, stored] : chunks_) {
        cluster.Send(address(), nn, kDnChunkReport,
                     Tuple{Value(nn), Value(address()), Value(chunk_id)});
      }
    }
  });
}

void DataNode::StoreChunk(int64_t chunk_id, const Value& data, int64_t checksum,
                          Cluster& cluster) {
  auto it = chunks_.find(chunk_id);
  bool fresh = it == chunks_.end();
  if (!fresh && it->second.checksum != checksum) {
    // Last-writer-wins: a re-write with different bytes replaces the stored copy (the
    // client's pipeline recovery legitimately re-sends a chunk id after a partial write).
    BOOM_LOG(Warning) << "DataNode " << address() << ": chunk " << chunk_id
                      << " overwritten with different bytes (last writer wins)";
  }
  DnCounter(fresh ? "fs.dn.chunk_store" : "fs.dn.chunk_rewrite").Add();
  StoredChunk& slot = chunks_[chunk_id];
  slot.data = data;
  slot.checksum = checksum;
  quarantined_.erase(chunk_id);  // a fresh verified copy supersedes any quarantine
  // Disk-corruption fault: the bytes rot at rest, after the store-time verification; the
  // stored checksum keeps the writer's value, so serve-time verification catches it.
  DiskFaults disk = cluster.disk_faults(address());
  size_t size = slot.data.as_string().size();
  if (disk.corrupt_prob > 0 && size > 0 && cluster.rng().Bernoulli(disk.corrupt_prob)) {
    size_t at = static_cast<size_t>(
        cluster.rng().UniformInt(0, static_cast<int64_t>(size) - 1));
    slot.data = FlipByte(slot.data, at);
  }
  if (fresh) {
    // Incremental report so the NameNodes learn the location without waiting for the next
    // full report.
    ForEachNameNode([this, &cluster, chunk_id](const std::string& nn) {
      cluster.Send(address(), nn, kDnChunkReport,
                   Tuple{Value(nn), Value(address()), Value(chunk_id)});
    });
  }
}

void DataNode::Quarantine(int64_t chunk_id, Cluster& cluster) {
  DnCounter("fs.dn.quarantine").Add();
  BOOM_LOG(Warning) << "DataNode " << address() << ": quarantining corrupt chunk "
                    << chunk_id;
  chunks_.erase(chunk_id);
  quarantined_.insert(chunk_id);
  ForEachNameNode([this, &cluster, chunk_id](const std::string& nn) {
    cluster.Send(address(), nn, kDnCorrupt,
                 Tuple{Value(nn), Value(address()), Value(chunk_id)});
  });
}

void DataNode::SendReplica(int64_t chunk_id, const std::string& dest, int attempt,
                           Cluster& cluster) {
  auto it = chunks_.find(chunk_id);
  if (it == chunks_.end()) {  // deleted (or quarantined) since the copy was requested
    repl_inflight_.erase({chunk_id, dest});
    return;
  }
  // The serve-corrupt bug variant skips source verification and recomputes the checksum
  // over whatever bytes are on disk — modeling a data plane without end-to-end checksums.
  int64_t actual = ChunkChecksum(it->second.data.as_string());
  if (options_.verify_reads && actual != it->second.checksum) {
    repl_inflight_.erase({chunk_id, dest});
    Quarantine(chunk_id, cluster);
    return;
  }
  int64_t req = next_repl_req_++;
  repl_reqs_[req] = {chunk_id, dest};
  cluster.Send(address(), dest, kDnWrite,
               Tuple{Value(dest), Value(chunk_id), it->second.data,
                     Value(options_.verify_reads ? it->second.checksum : actual),
                     Value(ValueList{}), Value(address()), Value(req)},
               DiskDelayMs(cluster));
  uint64_t epoch = start_epoch_;
  cluster.ScheduleAfter(options_.replicate_timeout_ms,
                        [this, &cluster, req, chunk_id, dest, attempt, epoch] {
    if (epoch != start_epoch_ || !cluster.IsAlive(address())) {
      return;
    }
    auto pending = repl_reqs_.find(req);
    if (pending == repl_reqs_.end()) {
      return;  // acked
    }
    repl_reqs_.erase(pending);
    if (attempt < options_.replicate_max_attempts) {
      SendReplica(chunk_id, dest, attempt + 1, cluster);
    } else {
      repl_inflight_.erase({chunk_id, dest});  // give up; the NameNode will re-command
    }
  });
}

void DataNode::OnMessage(const Message& msg, Cluster& cluster) {
  if (msg.table == kDnWrite) {
    // (To, ChunkId, Data, Checksum, Pipeline, AckTo, ReqId)
    int64_t chunk_id = msg.tuple[1].as_int();
    const Value& data = msg.tuple[2];
    int64_t checksum = msg.tuple[3].as_int();
    const ValueList& pipeline = msg.tuple[4].as_list();
    const std::string& ack_to = msg.tuple[5].as_string();
    if (ChunkChecksum(data.as_string()) != checksum) {
      // Mangled in transit: refuse the store (no report, no forward, no ack) — the writer
      // times out and retries.
      DnCounter("fs.dn.write_reject").Add();
      BOOM_LOG(Warning) << "DataNode " << address() << ": rejecting chunk " << chunk_id
                        << " (transfer checksum mismatch)";
      return;
    }
    StoreChunk(chunk_id, data, checksum, cluster);
    if (!pipeline.empty()) {
      // Forward along the replication pipeline.
      ValueList rest(pipeline.begin() + 1, pipeline.end());
      const std::string& next = pipeline[0].as_string();
      cluster.Send(address(), next, kDnWrite,
                   Tuple{Value(next), Value(chunk_id), data, msg.tuple[3],
                         Value(std::move(rest)), msg.tuple[5], msg.tuple[6]},
                   DiskDelayMs(cluster));
    } else if (!ack_to.empty()) {
      cluster.Send(address(), ack_to, kDnWriteAck,
                   Tuple{Value(ack_to), msg.tuple[6], Value(chunk_id)},
                   DiskDelayMs(cluster));
    }
    return;
  }
  if (msg.table == kDnWriteAck) {
    // (Us, ReqId, ChunkId) — a replication copy we sourced reached its destination.
    auto it = repl_reqs_.find(msg.tuple[1].as_int());
    if (it == repl_reqs_.end()) {
      return;  // late ack of a timed-out attempt
    }
    repl_inflight_.erase(it->second);
    repl_reqs_.erase(it);
    return;
  }
  if (msg.table == kDnRead) {
    // (To, ChunkId, Client, ReqId)
    int64_t chunk_id = msg.tuple[1].as_int();
    const std::string& client = msg.tuple[2].as_string();
    DnCounter("fs.dn.read").Add();
    auto it = chunks_.find(chunk_id);
    if (it == chunks_.end()) {
      DnCounter("fs.dn.read_miss").Add();
      cluster.Send(address(), client, kDnReadData,
                   Tuple{Value(client), msg.tuple[3], Value(false), Value(std::string()),
                         Value(int64_t{0})},
                   DiskDelayMs(cluster));
      return;
    }
    int64_t actual = ChunkChecksum(it->second.data.as_string());
    if (options_.verify_reads && actual != it->second.checksum) {
      // Rotted at rest: never serve it. Quarantine + report; the client fails over to
      // another replica and the NameNode re-replicates from a healthy one.
      cluster.Send(address(), client, kDnReadData,
                   Tuple{Value(client), msg.tuple[3], Value(false), Value(std::string()),
                         Value(int64_t{0})},
                   DiskDelayMs(cluster));
      Quarantine(chunk_id, cluster);
      return;
    }
    // With verification off (serve-corrupt bug variant) the checksum is recomputed over
    // the on-disk bytes, so a client cannot tell the data rotted.
    cluster.Send(address(), client, kDnReadData,
                 Tuple{Value(client), msg.tuple[3], Value(true), it->second.data,
                       Value(options_.verify_reads ? it->second.checksum : actual)},
                 DiskDelayMs(cluster));
    return;
  }
  if (msg.table == kDnDelete) {
    // (To, ChunkId) — the NameNode garbage-collected this chunk.
    int64_t chunk_id = msg.tuple[1].as_int();
    chunks_.erase(chunk_id);
    quarantined_.erase(chunk_id);
    return;
  }
  if (msg.table == kReplicateCmd) {
    // (To, ChunkId, Dest) — copy one of our chunks to Dest with an acked, retried send.
    int64_t chunk_id = msg.tuple[1].as_int();
    const std::string& dest = msg.tuple[2].as_string();
    if (dest == address() || chunks_.count(chunk_id) == 0) {
      return;
    }
    if (!repl_inflight_.insert({chunk_id, dest}).second) {
      return;  // this exact copy is already in flight (NameNode re-commands periodically)
    }
    DnCounter("fs.dn.replicate").Add();
    SendReplica(chunk_id, dest, /*attempt=*/1, cluster);
    return;
  }
  BOOM_LOG(Warning) << "DataNode " << address() << ": unknown message " << msg.table;
}

size_t DataNode::stored_bytes() const {
  size_t total = 0;
  for (const auto& [id, stored] : chunks_) {
    total += stored.data.as_string().size();
  }
  return total;
}

bool DataNode::CorruptStoredChunk(int64_t chunk_id) {
  auto it = chunks_.find(chunk_id);
  if (it == chunks_.end() || it->second.data.as_string().empty()) {
    return false;
  }
  it->second.data = FlipByte(it->second.data, 0);
  return true;
}

}  // namespace boom
