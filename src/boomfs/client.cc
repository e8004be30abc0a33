#include "src/boomfs/client.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/boomfs/protocol.h"
#include "src/telemetry/metrics.h"

namespace boom {

namespace {
// Handles resolved once; registry names are the contract with docs/OBSERVABILITY.md.
Counter& ClientCounter(const char* name) { return MetricsRegistry::Global().counter(name); }

// "/a/b/c" -> {"/a", "/a/b", "/a/b/c"}; "/" and "" have no prefixes.
std::vector<std::string> PathPrefixes(const std::string& path) {
  std::vector<std::string> out;
  size_t pos = 1;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) {
      slash = path.size();
    }
    if (slash > pos) {
      out.push_back(path.substr(0, slash));
    }
    pos = slash + 1;
  }
  return out;
}
}  // namespace

bool FedMapCache::ApplyRow(int64_t pid, int64_t epoch, const std::string& leader,
                           std::vector<std::string> members) {
  auto it = rows.find(pid);
  if (it != rows.end() && epoch <= it->second.epoch) {
    return false;  // stale or already-applied row: routing never rolls back
  }
  FedGroupEntry& row = rows[pid];
  row.epoch = epoch;
  row.leader = leader;
  row.members = std::move(members);
  return true;
}

int FedMapCache::ApplyStalePayload(const Value& payload) {
  if (!IsStaleEpochPayload(payload)) {
    return 0;
  }
  const ValueList& outer = payload.as_list();
  global_epoch = std::max(global_epoch, outer[1].as_int());
  int applied = 0;
  for (const Value& row : outer[2].as_list()) {
    if (!row.is_list() || row.as_list().size() != 4) {
      continue;
    }
    const ValueList& r = row.as_list();
    if (!r[0].is_numeric() || !r[1].is_numeric() || !r[2].is_string() || !r[3].is_list()) {
      continue;
    }
    std::vector<std::string> members;
    for (const Value& m : r[3].as_list()) {
      if (m.is_string()) {
        members.push_back(m.as_string());
      }
    }
    if (ApplyRow(r[0].as_int(), r[1].as_int(), r[2].as_string(), std::move(members))) {
      ++applied;
    }
  }
  return applied;
}

// State for a multi-chunk write in flight. next_offset advances only when a chunk is acked,
// so a retry round re-sends exactly the bytes that were never confirmed.
struct WriteJob {
  std::string path;
  std::string data;
  size_t next_offset = 0;
  int round = 0;           // retry rounds consumed by the chunk currently being written
  int overload_round = 0;  // shed ("overloaded") retries, budgeted separately
  std::function<void(bool)> cb;
  SpanContext span;  // "fs.write" root span for the whole composite op
};

// State for a multi-chunk read in flight.
struct ReadJob {
  std::string path;
  ValueList chunk_ids;
  size_t next_chunk = 0;
  int round = 0;  // retry rounds consumed by the chunk currently being read
  std::string assembled;
  FsClient::DataCb cb;
  SpanContext span;  // "fs.read" root span for the whole composite op
};

// State for a cross-partition rename in flight (federated routing): the chunk ids
// returned by xr_intent, adopted one at a time at the destination partition.
struct FedRenameJob {
  std::string src;
  std::string dst;
  ValueList chunks;
  size_t next_chunk = 0;
  FsClient::ResponseCb cb;
};

void FsClient::Request(Cluster& cluster, const std::string& cmd, const std::string& path,
                       Value arg, ResponseCb cb, std::string forced_target,
                       std::string table, std::string route_key) {
  int64_t req = next_req_++;
  PendingReq& pending = pending_[req];
  pending.cmd = cmd;
  pending.path = path;
  pending.arg = std::move(arg);
  pending.cb = std::move(cb);
  pending.forced_target = std::move(forced_target);
  pending.table = std::move(table);
  pending.route_key = std::move(route_key);
  pending.target_index = preferred_target_;
  // The request span joins whatever operation is active (an fs.write, a chaos workload
  // step) and covers the request until its response or terminal timeout.
  pending.span = cluster.StartSpan("ns:" + cmd, address(), cluster.active_span());
  pending.sent_ms = cluster.now();
  Dispatch(cluster, req);
}

void FsClient::Dispatch(Cluster& cluster, int64_t req) {
  auto it = pending_.find(req);
  if (it == pending_.end()) {
    return;
  }
  PendingReq& pending = it->second;
  ++requests_sent_;
  ++pending.attempts;
  ClientCounter("fs.client.ns_request").Add();
  if (pending.attempts > 1) {
    ClientCounter("fs.client.ns_failover").Add();
    cluster.SpanAttr(pending.span, "failover", std::to_string(pending.attempts - 1));
  }
  std::string nn;
  if (!pending.forced_target.empty()) {
    nn = pending.forced_target;
  } else if (fed_cache_ && fed_num_partitions_ > 0) {
    const std::string key = pending.route_key.empty()
                                ? NsRoutingKey(pending.cmd, pending.path)
                                : pending.route_key;
    auto entry = fed_cache_->rows.find(RoutingPid(key, fed_num_partitions_));
    if (entry != fed_cache_->rows.end() && !entry->second.members.empty()) {
      // First attempt to the cached leader; failover rotates through the group (any
      // member forwards to the live leader via the HA bridge).
      if (pending.attempts == 1 && !entry->second.leader.empty()) {
        nn = entry->second.leader;
      } else {
        const std::vector<std::string>& members = entry->second.members;
        nn = members[static_cast<size_t>(pending.attempts) % members.size()];
      }
    } else {
      nn = options_.namenode;
    }
  } else if (pending.target_index == 0 || options_.fallbacks.empty()) {
    nn = options_.namenode;
  } else {
    nn = options_.fallbacks[(pending.target_index - 1) % options_.fallbacks.size()];
  }
  {
    // Parent the wire message (and the timeout event) to the request's span.
    Cluster::SpanScope scope(cluster, pending.span);
    const std::string& table =
        pending.table.empty() ? options_.request_table : pending.table;
    std::vector<Value> wire{Value(nn),          Value(req),           Value(address()),
                            Value(pending.cmd), Value(pending.path),  pending.arg};
    if (fed_cache_ && table == kFedRequest) {
      // fed_request carries (Pid, CachedEpoch) so the serving group can gate on
      // ownership and answer stale routing with the fresh map.
      const std::string key = pending.route_key.empty()
                                  ? NsRoutingKey(pending.cmd, pending.path)
                                  : pending.route_key;
      wire.push_back(Value(RoutingPid(key, fed_num_partitions_)));
      wire.push_back(Value(fed_cache_->global_epoch));
    }
    cluster.Send(address(), nn, table, Tuple(std::move(wire)));
    // Always armed: with every NameNode dead the request surfaces a terminal cb(false,
    // "timeout") instead of leaving the caller waiting forever.
    ArmTimeout(cluster, req, pending.attempts);
  }
}

void FsClient::ArmTimeout(Cluster& cluster, int64_t req, int attempt) {
  cluster.ScheduleAfter(EffectiveRequestTimeout(), [this, &cluster, req, attempt] {
    auto it = pending_.find(req);
    if (it == pending_.end() || it->second.attempts != attempt) {
      return;  // answered, or a later attempt owns the timeout
    }
    ClientCounter("fs.client.ns_timeout").Add();
    if (it->second.attempts <= options_.max_retries) {
      ++it->second.target_index;  // rotate to the next NameNode
      Dispatch(cluster, req);
      return;
    }
    ResponseCb cb = std::move(it->second.cb);
    cluster.SpanAttr(it->second.span, "timeout", "1");
    cluster.EndSpan(it->second.span);
    pending_.erase(it);
    cb(false, Value("timeout"));
  });
}

double FsClient::Backoff(Cluster& cluster, int round) const {
  double base = options_.retry_base_ms;
  for (int i = 1; i < round; ++i) {
    base = std::min(base * 2, options_.retry_max_ms);
  }
  base = std::min(base, options_.retry_max_ms);
  // Exactly one Rng draw either way, so flipping full_jitter never shifts the seeded
  // schedule of anything else in the run.
  if (options_.full_jitter) {
    return cluster.rng().Uniform(0, base);
  }
  return base + cluster.rng().Uniform(0, base * 0.5);
}

bool FsClient::TrySpendRetryToken() {
  if (options_.retry_budget_cap <= 0) {
    return true;  // budget disabled
  }
  if (retry_tokens_ < 1) {
    ClientCounter("fs.client.retry_budget_exhausted").Add();
    return false;
  }
  retry_tokens_ -= 1;
  return true;
}

void FsClient::CreditSuccess() {
  if (options_.retry_budget_cap <= 0) {
    return;
  }
  retry_tokens_ =
      std::min(options_.retry_budget_cap, retry_tokens_ + options_.retry_budget_refill);
}

void FsClient::Mkdir(Cluster& c, const std::string& path, ResponseCb cb) {
  bool dual = false;
  if (!path.empty() && path != "/" && fed_cache_ && fed_num_partitions_ > 1) {
    dual = RoutingPid(NsRoutingKey(kCmdMkdir, path), fed_num_partitions_) !=
           RoutingPid(path, fed_num_partitions_);
  }
  if (!dual) {
    Request(c, kCmdMkdir, path, Value(), std::move(cb));
    return;
  }
  // Dual-homed directory: the canonical entry lands at the parent's partition (where the
  // directory is listed); a child-serving copy — with any missing ancestor scaffolding —
  // lands at the directory's own partition (where its entries and their routing live).
  // This keeps parent-directory existence a partition-local question; the old
  // every-partition MkdirAll fan-out is gone.
  auto remaining = std::make_shared<int>(2);
  auto all_ok = std::make_shared<bool>(true);
  auto done_cb = std::make_shared<ResponseCb>(std::move(cb));
  ResponseCb join = [remaining, all_ok, done_cb](bool ok, const Value&) {
    *all_ok = *all_ok && ok;
    if (--*remaining == 0) {
      (*done_cb)(*all_ok, Value());
    }
  };
  MkdirLeg(c, path, "", join);
  auto prefixes = std::make_shared<std::vector<std::string>>(PathPrefixes(path));
  MkdirScaffold(c, prefixes, 0, path, std::make_shared<ResponseCb>(join));
}

void FsClient::MkdirLeg(Cluster& c, const std::string& path, const std::string& route_key,
                        ResponseCb cb) {
  auto done = std::make_shared<ResponseCb>(std::move(cb));
  Request(c, kCmdMkdir, path, Value(),
          [this, &c, path, route_key, done](bool ok, const Value& pay) {
            if (ok) {
              (*done)(true, pay);
              return;
            }
            // "mkdir failed" covers both already-exists and missing-parent; an Exists
            // probe on the same route disambiguates, so repeated legs stay idempotent.
            Request(c, kCmdExists, path, Value(),
                    [done](bool ok2, const Value& present) {
                      (*done)(ok2 && present.Truthy(), Value());
                    },
                    "", "", route_key);
          },
          "", "", route_key);
}

void FsClient::MkdirScaffold(Cluster& c, std::shared_ptr<std::vector<std::string>> prefixes,
                             size_t index, std::string route_key,
                             std::shared_ptr<ResponseCb> done) {
  if (index >= prefixes->size()) {
    (*done)(true, Value());
    return;
  }
  MkdirLeg(c, (*prefixes)[index], route_key,
           [this, &c, prefixes, index, route_key, done](bool ok, const Value&) {
             if (!ok) {
               (*done)(false, Value());
               return;
             }
             MkdirScaffold(c, prefixes, index + 1, route_key, done);
           });
}

void FsClient::MkdirP(Cluster& c, const std::string& path, ResponseCb cb) {
  auto prefixes = std::make_shared<std::vector<std::string>>(PathPrefixes(path));
  MkdirPStep(c, prefixes, 0, std::make_shared<ResponseCb>(std::move(cb)));
}

void FsClient::MkdirPStep(Cluster& c, std::shared_ptr<std::vector<std::string>> prefixes,
                          size_t index, std::shared_ptr<ResponseCb> done) {
  if (index >= prefixes->size()) {
    (*done)(true, Value());
    return;
  }
  Mkdir(c, (*prefixes)[index], [this, &c, prefixes, index, done](bool ok, const Value&) {
    if (!ok) {
      (*done)(false, Value());
      return;
    }
    MkdirPStep(c, prefixes, index + 1, done);
  });
}
void FsClient::CreateFile(Cluster& c, const std::string& path, ResponseCb cb) {
  Request(c, kCmdCreate, path, Value(), std::move(cb));
}
void FsClient::Exists(Cluster& c, const std::string& path, ResponseCb cb) {
  Request(c, kCmdExists, path, Value(), std::move(cb));
}
void FsClient::Ls(Cluster& c, const std::string& path, ResponseCb cb) {
  Request(c, kCmdLs, path, Value(), std::move(cb));
}
void FsClient::Rm(Cluster& c, const std::string& path, ResponseCb cb) {
  Request(c, kCmdRm, path, Value(), std::move(cb));
}
void FsClient::Rename(Cluster& c, const std::string& path, const std::string& new_path,
                      ResponseCb cb) {
  if (fed_cache_ && fed_num_partitions_ > 1 &&
      RoutingPid(NsRoutingKey(kCmdRename, path), fed_num_partitions_) !=
          RoutingPid(NsRoutingKey(kCmdRename, new_path), fed_num_partitions_)) {
    FedRename(c, path, new_path, std::move(cb));
    return;
  }
  Request(c, kCmdRename, path, Value(new_path), std::move(cb));
}

void FsClient::FedRename(Cluster& cluster, const std::string& path,
                         const std::string& new_path, ResponseCb cb) {
  ClientCounter("fs.client.xr_rename").Add();
  auto job = std::make_shared<FedRenameJob>();
  job->src = path;
  job->dst = new_path;
  job->cb = std::move(cb);
  // Phase 1: mark the source moving; the answer carries [FileId, chunk ids].
  Request(cluster, kCmdXrIntent, path, Value(),
          [this, &cluster, job](bool ok, const Value& pay) {
            if (!ok) {
              // Nothing changed at either partition (a timeout stays a timeout: the
              // intent may or may not have been marked — the caller treats it as
              // uncertain, like any timed-out mutation).
              job->cb(false, pay);
              return;
            }
            if (!pay.is_list() || pay.as_list().size() != 2 ||
                !pay.as_list()[1].is_list()) {
              FedRenameUnwind(cluster, job, Value("rename failed"));
              return;
            }
            job->chunks = pay.as_list()[1].as_list();
            // Phase 2: ordinary create at the destination partition, then adopt the
            // source's already-allocated chunk ids one by one.
            Request(cluster, kCmdCreate, job->dst, Value(),
                    [this, &cluster, job](bool ok2, const Value& pay2) {
                      if (!ok2) {
                        FedRenameUnwind(cluster, job, pay2);
                        return;
                      }
                      FedRenameAdopt(cluster, job);
                    });
          });
}

void FsClient::FedRenameAdopt(Cluster& cluster, std::shared_ptr<FedRenameJob> job) {
  if (job->next_chunk >= job->chunks.size()) {
    // Phase 3: commit tombstones the source entry; the destination owns the chunks now.
    Request(cluster, kCmdXrCommit, job->src, Value(),
            [job](bool ok, const Value& pay) { job->cb(ok, ok ? Value() : pay); });
    return;
  }
  Value chunk = job->chunks[job->next_chunk];
  Request(cluster, kCmdXrAddChunk, job->dst, std::move(chunk),
          [this, &cluster, job](bool ok, const Value& pay) {
            if (!ok) {
              FedRenameUnwind(cluster, job, pay);
              return;
            }
            ++job->next_chunk;
            FedRenameAdopt(cluster, job);
          });
}

void FsClient::FedRenameUnwind(Cluster& cluster, std::shared_ptr<FedRenameJob> job,
                               const Value& failure) {
  ClientCounter("fs.client.xr_unwind").Add();
  // Best-effort unwind: drop the half-imported destination entry WITHOUT chunk GC
  // (xr_drop — the source still references the adopted chunks), then release the source
  // intent (xr_abort). Both are idempotent; the caller sees the original failure.
  Value fail = failure;
  Request(cluster, kCmdXrDrop, job->dst, Value(),
          [this, &cluster, job, fail](bool, const Value&) {
            Request(cluster, kCmdXrAbort, job->src, Value(),
                    [job, fail](bool, const Value&) { job->cb(false, fail); });
          });
}
void FsClient::AddChunk(Cluster& c, const std::string& path, ResponseCb cb) {
  Request(c, kCmdAddChunk, path, Value(), std::move(cb));
}
void FsClient::Chunks(Cluster& c, const std::string& path, ResponseCb cb) {
  Request(c, kCmdChunks, path, Value(), std::move(cb));
}
void FsClient::Locations(Cluster& c, int64_t chunk_id, ResponseCb cb) {
  Request(c, kCmdLocations, "", Value(chunk_id), std::move(cb));
}

void FsClient::RawOp(Cluster& c, const std::string& cmd, const std::string& path, Value arg,
                     ResponseCb cb, const std::string& target, const std::string& table) {
  Request(c, cmd, path, std::move(arg), std::move(cb), target, table);
}

void FsClient::WriteFile(Cluster& cluster, const std::string& path, std::string data,
                         std::function<void(bool)> cb) {
  auto job = std::make_shared<WriteJob>();
  job->path = path;
  job->data = std::move(data);
  // Root span for the composite op; the span ctx and start time are captured by value in
  // the completion wrapper (capturing `job` there would make the shared_ptr cycle and leak).
  job->span = cluster.StartSpan("fs.write", address());
  cluster.SpanAttr(job->span, "path", path);
  double start_ms = cluster.now();
  job->cb = [&cluster, span = job->span, start_ms, user_cb = std::move(cb)](bool ok) {
    ClientCounter(ok ? "fs.client.write_ok" : "fs.client.write_fail").Add();
    MetricsRegistry::Global().histogram("fs.client.write_ms").Observe(cluster.now() -
                                                                      start_ms);
    cluster.SpanAttr(span, "ok", ok ? "1" : "0");
    cluster.EndSpan(span);
    user_cb(ok);
  };
  Cluster::SpanScope scope(cluster, job->span);
  CreateFile(cluster, path, [this, &cluster, job](bool ok, const Value&) {
    if (!ok) {
      job->cb(false);
      return;
    }
    WriteChunks(cluster, job);
  });
}

void FsClient::WriteChunks(Cluster& cluster, std::shared_ptr<WriteJob> job) {
  if (job->next_offset >= job->data.size()) {
    job->cb(true);
    return;
  }
  AddChunk(cluster, job->path, [this, &cluster, job](bool ok, const Value& payload) {
    if (!ok && IsOverloadedPayload(payload)) {
      // Shed by admission control: retryable-with-delay, NOT a transient failure — it
      // must not ride the escalation ladder (fan-out/abandon would only add load to a
      // server that just asked us to back off).
      RetryWriteOverloaded(cluster, job, OverloadRetryAfterMs(payload));
      return;
    }
    if (!ok || !payload.is_list() || payload.as_list().size() != 2) {
      // addchunk can fail transiently (NameNode timeout, safe mode): back off and retry.
      RetryWrite(cluster, job);
      return;
    }
    int64_t chunk_id = payload.as_list()[0].as_int();
    ValueList dns = payload.as_list()[1].as_list();
    if (dns.empty()) {
      RetryWrite(cluster, job);
      return;
    }
    size_t len = std::min(options_.chunk_size, job->data.size() - job->next_offset);
    // One payload Value per chunk: both attempts and every replica share its buffer.
    Value piece(job->data.substr(job->next_offset, len));
    int64_t checksum = ChunkChecksum(piece.as_string());

    auto advance = [this, &cluster, job, len] {
      job->next_offset += len;
      job->round = 0;
      WriteChunks(cluster, job);
    };

    // Attempt 1: replication pipeline through dns; the last replica acks.
    int64_t ack_req = next_req_++;
    pending_acks_[ack_req] = advance;
    ValueList pipeline(dns.begin() + 1, dns.end());
    const std::string& first = dns[0].as_string();
    cluster.Send(address(), first, kDnWrite,
                 Tuple{Value(first), Value(chunk_id), piece, Value(checksum),
                       Value(std::move(pipeline)), Value(address()), Value(ack_req)});
    cluster.ScheduleAfter(
        options_.write_ack_timeout_ms,
        [this, &cluster, job, chunk_id, dns, piece, checksum, advance, ack_req] {
          if (pending_acks_.erase(ack_req) == 0) {
            return;  // pipeline acked in time
          }
          // Attempt 2: a replica mid-pipeline died and swallowed the chain. Write each
          // replica individually; the first ack completes the chunk (the NameNode's
          // re-replication heals any copy that never landed).
          ClientCounter("fs.client.write_fanout").Add();
          int64_t fan_req = next_req_++;
          pending_acks_[fan_req] = advance;
          for (const Value& d : dns) {
            const std::string& dn = d.as_string();
            cluster.Send(address(), dn, kDnWrite,
                         Tuple{Value(dn), Value(chunk_id), piece, Value(checksum),
                               Value(ValueList{}), Value(address()), Value(fan_req)});
          }
          cluster.ScheduleAfter(options_.write_ack_timeout_ms,
                                [this, &cluster, job, chunk_id, fan_req] {
            if (pending_acks_.erase(fan_req) == 0) {
              return;  // some replica acked
            }
            // No replica is reachable: give the allocated id back (otherwise the file
            // keeps a chunk that was never written) and retry with a fresh pipeline.
            AbandonAndRetry(cluster, job, chunk_id);
          });
        });
  });
}

void FsClient::RetryWrite(Cluster& cluster, std::shared_ptr<WriteJob> job) {
  ++job->round;
  ClientCounter("fs.client.write_retry_round").Add();
  if (job->round >= options_.write_max_rounds) {
    job->cb(false);
    return;
  }
  // Re-parent the backoff wakeup to the op span: the retry is part of the op, not of
  // whatever response context triggered it.
  Cluster::SpanScope scope(cluster, job->span);
  cluster.ScheduleAfter(Backoff(cluster, job->round),
                        [this, &cluster, job] { WriteChunks(cluster, job); });
}

void FsClient::RetryWriteOverloaded(Cluster& cluster, std::shared_ptr<WriteJob> job,
                                    double retry_after_ms) {
  ++job->overload_round;
  ClientCounter("fs.client.write_overload_retry").Add();
  int max_rounds = options_.overload_max_rounds > 0 ? options_.overload_max_rounds
                                                    : options_.write_max_rounds;
  if (job->overload_round >= max_rounds || !TrySpendRetryToken()) {
    ClientCounter("fs.client.write_overload_give_up").Add();
    job->cb(false);
    return;
  }
  double delay = Backoff(cluster, job->overload_round);
  if (options_.honor_retry_after) {
    delay = std::max(delay, retry_after_ms);
  }
  Cluster::SpanScope scope(cluster, job->span);
  cluster.ScheduleAfter(delay, [this, &cluster, job] { WriteChunks(cluster, job); });
}

void FsClient::AbandonAndRetry(Cluster& cluster, std::shared_ptr<WriteJob> job,
                               int64_t chunk_id) {
  ClientCounter("fs.client.chunk_abandon").Add();
  // Abandon is idempotent on the NameNode; retry the write whether or not it succeeded
  // (on a timeout the chunk stays attached, but a re-read would still see its bytes once
  // some replica write lands — the retry ladder bounds the damage).
  Request(cluster, kCmdAbandon, job->path, Value(chunk_id),
          [this, &cluster, job](bool, const Value&) { RetryWrite(cluster, job); });
}

void FsClient::ReadFile(Cluster& cluster, const std::string& path, DataCb cb) {
  auto job = std::make_shared<ReadJob>();
  job->path = path;
  job->span = cluster.StartSpan("fs.read", address());
  cluster.SpanAttr(job->span, "path", path);
  double start_ms = cluster.now();
  job->cb = [&cluster, span = job->span, start_ms, user_cb = std::move(cb)](
                bool ok, const std::string& data) {
    ClientCounter(ok ? "fs.client.read_ok" : "fs.client.read_fail").Add();
    MetricsRegistry::Global().histogram("fs.client.read_ms").Observe(cluster.now() -
                                                                     start_ms);
    cluster.SpanAttr(span, "ok", ok ? "1" : "0");
    cluster.EndSpan(span);
    user_cb(ok, data);
  };
  Cluster::SpanScope scope(cluster, job->span);
  Chunks(cluster, path, [this, &cluster, job](bool ok, const Value& payload) {
    if (!ok || !payload.is_list()) {
      job->cb(false, "");
      return;
    }
    job->chunk_ids = payload.as_list();
    ReadChunks(cluster, job);
  });
}

void FsClient::ReadChunks(Cluster& cluster, std::shared_ptr<ReadJob> job) {
  if (job->next_chunk >= job->chunk_ids.size()) {
    job->cb(true, job->assembled);
    return;
  }
  int64_t chunk_id = job->chunk_ids[job->next_chunk].as_int();
  Locations(cluster, chunk_id, [this, &cluster, job, chunk_id](bool ok, const Value& locs) {
    if (!ok || !locs.is_list() || locs.as_list().empty()) {
      // No locations right now (NameNode in safe mode, every replica quarantined
      // mid-heal, or the request timed out): back off and re-fetch.
      RetryRead(cluster, job);
      return;
    }
    TryRead(cluster, job, chunk_id, locs.as_list(), 0);
  });
}

void FsClient::TryRead(Cluster& cluster, std::shared_ptr<ReadJob> job, int64_t chunk_id,
                       ValueList locs, size_t index) {
  if (index >= locs.size()) {
    RetryRead(cluster, job);  // every replica in this round failed
    return;
  }
  const std::string dn = locs[index].as_string();
  int64_t read_req = next_req_++;
  pending_reads_[read_req] = [this, &cluster, job, chunk_id, locs, index](
                                 bool ok, const std::string& data, int64_t checksum) {
    if (!ok || ChunkChecksum(data) != checksum) {
      // Replica missing, quarantined, or the payload fails its own checksum: next replica.
      ClientCounter(ok ? "fs.client.read_checksum_reject" : "fs.client.read_replica_miss")
          .Add();
      TryRead(cluster, job, chunk_id, locs, index + 1);
      return;
    }
    job->assembled += data;
    ++job->next_chunk;
    job->round = 0;
    ReadChunks(cluster, job);
  };
  cluster.Send(address(), dn, kDnRead,
               Tuple{Value(dn), Value(chunk_id), Value(address()), Value(read_req)});
  cluster.ScheduleAfter(options_.dn_read_timeout_ms,
                        [this, &cluster, job, chunk_id, locs, index, read_req] {
    if (pending_reads_.erase(read_req) == 0) {
      return;  // answered in time
    }
    ClientCounter("fs.client.read_replica_timeout").Add();
    TryRead(cluster, job, chunk_id, locs, index + 1);
  });
}

void FsClient::RetryRead(Cluster& cluster, std::shared_ptr<ReadJob> job) {
  ++job->round;
  ClientCounter("fs.client.read_retry_round").Add();
  if (job->round >= options_.read_max_rounds) {
    job->cb(false, "");
    return;
  }
  Cluster::SpanScope scope(cluster, job->span);
  cluster.ScheduleAfter(Backoff(cluster, job->round),
                        [this, &cluster, job] { ReadChunks(cluster, job); });
}

void FsClient::OnMessage(const Message& msg, Cluster& cluster) {
  if (msg.table == kNsResponse) {
    // (Client, ReqId, Ok, Payload)
    int64_t req = msg.tuple[1].as_int();
    auto it = pending_.find(req);
    if (it == pending_.end()) {
      return;  // duplicate/late response (possible during failover)
    }
    if (fed_cache_ && !msg.tuple[2].Truthy()) {
      const Value& payload = msg.tuple[3];
      if (IsStaleEpochPayload(payload)) {
        // Routed to a group that does not own the partition: apply the carried map and
        // re-dispatch immediately under the fresh routing.
        ClientCounter("fs.client.fed_stale_epoch").Add();
        fed_cache_->ApplyStalePayload(payload);
        if (it->second.attempts <= options_.max_retries) {
          Dispatch(cluster, req);
          return;
        }
      } else if (IsOverloadedPayload(payload) && options_.honor_retry_after &&
                 it->second.attempts <= options_.max_retries) {
        // Partition frozen mid-migration (or a shed intake): retry after the server's
        // hint. The attempt guard mirrors ArmTimeout's — whichever fires first wins.
        ClientCounter("fs.client.fed_frozen_retry").Add();
        int attempt = it->second.attempts;
        double delay = std::max(OverloadRetryAfterMs(payload), 1.0);
        cluster.ScheduleAfter(delay, [this, &cluster, req, attempt] {
          auto it2 = pending_.find(req);
          if (it2 == pending_.end() || it2->second.attempts != attempt) {
            return;
          }
          Dispatch(cluster, req);
        });
        return;
      }
    }
    ResponseCb cb = std::move(it->second.cb);
    preferred_target_ = it->second.target_index;  // this target answered: stick to it
    MetricsRegistry::Global()
        .histogram("fs.client.ns_ms")
        .Observe(cluster.now() - it->second.sent_ms);
    cluster.EndSpan(it->second.span);
    pending_.erase(it);
    if (msg.tuple[2].Truthy()) {
      CreditSuccess();
    }
    cb(msg.tuple[2].Truthy(), msg.tuple[3]);
    return;
  }
  if (msg.table == kDnWriteAck) {
    // (Client, ReqId, ChunkId)
    int64_t req = msg.tuple[1].as_int();
    auto it = pending_acks_.find(req);
    if (it == pending_acks_.end()) {
      return;
    }
    auto cb = std::move(it->second);
    pending_acks_.erase(it);
    cb();
    return;
  }
  if (msg.table == kDnReadData) {
    // (Client, ReqId, Ok, Data, Checksum)
    int64_t req = msg.tuple[1].as_int();
    auto it = pending_reads_.find(req);
    if (it == pending_reads_.end()) {
      return;
    }
    auto cb = std::move(it->second);
    pending_reads_.erase(it);
    cb(msg.tuple[2].Truthy(), msg.tuple[3].as_string(), msg.tuple[4].as_int());
    return;
  }
  BOOM_LOG(Warning) << "FsClient " << address() << ": unknown message " << msg.table;
}

}  // namespace boom
