// FsClient: asynchronous file-system client. Works against either NameNode implementation
// (BOOM-FS Overlog or the HDFS baseline) since both speak the same protocol.
//
// Primitive ops map 1:1 onto namespace requests; WriteFile/ReadFile are composite: they
// drive the addchunk -> DataNode-pipeline -> ack, and chunks -> locations -> dn_read chains.
//
// Robustness: namespace requests always carry a timeout (a dead NameNode surfaces as
// cb(false) instead of a hang). Reads verify the end-to-end checksum and rotate through
// every known replica, re-fetching locations with bounded exponential backoff when a round
// is exhausted. Writes recover a mid-pipeline DataNode crash: the pipeline attempt is
// followed by a fan-out of individual replica writes (one ack suffices; re-replication
// heals the rest), and only then is the allocated chunk abandoned and re-requested.

#ifndef SRC_BOOMFS_CLIENT_H_
#define SRC_BOOMFS_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/cluster.h"

namespace boom {

struct FsClientOptions {
  std::string namenode;
  size_t chunk_size = 64 * 1024;   // bytes per chunk on WriteFile
  double request_timeout_ms = 0;   // 0 = default (1500ms); requests never wait forever
  // Failover: on timeout the request is retried (same request id) against the next target in
  // {namenode} U fallbacks, round-robin, up to max_retries times.
  std::vector<std::string> fallbacks;
  int max_retries = 0;
  // Table requests are sent as; HA mode uses "ha_request" to route through Paxos.
  std::string request_table = "ns_request";
  // Data-plane retry policy. A chunk read that gets no (valid) reply within
  // dn_read_timeout_ms fails over to the next replica; when every location in a round is
  // exhausted the client re-fetches locations after a backoff, up to read_max_rounds rounds.
  double dn_read_timeout_ms = 400;
  int read_max_rounds = 4;
  // A pipeline write that gets no ack within write_ack_timeout_ms falls back to writing
  // each replica individually; if that also times out the chunk is abandoned and a fresh
  // pipeline requested, up to write_max_rounds rounds.
  double write_ack_timeout_ms = 600;
  int write_max_rounds = 4;
  // Exponential backoff between retry rounds: min(retry_base_ms * 2^(round-1),
  // retry_max_ms) plus up to 50% seeded jitter (drawn from the cluster Rng, so retries in
  // a chaos run stay reproducible and fault-free runs draw nothing).
  double retry_base_ms = 100;
  double retry_max_ms = 2000;
  // Retry budget: a token bucket capping how many retries the client may issue in excess
  // of its successes. Starts full at retry_budget_cap tokens; each budgeted retry spends
  // one, each success credits retry_budget_refill back (clamped to the cap). 0 disables
  // the budget (legacy behavior: every retry ladder runs to its round limit). Under a
  // metastable overload the budget is what breaks the retry amplification loop.
  double retry_budget_cap = 0;
  double retry_budget_refill = 0.1;
  // When the NameNode (or its admission gateway) sheds a request with a retryable
  // ["overloaded", RetryAfterMs] payload, wait at least RetryAfterMs before retrying.
  bool honor_retry_after = true;
  // Full-jitter backoff (Uniform(0, base)) instead of the legacy base + Uniform(0, base/2).
  // Full jitter decorrelates a thundering herd of shed clients; both draw exactly once
  // from the cluster Rng per backoff, so enabling it does not perturb unrelated schedules.
  bool full_jitter = false;
  // Retry rounds allowed for shed ("overloaded") writes, counted separately from the
  // transient-failure ladder. 0 = use write_max_rounds.
  int overload_max_rounds = 0;
};

// Client-side cache of the federated partition map (src/boomfs/federation.h). One cache is
// shared by every client of a deployment: any client's stale-epoch bounce refreshes routing
// for all of them. Rows only move forward — a row is applied iff its epoch is strictly
// newer than the cached row's — so reordered or replayed bounces cannot roll routing back.
struct FedGroupEntry {
  int64_t epoch = 0;
  std::string leader;
  std::vector<std::string> members;
};

struct FedMapCache {
  int64_t global_epoch = 0;
  std::map<int64_t, FedGroupEntry> rows;  // pid -> owning group

  // Applies one map row; returns true iff it was newer than the cached row.
  bool ApplyRow(int64_t pid, int64_t epoch, const std::string& leader,
                std::vector<std::string> members);
  // Applies a ["stale_epoch", GlobalEpoch, rows] payload; returns rows applied.
  int ApplyStalePayload(const Value& payload);
};

class FsClient : public Actor {
 public:
  using ResponseCb = std::function<void(bool ok, const Value& payload)>;
  using DataCb = std::function<void(bool ok, const std::string& data)>;

  FsClient(std::string address, FsClientOptions options)
      : Actor(std::move(address)),
        options_(std::move(options)),
        retry_tokens_(options_.retry_budget_cap) {}

  void OnMessage(const Message& msg, Cluster& cluster) override;

  void set_namenode(const std::string& nn) { options_.namenode = nn; }
  const std::string& namenode() const { return options_.namenode; }

  // Federated routing (src/boomfs/federation.h): requests route by
  // RoutingPid(NsRoutingKey(cmd, path), num_partitions) through the shared map cache —
  // first attempt to the cached leader, later attempts rotating through the group members.
  // Requests carry (Pid, CachedEpoch) as two extra columns (the fed_request shape); a
  // stale-epoch bounce applies the carried map and re-dispatches, and an
  // ["overloaded", RetryAfterMs] answer (a partition frozen mid-migration) retries after
  // the hint.
  void SetFedRouting(std::shared_ptr<FedMapCache> cache, int num_partitions) {
    fed_cache_ = std::move(cache);
    fed_num_partitions_ = num_partitions;
  }
  const std::shared_ptr<FedMapCache>& fed_cache() const { return fed_cache_; }

  // --- primitive namespace operations ---
  // Mkdir under federated routing is dual-homed: the canonical entry is made at the
  // partition of the directory's parent (where the directory is listed), and a
  // child-serving copy — plus any missing ancestor scaffolding — at the partition of the
  // directory's own path (where its entries live). Parent-directory existence is thereby
  // partition-local: no every-partition fan-out. Both legs tolerate already-exists races.
  void Mkdir(Cluster& cluster, const std::string& path, ResponseCb cb);
  void CreateFile(Cluster& cluster, const std::string& path, ResponseCb cb);
  void Exists(Cluster& cluster, const std::string& path, ResponseCb cb);
  void Ls(Cluster& cluster, const std::string& path, ResponseCb cb);
  void Rm(Cluster& cluster, const std::string& path, ResponseCb cb);
  // Rename routes same-partition moves as one replicated command; under federated routing
  // a source and destination on different partitions run the client-driven two-phase
  // cross-partition protocol (xr_intent -> create+xr_addchunk -> xr_commit, with
  // xr_drop/xr_abort unwinding a failed attempt). A cb(false, "timeout") outcome leaves
  // the namespace state uncertain; any other failure is state-preserving.
  void Rename(Cluster& cluster, const std::string& path, const std::string& new_path,
              ResponseCb cb);
  void AddChunk(Cluster& cluster, const std::string& path, ResponseCb cb);
  void Chunks(Cluster& cluster, const std::string& path, ResponseCb cb);
  void Locations(Cluster& cluster, int64_t chunk_id, ResponseCb cb);
  // Creates every prefix of `path` in order (each a dual-homed Mkdir); cb(true) iff every
  // prefix exists afterwards.
  void MkdirP(Cluster& cluster, const std::string& path, ResponseCb cb);
  // Escape hatch for tooling (migration requests to the partition map): one request with
  // an explicit target and request table (empty table = the client's configured table).
  // Bypasses routing entirely; a nonempty table also skips the fed_request column append.
  void RawOp(Cluster& cluster, const std::string& cmd, const std::string& path, Value arg,
             ResponseCb cb, const std::string& target, const std::string& table);

  // --- composite data operations ---
  // Creates `path` and writes `data` as a sequence of chunks through DataNode pipelines.
  void WriteFile(Cluster& cluster, const std::string& path, std::string data,
                 std::function<void(bool ok)> cb);
  // Reads all chunks of `path` and returns the concatenated bytes.
  void ReadFile(Cluster& cluster, const std::string& path, DataCb cb);

  // Number of namespace requests issued (for throughput accounting).
  uint64_t requests_sent() const { return requests_sent_; }

  // --- retry budget (shared with workloads that drive their own retries) ---
  // Spends one token if the budget allows another retry (always true when disabled).
  bool TrySpendRetryToken();
  // Credits the budget for a success (no-op when disabled).
  void CreditSuccess();
  double retry_tokens() const { return retry_tokens_; }

 private:
  void Request(Cluster& cluster, const std::string& cmd, const std::string& path, Value arg,
               ResponseCb cb, std::string forced_target = "", std::string table = "",
               std::string route_key = "");
  // One dual-homed Mkdir leg: mkdir routed by `route_key` ("" = canonical), falling back
  // to an Exists probe on failure so already-exists races report success.
  void MkdirLeg(Cluster& cluster, const std::string& path, const std::string& route_key,
                ResponseCb cb);
  // Sequential ancestor scaffolding at one partition: mkdir every prefix of `path`,
  // all routed by `route_key`.
  void MkdirScaffold(Cluster& cluster, std::shared_ptr<std::vector<std::string>> prefixes,
                     size_t index, std::string route_key, std::shared_ptr<ResponseCb> done);
  void MkdirPStep(Cluster& cluster, std::shared_ptr<std::vector<std::string>> prefixes,
                  size_t index, std::shared_ptr<ResponseCb> done);
  // Cross-partition rename chain (see Rename).
  void FedRename(Cluster& cluster, const std::string& path, const std::string& new_path,
                 ResponseCb cb);
  void FedRenameAdopt(Cluster& cluster, std::shared_ptr<struct FedRenameJob> job);
  void FedRenameUnwind(Cluster& cluster, std::shared_ptr<struct FedRenameJob> job,
                       const Value& failure);
  void WriteChunks(Cluster& cluster, std::shared_ptr<struct WriteJob> job);
  // Retry ladder steps for one chunk write / read (see FsClientOptions comments).
  void RetryWrite(Cluster& cluster, std::shared_ptr<struct WriteJob> job);
  // Shed-write path: `kOverloaded` is retryable-with-delay, not an escalation trigger —
  // the retry honors the server's retry-after hint and draws on the retry budget.
  void RetryWriteOverloaded(Cluster& cluster, std::shared_ptr<struct WriteJob> job,
                            double retry_after_ms);
  void AbandonAndRetry(Cluster& cluster, std::shared_ptr<struct WriteJob> job,
                       int64_t chunk_id);
  void ReadChunks(Cluster& cluster, std::shared_ptr<struct ReadJob> job);
  void TryRead(Cluster& cluster, std::shared_ptr<struct ReadJob> job, int64_t chunk_id,
               ValueList locs, size_t index);
  void RetryRead(Cluster& cluster, std::shared_ptr<struct ReadJob> job);
  double Backoff(Cluster& cluster, int round) const;
  double EffectiveRequestTimeout() const {
    return options_.request_timeout_ms > 0 ? options_.request_timeout_ms : 1500;
  }

  struct PendingReq {
    std::string cmd;
    std::string path;
    Value arg;
    ResponseCb cb;
    int attempts = 0;
    size_t target_index = 0;   // into {namenode} U fallbacks
    std::string forced_target;  // when nonempty, overrides routing entirely
    std::string table;      // per-request table override ("" = options_.request_table)
    std::string route_key;  // routing-key override ("" = NsRoutingKey(cmd, path))
    SpanContext span;          // "ns:<cmd>" span covering request through response/timeout
    double sent_ms = 0;
  };
  void Dispatch(Cluster& cluster, int64_t req);
  void ArmTimeout(Cluster& cluster, int64_t req, int attempt);

  FsClientOptions options_;
  std::shared_ptr<FedMapCache> fed_cache_;  // nonnull = federated routing active
  int fed_num_partitions_ = 0;
  // Sticky failover: index into {namenode} U fallbacks that last answered; new requests
  // start there instead of re-probing a dead primary.
  size_t preferred_target_ = 0;
  int64_t next_req_ = 1;
  std::map<int64_t, PendingReq> pending_;
  std::map<int64_t, std::function<void(bool, const std::string&, int64_t)>> pending_reads_;
  std::map<int64_t, std::function<void()>> pending_acks_;
  uint64_t requests_sent_ = 0;
  double retry_tokens_ = 0;  // remaining retry budget (meaningful iff cap > 0)
};

}  // namespace boom

#endif  // SRC_BOOMFS_CLIENT_H_
