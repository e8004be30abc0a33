// Wire protocol shared by BOOM-FS and the HDFS baseline.
//
// The NameNode (either implementation) serves the namespace protocol; DataNodes and clients
// are protocol-agnostic about which NameNode implementation they talk to — this is what lets
// the evaluation mix {BOOM-MR, Hadoop-baseline} x {BOOM-FS, HDFS-baseline}.
//
// Namespace requests:  ns_request(NN, ReqId, Client, Cmd, Path, Arg)
//   Cmd in {"mkdir", "create", "exists", "ls", "rm", "addchunk", "chunks", "locations",
//   "abandon"}; Arg carries the chunk id for "locations"/"abandon", nil otherwise.
// Namespace responses: ns_response(Client, ReqId, Ok, Payload)
//   mkdir/create/rm/abandon: payload nil; exists: bool; ls: list of names; addchunk:
//   [ChunkId, [dn...]]; chunks: list of chunk ids; locations: list of datanode addresses.
//
// Data plane (client <-> DataNode, native). Every chunk transfer carries an end-to-end
// checksum over the payload (computed by the original writer and stored alongside the
// bytes), so corruption at rest or in transit is detected at store and at serve time:
//   dn_write(To, ChunkId, Data, Checksum, Pipeline, AckTo, ReqId) — verify + store +
//     forward along Pipeline; the final replica acks with
//     dn_write_ack(AckTo, ReqId, ChunkId) (skipped when AckTo="").
//   dn_read(To, ChunkId, Client, ReqId) -> dn_read_data(Client, ReqId, Ok, Data, Checksum)
//
// DataNode -> NameNode control plane:
//   dn_heartbeat(NN, Dn); dn_chunk_report(NN, Dn, ChunkId)
//   dn_corrupt(NN, Dn, ChunkId) — Dn quarantined a corrupt replica; retract its location
// NameNode -> DataNode:
//   replicate_cmd(Dn, ChunkId, DestDn); dn_delete(Dn, ChunkId) — drop a GC'd chunk

#ifndef SRC_BOOMFS_PROTOCOL_H_
#define SRC_BOOMFS_PROTOCOL_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "src/base/strings.h"
#include "src/overlog/value.h"

namespace boom {

// Namespace protocol.
inline constexpr char kNsRequest[] = "ns_request";
inline constexpr char kNsResponse[] = "ns_response";
// Admission gateway intake: same tuple shape as ns_request, addressed to the gateway node.
// Admitted requests are forwarded as ns_request to the real NameNode; shed requests get an
// ns_response whose payload is ["overloaded", RetryAfterMs] (see below).
inline constexpr char kNsIngress[] = "ns_ingress";
// Load signal fed into the gateway: svc_load(Gw, BacklogMs) — the NameNode's queued
// service backlog sampled via Cluster::ServiceBacklogMs.
inline constexpr char kSvcLoad[] = "svc_load";
// Federated intake (src/boomfs/federation.h): ns_request's shape plus the partition id the
// client routed by and the map epoch its cache held —
//   fed_request(NN, ReqId, Client, Cmd, Path, Arg, Pid, Epoch)
inline constexpr char kFedRequest[] = "fed_request";

// Commands.
inline constexpr char kCmdMkdir[] = "mkdir";
inline constexpr char kCmdCreate[] = "create";
inline constexpr char kCmdExists[] = "exists";
inline constexpr char kCmdLs[] = "ls";
inline constexpr char kCmdRm[] = "rm";
inline constexpr char kCmdAddChunk[] = "addchunk";
inline constexpr char kCmdChunks[] = "chunks";
inline constexpr char kCmdLocations[] = "locations";
// Detach + tombstone a chunk whose every replica write failed (client-side pipeline
// recovery gives up on the allocated id before re-requesting a fresh pipeline).
inline constexpr char kCmdAbandon[] = "abandon";
// Move a file: Path is the source, Arg the destination path (files only; directories keep
// their paths for the lifetime of the namespace).
inline constexpr char kCmdRename[] = "rename";

// Cross-partition rename (federated metadata plane, src/boomfs/federation.h): a
// client-driven two-phase protocol. xr_intent at the source partition validates the file,
// marks it moving, and returns [FileId, chunk ids]; the destination entry is made with an
// ordinary "create"; xr_addchunk adopts each already-allocated chunk id at the
// destination; xr_commit drops the source entry and leaves a tombstone (without chunk GC
// — the destination owns the bytes now). xr_abort releases a source intent and xr_drop
// removes a half-imported destination entry; both are idempotent unwind steps.
inline constexpr char kCmdXrIntent[] = "xr_intent";
inline constexpr char kCmdXrAddChunk[] = "xr_addchunk";
inline constexpr char kCmdXrCommit[] = "xr_commit";
inline constexpr char kCmdXrAbort[] = "xr_abort";
inline constexpr char kCmdXrDrop[] = "xr_drop";
// Partition seal (migration fence): `xr_seal` rides the group's replicated log with the
// partition id in Arg (Path unused). Once applied, every LATER plain namespace command
// for that partition is dropped at log replay — never applied, never acked — so a command
// stuck in a recovering ex-leader's proposer cannot resurface after the partition has
// migrated away (the client's retry lands at the new owner instead). Because the seal is
// itself log-ordered, the migration snapshot taken after it applies is provably complete:
// every acked command precedes the seal in the log. xr_unseal (idempotent) reopens the
// partition, e.g. at the destination group or when a migration aborts.
inline constexpr char kCmdXrSeal[] = "xr_seal";
inline constexpr char kCmdXrUnseal[] = "xr_unseal";
// xr_snapshot (Arg [Pid, NumPartitions, After]) rides the log after the seal and answers
// one page of the partition's entries; only the migration coordinator's rules send it.
//
// Partition migration request, addressed to the partition-map node:
//   ns_request(Map, ReqId, Client, "pm_migrate", "", [Pid, DestMembers]), answered with
//   ns_response(Client, ReqId, Ok, _) once the migration has completed or aborted.
inline constexpr char kCmdPmMigrate[] = "pm_migrate";

// Data plane.
inline constexpr char kDnWrite[] = "dn_write";
inline constexpr char kDnWriteAck[] = "dn_write_ack";
inline constexpr char kDnRead[] = "dn_read";
inline constexpr char kDnReadData[] = "dn_read_data";

// Control plane.
inline constexpr char kDnHeartbeat[] = "dn_heartbeat";
inline constexpr char kDnChunkReport[] = "dn_chunk_report";
inline constexpr char kDnCorrupt[] = "dn_corrupt";
inline constexpr char kReplicateCmd[] = "replicate_cmd";
inline constexpr char kDnDelete[] = "dn_delete";

// Chunk payload checksum, carried as a signed int in tuples. Each 32-byte block is read as
// four little-endian 8-byte words, fed one to each of four independent 64-bit lanes so the
// multiplies overlap; the 0-31 trailing bytes are folded in one at a time, round-robin over
// the lanes. Every step is h = (h ^ w) * P; h ^= h >> 32: a bijection of the lane for a
// fixed input and injective in the input for a fixed lane. The final combine is injective in
// each lane and mixes in the length, so a change confined to one word (in particular one
// flipped byte) always changes the checksum. Byte order is fixed, so a checksum computed by
// the writer verifies on any replica.
inline int64_t ChunkChecksum(std::string_view data) {
  constexpr uint64_t kBasis = 14695981039346656037ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  auto step = [](uint64_t h, uint64_t w) {
    h = (h ^ w) * kPrime;
    return h ^ (h >> 32);
  };
  auto load = [](const char* p) {
    uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    return w;
  };
  const char* p = data.data();
  const size_t n = data.size();
  uint64_t lane[4] = {kBasis, kBasis + 1, kBasis + 2, kBasis + 3};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = step(lane[0], load(p + i));
    lane[1] = step(lane[1], load(p + i + 8));
    lane[2] = step(lane[2], load(p + i + 16));
    lane[3] = step(lane[3], load(p + i + 24));
  }
  for (; i < n; ++i) {
    lane[i & 3] = step(lane[i & 3], static_cast<unsigned char>(p[i]));
  }
  uint64_t h = step(kBasis, n);
  for (uint64_t l : lane) {
    h = step(h, l);
  }
  return static_cast<int64_t>(h);
}

// Overload shedding. A shed request is answered with Ok=false and payload
// ["overloaded", RetryAfterMs]: retryable after the hint, never terminal. Distinguishable
// from every legacy failure payload (those are nil, bools, or lists of names/ids).
inline constexpr char kOverloadedError[] = "overloaded";

inline bool IsOverloadedPayload(const Value& payload) {
  return payload.is_list() && payload.as_list().size() == 2 &&
         payload.as_list()[0].is_string() &&
         payload.as_list()[0].as_string() == kOverloadedError;
}

// The retry-after hint carried by an overloaded payload (0 when absent/malformed).
inline double OverloadRetryAfterMs(const Value& payload) {
  if (!IsOverloadedPayload(payload) || !payload.as_list()[1].is_numeric()) {
    return 0;
  }
  return payload.as_list()[1].ToDouble();
}

// Federated routing. Every namespace command routes by one key: "ls" by the listed
// directory itself, everything else by the parent directory of the path. This is the
// contract that makes parent-directory existence a partition-local question — all entries
// of one directory (and the directory's child-serving copy, see FsClient::Mkdir) live on
// the partition of the directory's own path.
inline std::string NsRoutingKey(const std::string& cmd, const std::string& path) {
  if (cmd == kCmdLs) {
    return path.empty() ? "/" : path;
  }
  return path.empty() ? "/" : PathDirname(path);
}

inline int64_t RoutingPid(const std::string& key, int num_partitions) {
  if (num_partitions <= 0) {
    return 0;
  }
  return static_cast<int64_t>(Fnv1a64(key) % static_cast<uint64_t>(num_partitions));
}

// Stale-epoch bounce (federation). A request routed to a group that does not own the
// partition is answered with Ok=false and payload
//   ["stale_epoch", GlobalEpoch, [[Pid, Epoch, Leader, Members], ...]]
// carrying the replica's whole partition map, so one round trip refreshes the client's
// cache. Retryable after applying the map, never terminal.
inline constexpr char kStaleEpochError[] = "stale_epoch";

inline bool IsStaleEpochPayload(const Value& payload) {
  return payload.is_list() && payload.as_list().size() == 3 &&
         payload.as_list()[0].is_string() &&
         payload.as_list()[0].as_string() == kStaleEpochError &&
         payload.as_list()[1].is_numeric() && payload.as_list()[2].is_list();
}

}  // namespace boom

#endif  // SRC_BOOMFS_PROTOCOL_H_
