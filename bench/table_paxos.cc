// T3 — Cost of NameNode replication: metadata-op latency and message overhead with a single
// unreplicated NameNode vs a 3-replica Paxos group (the paper's availability-overhead
// numbers).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/boomfs/boomfs.h"
#include "src/boomfs/ha.h"

namespace boom {
namespace {

struct RunStats {
  std::vector<double> latencies;
  double msgs_per_op = 0;
  int failed = 0;
};

constexpr int kOps = 150;

RunStats RunSingle() {
  Cluster cluster(4040);
  FsSetupOptions opts;
  opts.kind = FsKind::kBoomFs;
  opts.num_datanodes = 3;
  FsHandles handles = SetupFs(cluster, opts);
  cluster.RunUntil(1500);

  RunStats stats;
  uint64_t msgs_before = cluster.net_stats().messages;
  SyncFs fs(cluster, handles.client);
  for (int i = 0; i < kOps; ++i) {
    double start = cluster.now();
    if (fs.Mkdir("/lat" + std::to_string(i))) {
      stats.latencies.push_back(cluster.now() - start);
    } else {
      ++stats.failed;
    }
  }
  stats.msgs_per_op =
      static_cast<double>(cluster.net_stats().messages - msgs_before) / kOps;
  return stats;
}

RunStats RunReplicated(int replicas) {
  Cluster cluster(4040);
  HaFsOptions opts;
  opts.num_replicas = replicas;
  opts.num_datanodes = 3;
  HaFsHandles handles = SetupHaFs(cluster, opts);
  cluster.RunUntil(3000);

  RunStats stats;
  uint64_t msgs_before = cluster.net_stats().messages;
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  for (int i = 0; i < kOps; ++i) {
    double start = cluster.now();
    if (fs.Mkdir("/lat" + std::to_string(i))) {
      stats.latencies.push_back(cluster.now() - start);
    } else {
      ++stats.failed;
    }
  }
  stats.msgs_per_op =
      static_cast<double>(cluster.net_stats().messages - msgs_before) / kOps;
  return stats;
}

void Row(const char* label, const RunStats& stats) {
  Summary s = Summarize(stats.latencies);
  std::printf("  %-24s ok=%-4zu fail=%-3d p50=%-7.1f p90=%-7.1f p99=%-7.1f msgs/op=%.1f\n",
              label, s.n, stats.failed, s.p50, s.p90, s.p99, stats.msgs_per_op);
}

}  // namespace
}  // namespace boom

int main() {
  using namespace boom;
  PrintHeader("T3", "replication overhead: unreplicated vs Paxos-replicated NameNode");
  std::printf("%d sequential mkdir ops, virtual-time latency in ms:\n\n", kOps);

  RunStats single = RunSingle();
  RunStats triple = RunReplicated(3);
  RunStats quint = RunReplicated(5);

  std::printf("  %-24s %-8s %-8s %-8s %-8s %-8s\n", "configuration", "", "", "", "", "");
  Row("1 NameNode (no Paxos)", single);
  Row("3 replicas (Paxos)", triple);
  Row("5 replicas (Paxos)", quint);

  double overhead =
      Percentile(triple.latencies, 50) / std::max(1e-9, Percentile(single.latencies, 50));
  std::printf("\nmedian-latency multiple of 3-replica Paxos vs single NameNode: %.1fx\n",
              overhead);
  std::printf(
      "\nShape check vs paper: replication costs a constant factor per metadata op (the\n"
      "Paxos accept round trip, started the instant a command arrives) and message count\n"
      "grows with the replica count; throughput-insensitive workloads tolerate it, which is\n"
      "the paper's argument for hot-standby availability at modest cost.\n");
  return 0;
}
