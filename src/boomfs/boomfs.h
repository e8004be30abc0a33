// Cluster assembly helpers: stand up a file system (BOOM-FS or the HDFS baseline) with N
// DataNodes plus a client, and a synchronous facade that drives the simulation until each
// operation completes (used by tests, examples, and benchmarks).

#ifndef SRC_BOOMFS_BOOMFS_H_
#define SRC_BOOMFS_BOOMFS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/boomfs/client.h"
#include "src/boomfs/datanode.h"
#include "src/boomfs/nn_program.h"
#include "src/hdfs_baseline/namenode.h"
#include "src/sim/cluster.h"

namespace boom {

enum class FsKind {
  kBoomFs,       // Overlog NameNode
  kHdfsBaseline  // imperative NameNode
};

const char* FsKindName(FsKind kind);

struct FsSetupOptions {
  FsKind kind = FsKind::kBoomFs;
  std::string namenode = "nn";
  int num_datanodes = 3;
  int replication_factor = 3;
  double heartbeat_period_ms = 500;
  double heartbeat_timeout_ms = 2000;
  bool with_failure_detector = true;
  size_t chunk_size = 64 * 1024;
  // DataNode data-plane knobs (see DataNodeOptions).
  int full_report_every = 4;
  bool verify_reads = true;
  // NameNode safe mode (see NnProgramOptions / HdfsNameNodeOptions).
  bool with_safe_mode = true;
  double safe_mode_check_period_ms = 200;
  int safe_mode_report_frac_pct = 60;
  double safe_mode_timeout_ms = 5000;
  double safe_mode_grace_ms = 400;
  // Rename support and tombstone GC (see NnProgramOptions / HdfsNameNodeOptions). Both
  // kinds honor these, keeping the twins behaviorally matched.
  bool with_rename = false;
  bool with_gc = false;
  double gc_check_period_ms = 1000;
  double gc_tombstone_ms = 10000;
  // Test hook: install this NameNode program instead of the generated one (used by the
  // refactor-equivalence tests to pin a frozen pre-refactor program text).
  std::optional<Program> nn_program_override;
};

struct FsHandles {
  std::string namenode;
  std::vector<std::string> datanodes;
  FsClient* client = nullptr;  // owned by the cluster
};

// Adds a NameNode, DataNodes ("dn0".."dnN-1" prefixed with the NN name), and one client
// ("client") to the cluster.
FsHandles SetupFs(Cluster& cluster, const FsSetupOptions& options);

// Installs only the NameNode of the given kind at `address` (DataNodes/clients separate).
void AddNameNode(Cluster& cluster, FsKind kind, const std::string& address,
                 const FsSetupOptions& options);

// Admission-gateway deployment: a separate Overlog node running BoomFsGatewayProgram in
// front of the NameNode. Clients send ns_ingress to the gateway (request_table =
// "ns_ingress", namenode = the gateway address); admitted requests are forwarded as
// ns_request to the NameNode, which answers the client directly; shed requests get a
// retryable ["overloaded", RetryAfterMs] response straight from the gateway.
struct GatewaySetupOptions {
  std::string address = "gw";
  GatewayOptions gateway;
  // Period of the svc_load probe feeding the NameNode's measured service backlog into the
  // gateway's brownout rules. 0 disables the probe.
  double load_probe_period_ms = 100;
  // Test hook (chaos bug variants): install this program instead of the generated one.
  std::optional<Program> program_override;
};

// Adds the gateway node, wires shed/brownout counters (fs.gw.shed, slo.tenant<i>.shed,
// fs.gw.brownout_enter/exit), and starts the svc_load probe.
void AddAdmissionGateway(Cluster& cluster, const GatewaySetupOptions& options);

// Synchronous facade over FsClient: each call drives the simulation until the response
// arrives (or `timeout_ms` of virtual time passes).
class SyncFs {
 public:
  SyncFs(Cluster& cluster, FsClient* client, double timeout_ms = 60000)
      : cluster_(cluster), client_(client), timeout_ms_(timeout_ms) {}

  bool Mkdir(const std::string& path);
  bool CreateFile(const std::string& path);
  bool Exists(const std::string& path);
  // Returns true and fills `names` on success.
  bool Ls(const std::string& path, std::vector<std::string>* names);
  bool Rm(const std::string& path);
  bool Rename(const std::string& path, const std::string& new_path);
  bool WriteFile(const std::string& path, std::string data);
  bool ReadFile(const std::string& path, std::string* data);
  // Raw namespace op; returns ok and fills payload.
  bool Op(const std::string& cmd, const std::string& path, Value* payload);

  FsClient* client() { return client_; }

 private:
  // Runs the cluster until *done; returns false on timeout.
  bool Await(const bool* done);

  Cluster& cluster_;
  FsClient* client_;
  double timeout_ms_;
};

}  // namespace boom

#endif  // SRC_BOOMFS_BOOMFS_H_
