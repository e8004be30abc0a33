// HdfsNameNode: an imperative C++ NameNode implementing the same namespace protocol as the
// BOOM-FS Overlog NameNode. This is the reproduction's stand-in for stock HDFS — the
// comparator for the paper's code-size and performance experiments.

#ifndef SRC_HDFS_BASELINE_NAMENODE_H_
#define SRC_HDFS_BASELINE_NAMENODE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sim/cluster.h"

namespace boom {

struct HdfsNameNodeOptions {
  int replication_factor = 3;
  double heartbeat_timeout_ms = 2000;
  double failure_check_period_ms = 500;
  bool with_failure_detector = true;
  // Safe mode (same policy as the Overlog NameNode): after a (re)start, chunk locations are
  // soft state rebuilt from reports, so location serving and re-replication are deferred
  // until safe_mode_report_frac_pct percent of owned chunks have a reported location, the
  // namespace has stayed chunk-less for safe_mode_grace_ms, or safe_mode_timeout_ms passes.
  bool with_safe_mode = true;
  double safe_mode_check_period_ms = 200;
  int safe_mode_report_frac_pct = 60;
  double safe_mode_timeout_ms = 5000;
  double safe_mode_grace_ms = 400;
  // Rename support ("rename" command, files only — same semantics as the Overlog
  // nn_rename module). Off by default to match the Overlog twin's default module set.
  bool with_rename = false;
  // Tombstone GC: expire rm/abandon tombstones after gc_tombstone_ms so sustained churn
  // leaves bounded state (the Overlog twin's nn_gc module).
  bool with_tombstone_gc = false;
  double gc_check_period_ms = 1000;
  double gc_tombstone_ms = 10000;
};

class HdfsNameNode : public Actor {
 public:
  HdfsNameNode(std::string address, HdfsNameNodeOptions options)
      : Actor(std::move(address)), options_(std::move(options)) {
    // The root directory.
    inodes_[0] = Inode{0, -1, "", true};
  }

  void OnStart(Cluster& cluster) override;
  void OnMessage(const Message& msg, Cluster& cluster) override;

  // Introspection for tests.
  size_t file_count() const { return inodes_.size(); }
  size_t live_datanodes() const { return datanodes_.size(); }
  bool in_safe_mode() const { return safe_mode_; }
  size_t dead_chunk_count() const { return dead_chunks_.size(); }
  std::vector<std::string> ChunkLocations(int64_t chunk_id) const;

 private:
  struct Inode {
    int64_t id;
    int64_t parent;
    std::string name;
    bool is_dir;
  };

  // Path resolution: walk components from the root. Returns nullptr when missing.
  const Inode* Resolve(const std::string& path) const;
  void ArmFailureCheck(Cluster& cluster);
  void ArmSafeModeCheck(Cluster& cluster);
  void ArmGcCheck(Cluster& cluster);
  void CheckSafeMode(Cluster& cluster);
  void Respond(Cluster& cluster, const std::string& client, int64_t req, bool ok,
               Value payload);
  void HandleRequest(const Message& msg, Cluster& cluster);
  void CheckFailures(Cluster& cluster);
  std::vector<std::string> PickDataNodes(int n) const;
  int64_t MintId() { return next_id_++; }

  HdfsNameNodeOptions options_;
  std::map<int64_t, Inode> inodes_;
  // (parent id, name) -> child id. Doubles as the per-directory listing index.
  std::map<std::pair<int64_t, std::string>, int64_t> children_;
  std::map<int64_t, std::vector<int64_t>> file_chunks_;   // file -> ordered chunks
  std::map<int64_t, int64_t> chunk_file_;                 // chunk -> file
  std::map<int64_t, std::set<std::string>> chunk_locs_;   // chunk -> datanodes
  std::map<int64_t, double> dead_chunks_;  // rm tombstones (gates reports) -> born time
  std::map<std::string, double> datanodes_;               // datanode -> last heartbeat
  int64_t next_id_ = 1;
  uint64_t start_epoch_ = 0;
  bool safe_mode_ = false;
  double safe_mode_since_ = 0;  // virtual time this safe-mode epoch began
};

}  // namespace boom

#endif  // SRC_HDFS_BASELINE_NAMENODE_H_
