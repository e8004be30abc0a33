// Tests for the federated metadata plane (src/boomfs/federation.h): partition-map
// routing with stale-epoch recovery, namespace ops at 1, 2 and 4 groups, the routing key,
// per-group chunk-id disjointness, the cross-partition rename protocol, online partition
// rebalance, group-failover isolation, the federation chaos sweep, and the pinned
// program-text goldens.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/boomfs/boomfs.h"
#include "src/boomfs/federation.h"
#include "src/boomfs/protocol.h"
#include "src/chaos/explorer.h"
#include "src/workload/fs_load.h"

namespace boom {
namespace {

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(BOOM_GOLDEN_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The composed program texts are frozen byte-for-byte (regenerate with
// olglint --dump nn_federation|partition_map after an intentional change).
TEST(FederationGoldenTest, ProgramTextsPinned) {
  EXPECT_EQ(NnFederationProgram().ToString(), ReadGolden("nn_federation.olg"));
  EXPECT_EQ(PartitionMapProgram().ToString(), ReadGolden("partition_map.olg"));
}

// Reads one column of a table on a node into a set (empty when node/table missing).
std::set<int64_t> ReadIntColumn(Cluster& cluster, const std::string& node,
                                const std::string& table, size_t col) {
  std::set<int64_t> out;
  Engine* engine = cluster.engine(node);
  if (engine == nullptr) {
    return out;
  }
  const Table* t = engine->catalog().Find(table);
  if (t == nullptr) {
    return out;
  }
  t->ForEach([&out, col](const Tuple& row) { out.insert(row[col].as_int()); });
  return out;
}

std::set<std::string> ReadStringColumn(Cluster& cluster, const std::string& node,
                                       const std::string& table, size_t col) {
  std::set<std::string> out;
  Engine* engine = cluster.engine(node);
  if (engine == nullptr) {
    return out;
  }
  const Table* t = engine->catalog().Find(table);
  if (t == nullptr) {
    return out;
  }
  t->ForEach([&out, col](const Tuple& row) { out.insert(row[col].as_string()); });
  return out;
}

// Two working dirs whose partitions live in DIFFERENT groups (so renames between them
// exercise the cross-partition two-phase protocol across group boundaries).
std::pair<std::string, std::string> CrossGroupDirs(const FederatedFsHandles& handles) {
  for (int a = 0; a < 64; ++a) {
    int64_t pa = RoutingPid("/d" + std::to_string(a), handles.num_partitions);
    for (int b = a + 1; b < 64; ++b) {
      int64_t pb = RoutingPid("/d" + std::to_string(b), handles.num_partitions);
      if (handles.pid_group[static_cast<size_t>(pa)] !=
          handles.pid_group[static_cast<size_t>(pb)]) {
        return {"/d" + std::to_string(a), "/d" + std::to_string(b)};
      }
    }
  }
  ADD_FAILURE() << "no cross-group dir pair in /d0../d63";
  return {"/d0", "/d1"};
}

// Mkdir (dual-homed whenever a directory and its parent hash to different partitions),
// write, read back, ls and rm over six dirs, which must land on partitions owned by every
// group.
void ExpectOpsRouteAcrossGroups(Cluster& cluster, const FederatedFsHandles& handles) {
  SyncFs fs(cluster, handles.clients[0]);
  std::set<int> groups_hit;
  for (int d = 0; d < 6; ++d) {
    std::string dir = "/d" + std::to_string(d);
    ASSERT_TRUE(fs.Mkdir(dir)) << dir;
    int64_t pid = RoutingPid(dir, handles.num_partitions);
    groups_hit.insert(handles.pid_group[static_cast<size_t>(pid)]);
    std::string path = dir + "/f";
    ASSERT_TRUE(fs.WriteFile(path, "payload-" + dir));
  }
  EXPECT_EQ(groups_hit.size(), handles.groups.size())
      << "namespace did not span every group";
  for (int d = 0; d < 6; ++d) {
    std::string dir = "/d" + std::to_string(d);
    std::string data;
    ASSERT_TRUE(fs.ReadFile(dir + "/f", &data));
    EXPECT_EQ(data, "payload-" + dir);
    std::vector<std::string> names;
    ASSERT_TRUE(fs.Ls(dir, &names));
    EXPECT_EQ(names.size(), 1u);
  }
  ASSERT_TRUE(fs.Rm("/d0/f"));
  EXPECT_FALSE(fs.Exists("/d0/f"));
}

TEST(FederatedFsTest, BasicOpsRouteAcrossGroups) {
  Cluster cluster(4242);
  FederatedFsOptions opts;
  opts.chunk_size = 32;
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  cluster.RunUntil(1500);
  ExpectOpsRouteAcrossGroups(cluster, handles);
}

// The namespace ops at 1, 2 and 4 single-replica groups. Every group count keeps the
// default 8 partitions, so the dual-homed Mkdir runs even when one group owns them all.
class PartitionTest : public ::testing::TestWithParam<int> {
 protected:
  PartitionTest() : cluster_(31337) {
    FederatedFsOptions opts;
    opts.num_groups = GetParam();
    opts.replicas_per_group = 1;
    opts.chunk_size = 32;
    handles_ = SetupFederatedFs(cluster_, opts);
    fs_ = std::make_unique<SyncFs>(cluster_, handles_.clients[0]);
    cluster_.RunUntil(1500);
  }

  Cluster cluster_;
  FederatedFsHandles handles_;
  std::unique_ptr<SyncFs> fs_;
};

TEST_P(PartitionTest, FilesSpreadAcrossPartitionsAndRoundTrip) {
  ExpectOpsRouteAcrossGroups(cluster_, handles_);
}

TEST_P(PartitionTest, LsSeesAllChildrenOfADirectory) {
  ASSERT_TRUE(fs_->Mkdir("/d"));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs_->CreateFile("/d/f" + std::to_string(i)));
  }
  std::vector<std::string> names;
  ASSERT_TRUE(fs_->Ls("/d", &names));
  EXPECT_EQ(names.size(), 8u);
}

TEST_P(PartitionTest, ExistsAndRmRouteCorrectly) {
  ASSERT_TRUE(fs_->Mkdir("/x"));
  ASSERT_TRUE(fs_->CreateFile("/x/f"));
  EXPECT_TRUE(fs_->Exists("/x/f"));
  EXPECT_TRUE(fs_->Rm("/x/f"));
  EXPECT_FALSE(fs_->Exists("/x/f"));
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, PartitionTest, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "P" + std::to_string(info.param);
                         });

// Clients route by RoutingPid(NsRoutingKey(cmd, path), N): a file routes by its parent
// directory, so `ls` of a directory lands where its children live.
TEST(PartitionRoutingTest, DeterministicAndDirnameBased) {
  auto pid = [](const std::string& cmd, const std::string& path, int n) {
    return RoutingPid(NsRoutingKey(cmd, path), n);
  };
  EXPECT_EQ(pid(kCmdCreate, "/d/f1", 3), pid(kCmdExists, "/d/f2", 3));
  EXPECT_EQ(pid(kCmdLs, "/d", 3), pid(kCmdCreate, "/d/f1", 3));
  EXPECT_EQ(pid(kCmdCreate, "/any", 1), 0);
  EXPECT_EQ(pid(kCmdLs, "/d", 1), 0);
}

// Satellite regression: every group mints chunk ids in its own salted space, so a shared
// DataNode pool can never see the same id from two groups.
TEST(FederatedFsTest, ChunkIdsDisjointAcrossGroups) {
  Cluster cluster(515);
  FederatedFsOptions opts;
  opts.chunk_size = 16;  // multi-chunk files
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  cluster.RunUntil(1500);
  SyncFs fs(cluster, handles.clients[0]);
  for (int d = 0; d < 6; ++d) {
    std::string dir = "/d" + std::to_string(d);
    ASSERT_TRUE(fs.Mkdir(dir));
    ASSERT_TRUE(fs.WriteFile(dir + "/f", std::string(50, 'a' + static_cast<char>(d))));
  }
  std::vector<std::set<int64_t>> per_group;
  for (const auto& group : handles.groups) {
    std::string leader = GroupLeader(cluster, group);
    ASSERT_FALSE(leader.empty());
    per_group.push_back(ReadIntColumn(cluster, leader, "fchunk", 0));
    EXPECT_FALSE(per_group.back().empty());
  }
  for (int64_t chunk : per_group[0]) {
    EXPECT_FALSE(per_group[1].count(chunk)) << "chunk id " << chunk << " in both groups";
  }
}

TEST(FederatedFsTest, CrossPartitionRenameMovesFileAndTombstonesSource) {
  Cluster cluster(717);
  FederatedFsOptions opts;
  opts.chunk_size = 16;
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  cluster.RunUntil(1500);
  SyncFs fs(cluster, handles.clients[0]);

  auto [src_dir, dst_dir] = CrossGroupDirs(handles);
  ASSERT_TRUE(fs.Mkdir(src_dir));
  ASSERT_TRUE(fs.Mkdir(dst_dir));
  std::string src = src_dir + "/x";
  std::string dst = dst_dir + "/y";
  std::string payload(60, 'z');
  ASSERT_TRUE(fs.WriteFile(src, payload));
  ASSERT_TRUE(fs.Rename(src, dst));

  EXPECT_FALSE(fs.Exists(src));
  std::string data;
  ASSERT_TRUE(fs.ReadFile(dst, &data));
  EXPECT_EQ(data, payload);

  // The source group dropped the entry and left a tombstone.
  int64_t src_pid = RoutingPid(src_dir, handles.num_partitions);
  std::string src_leader = GroupLeader(
      cluster, handles.groups[static_cast<size_t>(
                   handles.pid_group[static_cast<size_t>(src_pid)])]);
  ASSERT_FALSE(src_leader.empty());
  EXPECT_FALSE(ReadStringColumn(cluster, src_leader, "fqpath", 0).count(src));
  EXPECT_TRUE(ReadStringColumn(cluster, src_leader, "xr_tomb", 0).count(src));
}

TEST(FederatedFsTest, RebalanceMigratesPartitionAndClientsReRoute) {
  Cluster cluster(818);
  FederatedFsOptions opts;
  opts.chunk_size = 16;
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  cluster.RunUntil(1500);
  SyncFs fs(cluster, handles.clients[0]);

  // A working dir on partition 0, populated before the split.
  std::string dir;
  for (int d = 0; d < 64 && dir.empty(); ++d) {
    std::string cand = "/d" + std::to_string(d);
    if (RoutingPid(cand, handles.num_partitions) == 0) {
      dir = cand;
    }
  }
  ASSERT_FALSE(dir.empty());
  ASSERT_TRUE(fs.Mkdir(dir));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs.WriteFile(dir + "/f" + std::to_string(i),
                             "blob-" + std::to_string(i) + std::string(30, '.')));
  }

  int source = handles.pid_group[0];
  int dest = 1 - source;
  int64_t pmap_epoch_before =
      *ReadIntColumn(cluster, handles.pmap, "pm_epoch", 1).begin();
  ASSERT_TRUE(RebalancePartitionSync(cluster, handles, /*pid=*/0, dest));
  EXPECT_EQ(handles.pid_group[0], dest);
  int64_t pmap_epoch_after =
      *ReadIntColumn(cluster, handles.pmap, "pm_epoch", 1).begin();
  EXPECT_GT(pmap_epoch_after, pmap_epoch_before);

  // The clients' cached map is now stale; ops succeed anyway via the stale-epoch bounce.
  for (int i = 0; i < 4; ++i) {
    std::string data;
    ASSERT_TRUE(fs.ReadFile(dir + "/f" + std::to_string(i), &data)) << i;
    EXPECT_EQ(data, "blob-" + std::to_string(i) + std::string(30, '.'));
  }
  ASSERT_TRUE(fs.WriteFile(dir + "/new", "post-split"));

  // Migrated entries live at the destination and are gone from the source.
  std::string dest_leader =
      GroupLeader(cluster, handles.groups[static_cast<size_t>(dest)]);
  std::string src_leader =
      GroupLeader(cluster, handles.groups[static_cast<size_t>(source)]);
  ASSERT_FALSE(dest_leader.empty());
  ASSERT_FALSE(src_leader.empty());
  auto dest_paths = ReadStringColumn(cluster, dest_leader, "fqpath", 0);
  auto src_paths = ReadStringColumn(cluster, src_leader, "fqpath", 0);
  for (int i = 0; i < 4; ++i) {
    std::string path = dir + "/f" + std::to_string(i);
    EXPECT_TRUE(dest_paths.count(path)) << path;
    EXPECT_FALSE(src_paths.count(path)) << path;
  }
}

// A directory /n<a>/m<b>/k<c> whose own path routes to partition 0 while both of its
// ancestors' own paths route to other partitions owned by partition 0's group, so the
// destination group has no copy of /n<a>/m<b> until a migration scaffolds it.
std::string NestedDirOnPidZero(const FederatedFsHandles& handles) {
  auto group_of = [&handles](const std::string& path) {
    int64_t pid = RoutingPid(path, handles.num_partitions);
    return handles.pid_group[static_cast<size_t>(pid)];
  };
  for (int a = 0; a < 32; ++a) {
    std::string top = "/n" + std::to_string(a);
    if (RoutingPid(top, handles.num_partitions) == 0 ||
        group_of(top) != handles.pid_group[0]) {
      continue;
    }
    for (int b = 0; b < 32; ++b) {
      std::string mid = top + "/m" + std::to_string(b);
      if (RoutingPid(mid, handles.num_partitions) == 0 ||
          group_of(mid) != handles.pid_group[0]) {
        continue;
      }
      for (int c = 0; c < 32; ++c) {
        std::string leaf = mid + "/k" + std::to_string(c);
        if (RoutingPid(leaf, handles.num_partitions) == 0) {
          return leaf;
        }
      }
    }
  }
  ADD_FAILURE() << "no nested directory on partition 0";
  return "";
}

// Every file of `paths` exists through routed lookups and reads back its own name.
void ExpectRoutedFiles(SyncFs& fs, const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    std::string data;
    ASSERT_TRUE(fs.ReadFile(path, &data)) << path;
    EXPECT_EQ(data, "data:" + path);
  }
}

// Migrates partition 0 to the other group and back. The way out scaffolds a nested
// subtree whose ancestors route to other partitions; the way back must reopen the
// partition at its first owner, which the first migration left sealed.
TEST(FederatedFsTest, RoundTripMigrationScaffoldsNestedSubtree) {
  Cluster cluster(919);
  FederatedFsOptions opts;
  opts.chunk_size = 16;
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  cluster.RunUntil(1500);
  SyncFs fs(cluster, handles.clients[0]);

  const std::string leaf = NestedDirOnPidZero(handles);
  ASSERT_FALSE(leaf.empty());
  const std::string mid = PathDirname(leaf);
  // A subdirectory whose own entries stay with partition 0's group too: its child-serving
  // copy would otherwise scaffold `mid` at the other group.
  std::string sub;
  for (int k = 0; sub.empty(); ++k) {
    std::string cand = leaf + "/s" + std::to_string(k);
    int64_t pid = RoutingPid(cand, handles.num_partitions);
    if (handles.pid_group[static_cast<size_t>(pid)] == handles.pid_group[0]) {
      sub = cand;
    }
  }
  ASSERT_TRUE(fs.Mkdir(PathDirname(mid)));
  ASSERT_TRUE(fs.Mkdir(mid));
  ASSERT_TRUE(fs.Mkdir(leaf));
  ASSERT_TRUE(fs.Mkdir(sub));
  std::vector<std::string> files;
  for (int i = 0; i < 3; ++i) {
    files.push_back(leaf + "/f" + std::to_string(i));
    ASSERT_TRUE(fs.WriteFile(files.back(), "data:" + files.back()));
  }

  const int first = handles.pid_group[0];
  const int second = 1 - first;
  auto leader_paths = [&](int group) {
    std::string leader = GroupLeader(cluster, handles.groups[static_cast<size_t>(group)]);
    EXPECT_FALSE(leader.empty());
    return ReadStringColumn(cluster, leader, "fqpath", 0);
  };
  ASSERT_FALSE(leader_paths(second).count(mid)) << "nothing to scaffold";

  ASSERT_TRUE(RebalancePartitionSync(cluster, handles, /*pid=*/0, second));
  auto there = leader_paths(second);
  for (const std::string& dir : {mid, leaf, sub}) {
    EXPECT_TRUE(there.count(dir)) << dir;
  }
  auto left = leader_paths(first);
  for (const std::string& path : files) {
    EXPECT_TRUE(there.count(path)) << path;
    EXPECT_FALSE(left.count(path)) << path;
  }
  ExpectRoutedFiles(fs, files);
  std::vector<std::string> names;
  ASSERT_TRUE(fs.Ls(leaf, &names));
  EXPECT_EQ(names, (std::vector<std::string>{"f0", "f1", "f2", PathBasename(sub)}));

  ASSERT_TRUE(RebalancePartitionSync(cluster, handles, /*pid=*/0, first));
  auto back = leader_paths(first);
  auto gone = leader_paths(second);
  for (const std::string& path : files) {
    EXPECT_TRUE(back.count(path)) << path;
    EXPECT_FALSE(gone.count(path)) << path;
  }
  ExpectRoutedFiles(fs, files);
  // A plain create on partition 0 replays at its first owner again: the way back
  // unsealed it there.
  files.push_back(leaf + "/after");
  ASSERT_TRUE(fs.WriteFile(files.back(), "data:" + files.back()));
  ExpectRoutedFiles(fs, files);
  EXPECT_EQ(*ReadIntColumn(cluster, handles.pmap, "pm_epoch", 1).begin(), 2);
}

// The source group's leader dies after the seal is decided and before the last snapshot
// page is answered (two pages here: 70 files); with `quorum_loss`, one follower dies with
// it and both come back (durably) 5 s later. The migration must either complete, or abort
// with the source unsealed, the map unchanged and unfrozen; either way every acked file
// stays readable through a routed client, from one group only. Returns whether the
// migration completed.
bool MidSnapshotKillRun(bool quorum_loss) {
  Cluster cluster(1021);
  FederatedFsOptions opts;
  opts.chunk_size = 16;
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  cluster.RunUntil(1500);
  SyncFs fs(cluster, handles.clients[0]);

  std::string dir;
  for (int d = 0; d < 64 && dir.empty(); ++d) {
    std::string cand = "/d" + std::to_string(d);
    if (RoutingPid(cand, handles.num_partitions) == 0) {
      dir = cand;
    }
  }
  EXPECT_TRUE(fs.Mkdir(dir));
  std::vector<std::string> files;
  for (int i = 0; i < 70; ++i) {
    files.push_back(dir + "/f" + std::to_string(i));
    if (i % 10 == 0) {
      EXPECT_TRUE(fs.WriteFile(files.back(), "data:" + files.back()));
    } else {
      EXPECT_TRUE(fs.CreateFile(files.back()));
    }
  }

  const int source = handles.pid_group[0];
  const int dest = 1 - source;
  const std::vector<std::string>& source_group =
      handles.groups[static_cast<size_t>(source)];
  auto epoch = [&cluster, &handles] {
    return *ReadIntColumn(cluster, handles.pmap, "pm_epoch", 1).begin();
  };
  const int64_t epoch_before = epoch();
  bool finished = false;
  bool ok = false;
  StartRebalance(cluster, handles, /*pid=*/0, dest, [&finished, &ok](bool r) {
    finished = true;
    ok = r;
  });
  std::vector<std::string> killed;
  while (!finished && cluster.now() < 60000) {
    cluster.RunUntil(cluster.now() + 1);
    auto steps = ReadStringColumn(cluster, handles.pmap, "mg_op", 1);
    if (killed.empty() && steps.count("snap")) {
      killed.push_back(GroupLeader(cluster, source_group));
      if (quorum_loss) {
        killed.push_back(source_group[source_group[0] == killed[0] ? 1 : 0]);
      }
      for (const std::string& victim : killed) {
        cluster.KillNode(victim);
      }
      if (quorum_loss) {
        cluster.ScheduleAfter(5000, [&cluster, killed] {
          for (const std::string& victim : killed) {
            cluster.RestartNode(victim, /*fresh_state=*/false);
          }
        });
      }
    }
  }
  EXPECT_FALSE(killed.empty()) << "the snapshot step was never reached";
  EXPECT_TRUE(finished);
  cluster.RunUntil(cluster.now() + 3000);  // restarted replicas replay the log

  if (ok) {
    handles.pid_group[0] = dest;
    EXPECT_GT(epoch(), epoch_before);
  } else {
    EXPECT_EQ(epoch(), epoch_before);
    for (const std::string& replica : source_group) {
      if (cluster.IsAlive(replica)) {
        EXPECT_FALSE(ReadIntColumn(cluster, replica, "fed_sealed", 0).count(0))
            << replica;
      }
    }
  }
  for (const std::string& replica : handles.AllReplicas()) {
    if (cluster.IsAlive(replica)) {
      EXPECT_TRUE(ReadIntColumn(cluster, replica, "fed_frozen", 0).empty()) << replica;
    }
  }
  std::vector<std::set<std::string>> paths;
  for (const auto& group : handles.groups) {
    paths.push_back(ReadStringColumn(cluster, GroupLeader(cluster, group), "fqpath", 0));
  }
  for (size_t i = 0; i < files.size(); ++i) {
    EXPECT_TRUE(fs.Exists(files[i])) << files[i];
    EXPECT_NE(paths[0].count(files[i]), paths[1].count(files[i])) << files[i];
    if (i % 10 == 0) {
      std::string data;
      EXPECT_TRUE(fs.ReadFile(files[i], &data)) << files[i];
      EXPECT_EQ(data, "data:" + files[i]);
    }
  }
  return ok;
}

// With the leader alone gone, the follower pair elects a new leader that answers the
// resent page: the migration completes. Without a quorum for longer than a step's
// deadline, it aborts; the unseal lands once the group is back.
TEST(FederatedFsTest, SourceLeaderKilledMidSnapshot) {
  EXPECT_TRUE(MidSnapshotKillRun(/*quorum_loss=*/false));
  EXPECT_FALSE(MidSnapshotKillRun(/*quorum_loss=*/true));
}

// A leader kill inside one group must degrade only that group's tenants: the others keep
// >= 0.9x their pre-fault goodput (the acceptance bar for the fig_scaleout experiment).
// One leader-kill run over the shared trace; returns per-tenant goodput during the 1.5s
// election gap after (the would-be) kill time. Paired with an identical no-kill run: the
// same seed gives the same trace, so the fault is the only difference between the two.
std::vector<double> LeaderKillRun(bool kill, std::vector<int>* tenant_group) {
  Cluster cluster(13579);
  constexpr int kTenants = 4;
  FederatedFsOptions opts;
  opts.num_clients = kTenants;
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  for (const std::string& replica : handles.AllReplicas()) {
    cluster.SetServiceTime(replica, [](const Message& m) {
      return m.table == kFedRequest ? 1.0 : 0.0;
    });
  }
  cluster.RunUntil(1500);

  FsLoadOptions load;
  load.seed = 7;
  load.horizon_ms = 16000;
  load.mean_interarrival_ms = 5.0;  // well under capacity: failures come from the fault
  load.zipf_s = 0.01;  // near-uniform clients: every tenant gets a steady stream
  load.num_tenants = kTenants;
  load.tenant_weights.assign(kTenants, 1.0 / kTenants);
  for (int t = 0; t < kTenants; ++t) {
    load.tenant_dirs.push_back("/d" + std::to_string(t));
  }
  FsLoadWorkload workload(cluster, load,
                          std::vector<FsClient*>(handles.clients.begin(),
                                                 handles.clients.end()));
  const double t0 = 1500;
  const double kill_at = t0 + 8000;
  cluster.RunUntil(kill_at);
  if (kill) {
    std::string leader = GroupLeader(cluster, handles.groups[0]);
    BOOM_CHECK(!leader.empty());
    cluster.KillNode(leader);
  }
  cluster.RunUntil(t0 + 16000 + 2000);

  std::vector<double> goodput;
  tenant_group->clear();
  for (int t = 0; t < kTenants; ++t) {
    int64_t pid = RoutingPid("/d" + std::to_string(t), handles.num_partitions);
    tenant_group->push_back(handles.pid_group[static_cast<size_t>(pid)]);
    goodput.push_back(workload.TenantGoodputBetween(t, kill_at, kill_at + 1500));
  }
  return goodput;
}

TEST(FederatedFsTest, LeaderKillDegradesOnlyThatGroupsTenants) {
  std::vector<int> tenant_group;
  std::vector<double> base = LeaderKillRun(false, &tenant_group);
  std::vector<double> faulted = LeaderKillRun(true, &tenant_group);
  bool saw_other_group = false;
  for (size_t t = 0; t < base.size(); ++t) {
    if (tenant_group[t] != 0 && base[t] > 0) {
      saw_other_group = true;
      EXPECT_GE(faulted[t], 0.9 * base[t])
          << "tenant " << t << " (group " << tenant_group[t]
          << ") collapsed after another group's leader died";
    }
  }
  EXPECT_TRUE(saw_other_group);
}

// 1000+ actors in one deployment: 4 groups x 3 replicas + pmap + 32 DataNodes +
// 960 clients + admin = 1006. The plane must come up and serve nearly every op.
TEST(FederatedFsTest, ThousandActorDeploymentServes) {
  Cluster cluster(999);
  FederatedFsOptions opts;
  opts.num_groups = 4;
  opts.num_partitions = 16;
  opts.num_datanodes = 32;
  opts.num_clients = 960;
  FederatedFsHandles handles = SetupFederatedFs(cluster, opts);
  ASSERT_EQ(handles.clients.size(), 960u);
  cluster.RunUntil(2000);

  int ok = 0;
  constexpr int kOps = 200;
  int done = 0;
  auto issue = [&cluster, &ok, &done, &handles](int i, const std::string& path, auto op) {
    FsClient* client = handles.clients[static_cast<size_t>(i * 7 % 960)];
    (client->*op)(cluster, path, [&ok, &done](bool r, const Value&) {
      ok += r ? 1 : 0;
      ++done;
    });
  };
  auto drain = [&cluster, &done](int target) {
    double deadline = cluster.now() + 60000;
    while (done < target && cluster.now() < deadline) {
      cluster.RunUntil(cluster.now() + 50);
    }
  };
  // Parent directories first, driven to completion — the creates below depend on them.
  for (int i = 0; i < 16; ++i) {
    issue(i, "/d" + std::to_string(i % 16), &FsClient::Mkdir);
  }
  drain(16);
  ASSERT_EQ(done, 16);
  for (int i = 16; i < kOps; ++i) {
    std::string dir = "/d" + std::to_string(i % 16);
    issue(i, dir + "/f" + std::to_string(i), &FsClient::CreateFile);
  }
  drain(kOps);
  EXPECT_EQ(done, kOps);
  EXPECT_GE(ok, kOps * 95 / 100) << ok << "/" << kOps << " ops succeeded";
}

// The 25-seed federation chaos sweep: replica crashes and partitions during churn plus a
// mid-run partition migration; the epoch and namespace invariants must stay clean.
TEST(FederationChaosTest, SweepIsCleanAcross25Seeds) {
  ExplorerOptions options;
  options.scenario = "federation";
  options.seeds = 25;
  options.seed0 = 1;
  options.horizon_ms = 12000;
  options.settle_ms = 9000;
  options.timeline = false;
  ExplorerReport report = ExploreSeeds(options);
  EXPECT_EQ(report.failures, 0) << report.text;
}

// The split-rename bug variant (xr_commit forgets to delete the source) must be caught
// and ddmin-shrunk to a tiny schedule — the workload alone reproduces it, so the shrunk
// reproducer needs few (often zero) fault events.
TEST(FederationChaosTest, SplitRenameBugCaughtAndShrunk) {
  ExplorerOptions options;
  options.scenario = "federation";
  options.bug = "split-rename";
  options.seeds = 2;
  options.seed0 = 1;
  options.horizon_ms = 12000;
  options.settle_ms = 9000;
  options.timeline = false;
  ExplorerReport report = ExploreSeeds(options);
  EXPECT_GT(report.failures, 0) << report.text;
  for (const SeedOutcome& outcome : report.outcomes) {
    if (!outcome.passed) {
      EXPECT_LE(outcome.shrunk.events.size(), 3u)
          << "seed " << outcome.seed << " shrunk to:\n" << outcome.shrunk.ToString();
    }
  }
}

}  // namespace
}  // namespace boom
