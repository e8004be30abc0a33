// Tests for the Overlog multi-Paxos program and the HA BOOM-FS built on it.

#include <gtest/gtest.h>

#include <set>

#include "src/boomfs/ha.h"
#include "src/paxos/paxos_program.h"
#include "src/sim/cluster.h"

namespace boom {
namespace {

// Stands up N paxos replicas (paxos program only) named px0..pxN-1; `base` supplies the
// timer settings.
std::vector<std::string> SetupPaxos(Cluster& cluster, int n,
                                    const PaxosProgramOptions& base = {}) {
  std::vector<std::string> peers;
  for (int i = 0; i < n; ++i) {
    peers.push_back("px" + std::to_string(i));
  }
  for (int i = 0; i < n; ++i) {
    PaxosProgramOptions opts = base;
    opts.peers = peers;
    opts.my_index = i;
    Program program = PaxosProgram(opts);
    cluster.AddOverlogNode(peers[static_cast<size_t>(i)], [program](Engine& engine) {
      Status s = engine.Install(program);
      ASSERT_TRUE(s.ok()) << s.ToString();
    });
  }
  return peers;
}

Value LeaderOf(Cluster& cluster, const std::string& node) {
  const Table* t = cluster.engine(node)->catalog().Find("leader");
  if (t == nullptr) {
    return Value();
  }
  const Tuple* row = t->LookupByKey(Tuple{Value(1)});
  return row == nullptr ? Value() : (*row)[1];
}

// Decided log of a replica as slot -> command.
std::map<int64_t, Value> DecidedLog(Cluster& cluster, const std::string& node) {
  std::map<int64_t, Value> out;
  const Table& t = cluster.engine(node)->catalog().Get("decided");
  t.ForEach([&out](const Tuple& row) { out[row[0].as_int()] = row[1]; });
  return out;
}

void SubmitCommand(Cluster& cluster, const std::string& to, const Value& cmd) {
  cluster.Send(to, to, "px_request", Tuple{Value(to), cmd});
}

// A proposer tick far longer than any test window: whatever gets decided inside one
// window was driven by the commands themselves, not by px_tick.
PaxosProgramOptions SlowTick() {
  PaxosProgramOptions opts;
  opts.tick_period_ms = 1000;
  return opts;
}

TEST(PaxosTest, ElectsLowestLivePeer) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3);
  cluster.RunUntil(2000);
  for (const std::string& p : peers) {
    EXPECT_EQ(LeaderOf(cluster, p), Value("px0")) << p;
  }
}

TEST(PaxosTest, SingleCommandDecidedEverywhere) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3);
  cluster.RunUntil(2000);
  SubmitCommand(cluster, "px0", Value("cmd-a"));
  cluster.RunUntil(4000);
  for (const std::string& p : peers) {
    std::map<int64_t, Value> log = DecidedLog(cluster, p);
    ASSERT_EQ(log.size(), 1u) << p;
    EXPECT_EQ(log[0], Value("cmd-a")) << p;
  }
}

TEST(PaxosTest, CommandsGetDistinctConsecutiveSlots) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3);
  cluster.RunUntil(2000);
  for (int i = 0; i < 10; ++i) {
    SubmitCommand(cluster, "px0", Value("cmd-" + std::to_string(i)));
  }
  cluster.RunUntil(8000);
  std::map<int64_t, Value> log = DecidedLog(cluster, "px0");
  ASSERT_EQ(log.size(), 10u);
  std::set<std::string> cmds;
  for (int64_t s = 0; s < 10; ++s) {
    ASSERT_TRUE(log.count(s)) << "gap at slot " << s;
    cmds.insert(log[s].as_string());
  }
  EXPECT_EQ(cmds.size(), 10u);  // all distinct commands decided
  // Replicas agree on every slot (Paxos safety).
  for (const std::string& p : peers) {
    EXPECT_EQ(DecidedLog(cluster, p), log) << p;
  }
}

TEST(PaxosTest, CommandDecidedWithoutWaitingForTick) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3, SlowTick());
  cluster.RunUntil(2500);  // election + phase 1 on the t=1000 tick; next tick at 3000
  SubmitCommand(cluster, "px0", Value("cmd-a"));
  cluster.RunUntil(2503);
  for (const std::string& p : peers) {
    std::map<int64_t, Value> log = DecidedLog(cluster, p);
    ASSERT_EQ(log.size(), 1u) << p;
    EXPECT_EQ(log[0], Value("cmd-a")) << p;
  }
}

TEST(PaxosTest, BurstDrainsIntoConsecutiveSlotsBetweenTicks) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3, SlowTick());
  std::vector<double> pick_times;
  cluster.engine("px0")->AddWatch(
      "pick", [&pick_times, &cluster](const std::string&, const Tuple&, bool inserted) {
        if (inserted) {
          pick_times.push_back(cluster.now());
        }
      });
  cluster.RunUntil(2500);
  for (int i = 0; i < 5; ++i) {
    SubmitCommand(cluster, "px0", Value("burst-" + std::to_string(i)));
  }
  cluster.RunUntil(2510);
  // One pick per timestep, every timestep at the instant the burst arrived.
  EXPECT_EQ(pick_times, std::vector<double>(5, 2500.0));
  std::map<int64_t, Value> log = DecidedLog(cluster, "px0");
  ASSERT_EQ(log.size(), 5u);
  std::set<Value> cmds;
  for (int64_t s = 0; s < 5; ++s) {
    ASSERT_TRUE(log.count(s)) << "gap at slot " << s;
    cmds.insert(log[s]);
  }
  EXPECT_EQ(cmds.size(), 5u);
  for (const std::string& p : peers) {
    EXPECT_EQ(DecidedLog(cluster, p), log) << p;
  }
}

TEST(PaxosTest, LeaderSendsOneDecidePerPeerPerSlot) {
  Cluster cluster(99);
  PaxosProgramOptions opts;
  opts.sync_period_ms = 1e9;  // no anti-entropy: every decide comes from p2d
  std::vector<std::string> peers = SetupPaxos(cluster, 3, opts);
  std::map<std::pair<std::string, int64_t>, int> decides;  // (peer, slot) -> arrivals
  for (const std::string& p : peers) {
    cluster.engine(p)->AddWatch(
        "decide", [&decides, p](const std::string&, const Tuple& t, bool inserted) {
          if (inserted) {
            ++decides[{p, t[1].as_int()}];
          }
        });
  }
  cluster.RunUntil(2000);
  for (int i = 0; i < 20; ++i) {
    SubmitCommand(cluster, "px0", Value("c" + std::to_string(i)));
    cluster.RunUntil(cluster.now() + 5);
  }
  cluster.RunUntil(cluster.now() + 1000);
  ASSERT_EQ(DecidedLog(cluster, "px0").size(), 20u);
  EXPECT_EQ(decides.size(), 60u);  // every peer heard about every slot...
  for (const auto& [peer_slot, n] : decides) {
    EXPECT_EQ(n, 1) << peer_slot.first << " slot " << peer_slot.second;  // ...exactly once
  }
}

TEST(PaxosTest, PartitionedReplicaCatchesUpThroughSync) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3);
  cluster.RunUntil(2000);
  cluster.BlockLink("px2", "px0");
  cluster.BlockLink("px2", "px1");
  for (int i = 0; i < 10; ++i) {
    SubmitCommand(cluster, "px0", Value("p" + std::to_string(i)));
  }
  cluster.RunUntil(3000);
  std::map<int64_t, Value> log = DecidedLog(cluster, "px0");
  ASSERT_EQ(log.size(), 10u);
  EXPECT_TRUE(DecidedLog(cluster, "px2").empty());  // missed every decide broadcast

  cluster.UnblockLink("px2", "px0");
  cluster.UnblockLink("px2", "px1");
  cluster.RunUntil(5000);  // several sync rounds
  EXPECT_EQ(DecidedLog(cluster, "px1"), log);
  EXPECT_EQ(DecidedLog(cluster, "px2"), log);
  const Tuple* applied =
      cluster.engine("px2")->catalog().Get("applied_upto").LookupByKey(Tuple{Value(1)});
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ((*applied)[1], Value(9));
}

TEST(PaxosTest, RetriedCommandDeduplicated) {
  Cluster cluster(99);
  SetupPaxos(cluster, 3);
  cluster.RunUntil(2000);
  SubmitCommand(cluster, "px0", Value("same-cmd"));
  SubmitCommand(cluster, "px0", Value("same-cmd"));
  cluster.RunUntil(1000 + cluster.now());
  SubmitCommand(cluster, "px0", Value("same-cmd"));
  cluster.RunUntil(3000 + cluster.now());
  std::map<int64_t, Value> log = DecidedLog(cluster, "px0");
  EXPECT_EQ(log.size(), 1u);  // hash-keyed queue dedupes identical commands
}

TEST(PaxosTest, AppliesInSlotOrder) {
  Cluster cluster(99);
  SetupPaxos(cluster, 3);
  std::vector<int64_t> applied_slots;
  cluster.engine("px1")->AddWatch(
      "apply_cmd", [&applied_slots](const std::string&, const Tuple& t, bool inserted) {
        if (inserted) {
          applied_slots.push_back(t[0].as_int());
        }
      });
  cluster.RunUntil(2000);
  for (int i = 0; i < 6; ++i) {
    SubmitCommand(cluster, "px0", Value("c" + std::to_string(i)));
  }
  cluster.RunUntil(8000);
  ASSERT_EQ(applied_slots.size(), 6u);
  for (size_t i = 0; i < applied_slots.size(); ++i) {
    EXPECT_EQ(applied_slots[i], static_cast<int64_t>(i));
  }
}

TEST(PaxosTest, FailoverElectsNextReplicaAndContinues) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3);
  cluster.RunUntil(2000);
  SubmitCommand(cluster, "px0", Value("before-crash"));
  cluster.RunUntil(4000);
  ASSERT_EQ(DecidedLog(cluster, "px1").size(), 1u);

  cluster.KillNode("px0");
  cluster.RunUntil(8000);  // election timeout + new leader phase 1
  EXPECT_EQ(LeaderOf(cluster, "px1"), Value("px1"));
  EXPECT_EQ(LeaderOf(cluster, "px2"), Value("px1"));

  SubmitCommand(cluster, "px1", Value("after-crash"));
  cluster.RunUntil(12000);
  std::map<int64_t, Value> log1 = DecidedLog(cluster, "px1");
  std::map<int64_t, Value> log2 = DecidedLog(cluster, "px2");
  EXPECT_EQ(log1, log2);
  ASSERT_EQ(log1.size(), 2u);
  EXPECT_EQ(log1[0], Value("before-crash"));  // old decision survives the failover
  EXPECT_EQ(log1[1], Value("after-crash"));
}

TEST(PaxosTest, MinorityPartitionCannotDecide) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 3);
  cluster.RunUntil(2000);
  // Isolate px0 (the leader) from both other replicas.
  cluster.BlockLink("px0", "px1");
  cluster.BlockLink("px0", "px2");
  cluster.RunUntil(4000);
  SubmitCommand(cluster, "px0", Value("minority-cmd"));
  cluster.RunUntil(8000);
  // px0 alone cannot reach quorum; the majority side elects px1 and has no such command.
  EXPECT_TRUE(DecidedLog(cluster, "px0").empty());
  EXPECT_EQ(LeaderOf(cluster, "px1"), Value("px1"));
  // The majority can still decide its own commands.
  SubmitCommand(cluster, "px1", Value("majority-cmd"));
  cluster.RunUntil(12000);
  std::map<int64_t, Value> log = DecidedLog(cluster, "px1");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.begin()->second, Value("majority-cmd"));
}

TEST(PaxosTest, FiveReplicasToleratesTwoFailures) {
  Cluster cluster(99);
  std::vector<std::string> peers = SetupPaxos(cluster, 5);
  cluster.RunUntil(2000);
  cluster.KillNode("px0");
  cluster.KillNode("px3");
  cluster.RunUntil(6000);
  EXPECT_EQ(LeaderOf(cluster, "px1"), Value("px1"));
  SubmitCommand(cluster, "px1", Value("survives"));
  cluster.RunUntil(10000);
  for (const char* p : {"px1", "px2", "px4"}) {
    std::map<int64_t, Value> log = DecidedLog(cluster, p);
    ASSERT_EQ(log.size(), 1u) << p;
    EXPECT_EQ(log.begin()->second, Value("survives"));
  }
}

// --- HA BOOM-FS on top of Paxos ---

class HaFsTest : public ::testing::Test {
 protected:
  HaFsTest() : cluster_(2024) {
    HaFsOptions opts;
    opts.num_replicas = 3;
    opts.num_datanodes = 4;
    opts.chunk_size = 32;
    handles_ = SetupHaFs(cluster_, opts);
    fs_ = std::make_unique<SyncFs>(cluster_, handles_.client, /*timeout_ms=*/120000);
    cluster_.RunUntil(3000);  // elect a leader, register datanodes
  }

  Cluster cluster_;
  HaFsHandles handles_;
  std::unique_ptr<SyncFs> fs_;
};

TEST_F(HaFsTest, BasicOpsThroughPaxos) {
  EXPECT_TRUE(fs_->Mkdir("/a"));
  EXPECT_TRUE(fs_->CreateFile("/a/f"));
  EXPECT_TRUE(fs_->Exists("/a/f"));
  EXPECT_FALSE(fs_->Mkdir("/a"));  // duplicate rejected
}

TEST_F(HaFsTest, MetadataReplicatedToAllReplicas) {
  ASSERT_TRUE(fs_->Mkdir("/rep"));
  ASSERT_TRUE(fs_->CreateFile("/rep/f"));
  cluster_.RunUntil(cluster_.now() + 2000);
  for (const std::string& nn : handles_.replicas) {
    const Table& fqpath = cluster_.engine(nn)->catalog().Get("fqpath");
    bool found = false;
    fqpath.ForEach([&found](const Tuple& row) {
      if (row[0] == Value("/rep/f")) {
        found = true;
      }
    });
    EXPECT_TRUE(found) << nn;
  }
}

TEST_F(HaFsTest, ReplicasMintIdenticalFileIds) {
  ASSERT_TRUE(fs_->Mkdir("/ids"));
  ASSERT_TRUE(fs_->CreateFile("/ids/f1"));
  ASSERT_TRUE(fs_->CreateFile("/ids/f2"));
  cluster_.RunUntil(cluster_.now() + 2000);
  std::set<std::set<Tuple>> variants;
  for (const std::string& nn : handles_.replicas) {
    std::set<Tuple> rows;
    cluster_.engine(nn)->catalog().Get("file").ForEach(
        [&rows](const Tuple& row) { rows.insert(row); });
    variants.insert(std::move(rows));
  }
  EXPECT_EQ(variants.size(), 1u) << "file tables diverged across replicas";
}

TEST_F(HaFsTest, SurvivesPrimaryFailure) {
  ASSERT_TRUE(fs_->Mkdir("/ha"));
  ASSERT_TRUE(fs_->WriteFile("/ha/f", "written-before-failover"));

  cluster_.KillNode(handles_.replicas[0]);
  cluster_.RunUntil(cluster_.now() + 4000);  // re-election

  // Old data still readable; new writes still possible.
  std::string data;
  ASSERT_TRUE(fs_->ReadFile("/ha/f", &data));
  EXPECT_EQ(data, "written-before-failover");
  EXPECT_TRUE(fs_->Mkdir("/ha/after"));
  EXPECT_TRUE(fs_->Exists("/ha/after"));
}

TEST_F(HaFsTest, SurvivesTwoSequentialFailures) {
  ASSERT_TRUE(fs_->Mkdir("/d1"));
  cluster_.KillNode(handles_.replicas[0]);
  cluster_.RunUntil(cluster_.now() + 4000);
  EXPECT_TRUE(fs_->Mkdir("/d2"));
  // With 2/3 replicas alive we still have quorum; kill another and quorum is lost, but
  // first verify /d2 exists on the survivors.
  for (size_t i = 1; i < handles_.replicas.size(); ++i) {
    const Table& fqpath = cluster_.engine(handles_.replicas[i])->catalog().Get("fqpath");
    bool found = false;
    fqpath.ForEach([&found](const Tuple& row) {
      if (row[0] == Value("/d2")) {
        found = true;
      }
    });
    EXPECT_TRUE(found) << handles_.replicas[i];
  }
}

}  // namespace
}  // namespace boom
