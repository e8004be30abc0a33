// Integration tests for the file-system layer, parameterized over both NameNode
// implementations: every behaviour must hold for BOOM-FS (Overlog) and the HDFS baseline.
// NnDnLoadTest drives the Overlog NameNode program alone on a bare engine.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/boomfs/boomfs.h"
#include "src/boomfs/nn_program.h"
#include "src/boomfs/protocol.h"
#include "src/overlog/engine.h"

namespace boom {
namespace {

class FsTest : public ::testing::TestWithParam<FsKind> {
 protected:
  FsTest() : cluster_(12345) {
    FsSetupOptions opts;
    opts.kind = GetParam();
    opts.num_datanodes = 4;
    opts.replication_factor = 3;
    opts.chunk_size = 16;  // small chunks force multi-chunk files in tests
    handles_ = SetupFs(cluster_, opts);
    fs_ = std::make_unique<SyncFs>(cluster_, handles_.client);
    // Let DataNodes register with the NameNode.
    cluster_.RunUntil(1000);
  }

  Cluster cluster_;
  FsHandles handles_;
  std::unique_ptr<SyncFs> fs_;
};

TEST_P(FsTest, MkdirAndExists) {
  EXPECT_FALSE(fs_->Exists("/tmp"));
  EXPECT_TRUE(fs_->Mkdir("/tmp"));
  EXPECT_TRUE(fs_->Exists("/tmp"));
  EXPECT_TRUE(fs_->Exists("/"));
}

TEST_P(FsTest, MkdirFailsWithoutParent) {
  EXPECT_FALSE(fs_->Mkdir("/a/b/c"));
  EXPECT_TRUE(fs_->Mkdir("/a"));
  EXPECT_TRUE(fs_->Mkdir("/a/b"));
  EXPECT_TRUE(fs_->Mkdir("/a/b/c"));
  EXPECT_TRUE(fs_->Exists("/a/b/c"));
}

TEST_P(FsTest, MkdirFailsIfExists) {
  EXPECT_TRUE(fs_->Mkdir("/dup"));
  EXPECT_FALSE(fs_->Mkdir("/dup"));
}

TEST_P(FsTest, CreateRequiresParentDir) {
  EXPECT_FALSE(fs_->CreateFile("/nodir/f"));
  EXPECT_TRUE(fs_->Mkdir("/nodir"));
  EXPECT_TRUE(fs_->CreateFile("/nodir/f"));
  EXPECT_FALSE(fs_->CreateFile("/nodir/f"));  // already exists
}

TEST_P(FsTest, LsListsChildren) {
  ASSERT_TRUE(fs_->Mkdir("/d"));
  ASSERT_TRUE(fs_->CreateFile("/d/one"));
  ASSERT_TRUE(fs_->CreateFile("/d/two"));
  ASSERT_TRUE(fs_->Mkdir("/d/sub"));
  std::vector<std::string> names;
  ASSERT_TRUE(fs_->Ls("/d", &names));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"one", "sub", "two"}));
}

TEST_P(FsTest, LsEmptyDirAndMissingDir) {
  ASSERT_TRUE(fs_->Mkdir("/empty"));
  std::vector<std::string> names{"sentinel"};
  ASSERT_TRUE(fs_->Ls("/empty", &names));
  EXPECT_TRUE(names.empty());
  EXPECT_FALSE(fs_->Ls("/missing", &names));
}

TEST_P(FsTest, RmFileAndEmptyDirOnly) {
  ASSERT_TRUE(fs_->Mkdir("/rmdir"));
  ASSERT_TRUE(fs_->CreateFile("/rmdir/f"));
  EXPECT_FALSE(fs_->Rm("/rmdir"));  // non-empty
  EXPECT_TRUE(fs_->Rm("/rmdir/f"));
  EXPECT_FALSE(fs_->Exists("/rmdir/f"));
  EXPECT_TRUE(fs_->Rm("/rmdir"));
  EXPECT_FALSE(fs_->Exists("/rmdir"));
  EXPECT_FALSE(fs_->Rm("/rmdir"));  // already gone
  EXPECT_FALSE(fs_->Rm("/"));       // root is protected
}

TEST_P(FsTest, WriteAndReadBack) {
  ASSERT_TRUE(fs_->Mkdir("/data"));
  const std::string payload = "The quick brown fox jumps over the lazy dog. 0123456789";
  ASSERT_TRUE(fs_->WriteFile("/data/f.txt", payload));
  std::string read_back;
  ASSERT_TRUE(fs_->ReadFile("/data/f.txt", &read_back));
  EXPECT_EQ(read_back, payload);
}

TEST_P(FsTest, MultiChunkFileRoundTrips) {
  ASSERT_TRUE(fs_->Mkdir("/big"));
  std::string payload;
  for (int i = 0; i < 100; ++i) {
    payload += "chunk piece " + std::to_string(i) + ";";
  }
  ASSERT_TRUE(fs_->WriteFile("/big/blob", payload));
  // chunk_size=16 forces many chunks.
  Value chunks;
  ASSERT_TRUE(fs_->Op(kCmdChunks, "/big/blob", &chunks));
  EXPECT_GT(chunks.as_list().size(), 10u);
  std::string read_back;
  ASSERT_TRUE(fs_->ReadFile("/big/blob", &read_back));
  EXPECT_EQ(read_back, payload);
}

TEST_P(FsTest, ReadMissingFileFails) {
  std::string data;
  EXPECT_FALSE(fs_->ReadFile("/nope", &data));
}

TEST_P(FsTest, ChunksAreReplicated) {
  ASSERT_TRUE(fs_->Mkdir("/r"));
  ASSERT_TRUE(fs_->WriteFile("/r/f", "0123456789abcdef"));  // exactly one chunk
  Value chunks;
  ASSERT_TRUE(fs_->Op(kCmdChunks, "/r/f", &chunks));
  ASSERT_EQ(chunks.as_list().size(), 1u);
  int64_t chunk = chunks.as_list()[0].as_int();
  // All three replicas eventually report the chunk.
  cluster_.RunUntil(cluster_.now() + 3000);
  bool done = false;
  Value locs;
  handles_.client->Locations(cluster_, chunk, [&done, &locs](bool ok, const Value& p) {
    ASSERT_TRUE(ok);
    locs = p;
    done = true;
  });
  cluster_.RunUntil(cluster_.now() + 1000);
  ASSERT_TRUE(done);
  EXPECT_EQ(locs.as_list().size(), 3u);
}

TEST_P(FsTest, ReReplicationAfterDataNodeFailure) {
  ASSERT_TRUE(fs_->Mkdir("/ha"));
  ASSERT_TRUE(fs_->WriteFile("/ha/f", "payload-that-matters"));
  Value chunks;
  ASSERT_TRUE(fs_->Op(kCmdChunks, "/ha/f", &chunks));
  ASSERT_EQ(chunks.as_list().size(), 2u);  // 20 bytes / 16-byte chunks
  cluster_.RunUntil(cluster_.now() + 3000);

  // Kill one datanode that holds the first chunk.
  int64_t chunk = chunks.as_list()[0].as_int();
  bool done = false;
  Value locs;
  handles_.client->Locations(cluster_, chunk, [&](bool ok, const Value& p) {
    ASSERT_TRUE(ok);
    locs = p;
    done = true;
  });
  cluster_.RunUntil(cluster_.now() + 1000);
  ASSERT_TRUE(done);
  ASSERT_GE(locs.as_list().size(), 3u);
  cluster_.KillNode(locs.as_list()[0].as_string());

  // Failure detector + re-replication restores the replication factor on live nodes.
  cluster_.RunUntil(cluster_.now() + 15000);
  done = false;
  Value locs2;
  handles_.client->Locations(cluster_, chunk, [&](bool ok, const Value& p) {
    ASSERT_TRUE(ok);
    locs2 = p;
    done = true;
  });
  cluster_.RunUntil(cluster_.now() + 1000);
  ASSERT_TRUE(done);
  size_t live = 0;
  for (const Value& dn : locs2.as_list()) {
    if (cluster_.IsAlive(dn.as_string())) {
      ++live;
    }
  }
  EXPECT_GE(live, 3u);
  // The data is still readable.
  std::string data;
  ASSERT_TRUE(fs_->ReadFile("/ha/f", &data));
  EXPECT_EQ(data, "payload-that-matters");
}

TEST_P(FsTest, DeepDirectoryTree) {
  std::string path;
  for (int depth = 0; depth < 12; ++depth) {
    path += "/d" + std::to_string(depth);
    ASSERT_TRUE(fs_->Mkdir(path)) << path;
  }
  EXPECT_TRUE(fs_->Exists(path));
  ASSERT_TRUE(fs_->CreateFile(path + "/leaf"));
  EXPECT_TRUE(fs_->Exists(path + "/leaf"));
}

TEST_P(FsTest, ManyFilesInOneDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/many"));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs_->CreateFile("/many/f" + std::to_string(i)));
  }
  std::vector<std::string> names;
  ASSERT_TRUE(fs_->Ls("/many", &names));
  EXPECT_EQ(names.size(), 50u);
}

TEST_P(FsTest, RecreateAfterRm) {
  ASSERT_TRUE(fs_->Mkdir("/cycle"));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs_->WriteFile("/cycle/f", "gen" + std::to_string(i)));
    std::string data;
    ASSERT_TRUE(fs_->ReadFile("/cycle/f", &data));
    EXPECT_EQ(data, "gen" + std::to_string(i));
    ASSERT_TRUE(fs_->Rm("/cycle/f"));
  }
}


TEST_P(FsTest, RmGarbageCollectsChunksOnDataNodes) {
  ASSERT_TRUE(fs_->Mkdir("/gc"));
  std::string payload(200, 'x');
  ASSERT_TRUE(fs_->WriteFile("/gc/big", payload));
  cluster_.RunUntil(cluster_.now() + 3000);  // replication settles

  auto stored_bytes = [this] {
    size_t total = 0;
    for (const std::string& dn : handles_.datanodes) {
      total += static_cast<DataNode*>(cluster_.actor(dn))->stored_bytes();
    }
    return total;
  };
  EXPECT_GE(stored_bytes(), payload.size());  // at least one full copy stored

  ASSERT_TRUE(fs_->Rm("/gc/big"));
  cluster_.RunUntil(cluster_.now() + 3000);  // GC commands propagate
  EXPECT_EQ(stored_bytes(), 0u) << "chunks leaked on datanodes after rm";
}

INSTANTIATE_TEST_SUITE_P(BothFileSystems, FsTest,
                         ::testing::Values(FsKind::kBoomFs, FsKind::kHdfsBaseline),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           return info.param == FsKind::kBoomFs ? "BoomFs" : "HdfsBaseline";
                         });

// Data-plane robustness tests that need custom cluster shapes (so not the FsTest fixture).
class FsRobustnessTest : public ::testing::TestWithParam<FsKind> {
 protected:
  // Fetches a chunk's locations synchronously; fails the test on error.
  static std::vector<std::string> LocationsOf(Cluster& cluster, FsClient* client,
                                              int64_t chunk) {
    bool done = false;
    Value locs;
    client->Locations(cluster, chunk, [&](bool ok, const Value& p) {
      EXPECT_TRUE(ok) << "locations of chunk " << chunk;
      locs = p;
      done = true;
    });
    cluster.RunUntil(cluster.now() + 1000);
    EXPECT_TRUE(done);
    std::vector<std::string> out;
    if (locs.is_list()) {
      for (const Value& dn : locs.as_list()) {
        out.push_back(dn.as_string());
      }
    }
    return out;
  }
};

// A write whose pipeline contains a freshly crashed DataNode still completes (the client
// falls back to fanning out individual chunk writes after the pipeline ack times out), and
// the cluster converges back to full replication from incremental chunk reports alone —
// full block reports are disabled, so recovery cannot lean on them.
TEST_P(FsRobustnessTest, PipelineWriteSurvivesMidPipelineCrash) {
  Cluster cluster(777);
  FsSetupOptions opts;
  opts.kind = GetParam();
  opts.num_datanodes = 3;  // replication 3 of 3: every pipeline is all three DataNodes
  opts.replication_factor = 3;
  opts.chunk_size = 16;
  opts.full_report_every = 0;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  cluster.RunUntil(1000);

  ASSERT_TRUE(fs.Mkdir("/p"));
  // Kill the middle pipeline member right before the write: the NameNode has not noticed
  // yet, so the pipeline it hands out includes the corpse.
  cluster.KillNode(handles.datanodes[1]);
  const std::string payload = "pipeline payload that spans several 16-byte chunks!";
  ASSERT_TRUE(fs.WriteFile("/p/f", payload));

  cluster.RestartNode(handles.datanodes[1], /*fresh_state=*/false);
  cluster.RunUntil(cluster.now() + 15000);  // failure detector + re-replication

  Value chunks;
  ASSERT_TRUE(fs.Op(kCmdChunks, "/p/f", &chunks));
  ASSERT_GE(chunks.as_list().size(), 3u);
  for (const Value& c : chunks.as_list()) {
    std::vector<std::string> locs = LocationsOf(cluster, handles.client, c.as_int());
    size_t live = 0;
    for (const std::string& dn : locs) {
      if (cluster.IsAlive(dn)) {
        ++live;
      }
    }
    EXPECT_EQ(live, 3u) << "chunk " << c.as_int() << " not fully re-replicated";
  }
  std::string got;
  ASSERT_TRUE(fs.ReadFile("/p/f", &got));
  EXPECT_EQ(got, payload);
}

// With exactly one corrupt replica per chunk the read still returns the exact bytes: the
// serving DataNode catches the checksum mismatch, quarantines the replica, and the client
// fails over to a healthy copy. Re-replication then heals back to full strength.
TEST_P(FsRobustnessTest, ReadWithOneCorruptReplicaPerChunk) {
  Cluster cluster(4242);
  FsSetupOptions opts;
  opts.kind = GetParam();
  opts.num_datanodes = 4;
  opts.replication_factor = 3;
  opts.chunk_size = 16;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  cluster.RunUntil(1000);

  ASSERT_TRUE(fs.Mkdir("/c"));
  std::string payload;
  for (int i = 0; i < 8; ++i) {
    payload += "block " + std::to_string(i) + " data;";
  }
  ASSERT_TRUE(fs.WriteFile("/c/f", payload));
  cluster.RunUntil(cluster.now() + 3000);  // replication settles

  // Corrupt the replica the client will try first (the first listed location) of every
  // chunk, so the read must hit the rot and fail over.
  Value chunks;
  ASSERT_TRUE(fs.Op(kCmdChunks, "/c/f", &chunks));
  ASSERT_GT(chunks.as_list().size(), 1u);
  std::vector<std::pair<std::string, int64_t>> corrupted;
  for (const Value& c : chunks.as_list()) {
    int64_t chunk = c.as_int();
    std::vector<std::string> locs = LocationsOf(cluster, handles.client, chunk);
    ASSERT_GE(locs.size(), 3u);
    auto* node = dynamic_cast<DataNode*>(cluster.actor(locs[0]));
    ASSERT_NE(node, nullptr);
    ASSERT_TRUE(node->CorruptStoredChunk(chunk));
    corrupted.push_back({locs[0], chunk});
  }

  std::string got;
  ASSERT_TRUE(fs.ReadFile("/c/f", &got));
  EXPECT_EQ(got, payload);
  for (const auto& [dn, chunk] : corrupted) {
    EXPECT_TRUE(dynamic_cast<DataNode*>(cluster.actor(dn))->IsQuarantined(chunk))
        << dn << " served chunk " << chunk << " without quarantining it";
  }

  // dn_corrupt retracted the bad locations; re-replication restores them from good copies.
  cluster.RunUntil(cluster.now() + 15000);
  std::string again;
  ASSERT_TRUE(fs.ReadFile("/c/f", &again));
  EXPECT_EQ(again, payload);
}

INSTANTIATE_TEST_SUITE_P(BothFileSystems, FsRobustnessTest,
                         ::testing::Values(FsKind::kBoomFs, FsKind::kHdfsBaseline),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           return info.param == FsKind::kBoomFs ? "BoomFs" : "HdfsBaseline";
                         });

// dl1 keeps dn_load by ± over hb_chunk alone. After each way an hb_chunk row enters or
// leaves the NameNode (chunk report, rm, abandon, dead-chunk GC, corrupt report, DataNode
// death), dn_load must equal a plain per-DataNode count of hb_chunk.
class NnDnLoadTest : public ::testing::Test {
 protected:
  using Counts = std::map<std::string, int64_t>;

  NnDnLoadTest() : engine_(Options()) {
    Status installed = engine_.Install(BoomFsNnProgram());
    EXPECT_TRUE(installed.ok()) << installed.ToString();
  }

  static EngineOptions Options() {
    EngineOptions opts;
    opts.address = "nn";
    return opts;
  }

  void Enqueue(const std::string& table, Tuple tuple) {
    Status status = engine_.Enqueue(table, std::move(tuple));
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  void Heartbeat(const std::string& dn) { Enqueue(kDnHeartbeat, Tuple{Value("nn"), Value(dn)}); }
  void Report(const std::string& dn, int64_t chunk) {
    Enqueue(kDnChunkReport, Tuple{Value("nn"), Value(dn), Value(chunk)});
  }
  void Request(int64_t req, const char* cmd, const char* path, Value arg) {
    Enqueue(kNsRequest, Tuple{Value("nn"), Value(req), Value("client"), Value(cmd),
                              Value(path), std::move(arg)});
  }

  // Ticks the step at `now_ms`, then an empty tick 1 ms later: deletions apply at the step's
  // tick boundary, so aggregates (and every rule that reads dn_load) see them from the next
  // timestep on. Checks dn_load against a recount of hb_chunk and returns the recount.
  Counts TickAndCheck(double now_ms, const std::string& step) {
    for (double t : {now_ms, now_ms + 1}) {
      Engine::TickResult result = engine_.Tick(t);
      EXPECT_TRUE(result.errors.empty()) << step << ": " << result.errors.front();
    }
    Counts recount;
    engine_.catalog().Get("hb_chunk").ForEach(
        [&recount](const Tuple& row) { ++recount[row[0].as_string()]; });
    Counts load;
    engine_.catalog().Get("dn_load").ForEach(
        [&load](const Tuple& row) { load[row[0].as_string()] = row[1].as_int(); });
    EXPECT_EQ(load, recount) << step;
    return recount;
  }

  Engine engine_;
};

TEST_F(NnDnLoadTest, LoadMatchesRecountThroughEveryRemoval) {
  for (const char* dn : {"dn0", "dn1", "dn2"}) {
    Heartbeat(dn);
  }
  Enqueue("file", Tuple{Value(1), Value(0), Value("f1"), Value(false)});
  Enqueue("file", Tuple{Value(2), Value(0), Value("f2"), Value(false)});
  for (auto [chunk, file] : {std::pair{10, 1}, {11, 1}, {20, 2}, {21, 2}, {22, 2}}) {
    Enqueue("fchunk", Tuple{Value(chunk), Value(file)});
  }
  TickAndCheck(0, "registration");

  // Chunk reports (hb2).
  for (int64_t chunk : {10, 11, 20, 21}) {
    Report("dn0", chunk);
  }
  Report("dn1", 10);
  Report("dn1", 20);
  Report("dn2", 11);
  Report("dn2", 21);
  EXPECT_EQ(TickAndCheck(100, "chunk reports"), (Counts{{"dn0", 4}, {"dn1", 2}, {"dn2", 2}}));

  // Corrupt report (cq1).
  Enqueue(kDnCorrupt, Tuple{Value("nn"), Value("dn0"), Value(21)});
  EXPECT_EQ(TickAndCheck(200, "corrupt report"), (Counts{{"dn0", 3}, {"dn1", 2}, {"dn2", 2}}));

  // rm of /f1 drops the locations of chunks 10 and 11 (rm8) and tombstones them.
  Request(1, kCmdRm, "/f1", Value());
  EXPECT_EQ(TickAndCheck(300, "rm"), (Counts{{"dn0", 1}, {"dn1", 1}, {"dn2", 1}}));

  // A report of a tombstoned chunk is inserted and retracted in one timestep (hb4); a
  // report of a live chunk still counts.
  Report("dn1", 10);
  Report("dn2", 20);
  Report("dn2", 22);
  EXPECT_EQ(TickAndCheck(400, "dead-chunk GC"), (Counts{{"dn0", 1}, {"dn1", 1}, {"dn2", 3}}));

  // Abandoning chunk 20 (ab4) empties dn0's and dn1's groups.
  Request(2, kCmdAbandon, "", Value(20));
  EXPECT_EQ(TickAndCheck(500, "abandon"), (Counts{{"dn2", 2}}));

  // dn2 stops heartbeating: the failure detector declares it dead and drops its
  // locations (fd3). dn0 keeps heartbeating and reports a chunk again.
  Report("dn0", 22);
  Counts counts;
  for (double t = 600; t <= 4000; t += 100) {
    Heartbeat("dn0");
    Heartbeat("dn1");
    counts = TickAndCheck(t, "failure detection at " + std::to_string(t));
  }
  EXPECT_EQ(counts, (Counts{{"dn0", 1}}));
  EXPECT_EQ(engine_.catalog().Get("datanode").LookupByKey(Tuple{Value("dn2")}), nullptr);
}

}  // namespace
}  // namespace boom
