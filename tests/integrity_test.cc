// Data-plane integrity tests (ctest label: integrity): the chunk checksum kernel's
// single-byte detection guarantee and pinned values, checksummed chunk stores with
// last-writer-wins rewrite semantics, replicas sharing one payload buffer with private
// copy-on-corrupt, terminal client failure against dead NameNodes, chunk abandonment, and
// NameNode safe mode for both implementations.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/boomfs/boomfs.h"
#include "src/boomfs/protocol.h"

namespace boom {
namespace {

// A deterministic byte pattern covering all 256 byte values.
std::string ChecksumPattern(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((i * 31 + 7) & 0xff);
  }
  return s;
}

// Flipping any single bit at `at`, or replacing the byte with a few other values, changes
// the checksum: the guarantee FlipByte's corruption model relies on.
void ExpectByteChangeDetected(std::string data, size_t at) {
  const int64_t clean = ChunkChecksum(data);
  const char original = data[at];
  for (int bit = 0; bit < 8; ++bit) {
    data[at] = static_cast<char>(original ^ (1 << bit));
    ASSERT_NE(ChunkChecksum(data), clean) << "len " << data.size() << " at " << at << " bit "
                                          << bit;
  }
  for (unsigned char replacement : {0x00, 0x20, 0x7f, 0xff}) {
    data[at] = static_cast<char>(replacement);
    if (data[at] != original) {
      ASSERT_NE(ChunkChecksum(data), clean)
          << "len " << data.size() << " at " << at << " byte " << int{replacement};
    }
  }
}

TEST(ChecksumIntegrityTest, EveryByteChangeDetectedInShortChunks) {
  for (size_t len = 0; len <= 130; ++len) {
    const std::string data = ChecksumPattern(len);
    for (size_t at = 0; at < len; ++at) {
      ExpectByteChangeDetected(data, at);
    }
  }
}

TEST(ChecksumIntegrityTest, SampledByteChangesDetectedInFullChunk) {
  const size_t len = 64 * 1024;
  const std::string data = ChecksumPattern(len);
  std::set<size_t> offsets;
  for (size_t at = 0; at < 32; ++at) {
    offsets.insert(at);
    offsets.insert(len - 1 - at);
  }
  for (size_t at = 0; at < len; at += 16) {
    offsets.insert(at + (at / 16) % 16);
  }
  ASSERT_GE(offsets.size(), 4096u);
  for (size_t at : offsets) {
    ExpectByteChangeDetected(data, at);
  }
  // One byte short of a full chunk: its last 31 bytes take the trailing-byte path.
  const std::string odd = ChecksumPattern(len - 1);
  for (size_t at = odd.size() - 31; at < odd.size(); ++at) {
    ExpectByteChangeDetected(odd, at);
  }
}

// Checksums travel with chunks between processes and are checked against stored replicas,
// so the kernel's values are pinned: a change to them must be deliberate.
TEST(ChecksumIntegrityTest, KnownAnswers) {
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(0)), int64_t{6253830521418574311});
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(1)), int64_t{-3951001444317214876});
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(7)), int64_t{-2618905722566597952});
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(8)), int64_t{-6338521978874182449});
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(31)), int64_t{-931364926925119567});
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(32)), int64_t{-625955950623792267});
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(33)), int64_t{-233889715879689187});
  EXPECT_EQ(ChunkChecksum(ChecksumPattern(64 * 1024)), int64_t{1629179172032664726});
}

// A dn_write that re-sends an existing chunk id with different bytes replaces the stored
// copy (last writer wins). The client's pipeline recovery legitimately re-sends chunk ids
// after a partial write; silently keeping the stale bytes (the old emplace behaviour)
// would serve data the writer never acknowledged.
TEST(DataNodeIntegrityTest, RewriteIsLastWriterWins) {
  Cluster cluster(101);
  FsSetupOptions opts;
  opts.kind = FsKind::kBoomFs;
  opts.num_datanodes = 3;
  opts.replication_factor = 3;
  opts.chunk_size = 16;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  cluster.RunUntil(1000);

  ASSERT_TRUE(fs.Mkdir("/d"));
  const std::string original = "ORIGINAL-CONTENT";  // exactly one chunk
  ASSERT_TRUE(fs.WriteFile("/d/f", original));
  Value chunks;
  ASSERT_TRUE(fs.Op(kCmdChunks, "/d/f", &chunks));
  ASSERT_EQ(chunks.as_list().size(), 1u);
  int64_t chunk = chunks.as_list()[0].as_int();
  cluster.RunUntil(cluster.now() + 2000);  // replication settles on all three DataNodes

  const std::string rewrite = "REWRITTEN-BYTES!";
  for (const std::string& dn : handles.datanodes) {
    cluster.Send(dn, dn, kDnWrite,
                 Tuple{Value(dn), Value(chunk), Value(rewrite),
                       Value(ChunkChecksum(rewrite)), Value(ValueList{}),
                       Value(std::string()), Value(int64_t{0})});
  }
  cluster.RunUntil(cluster.now() + 500);

  for (const std::string& dn : handles.datanodes) {
    EXPECT_TRUE(dynamic_cast<DataNode*>(cluster.actor(dn))->HasChunk(chunk)) << dn;
  }
  std::string got;
  ASSERT_TRUE(fs.ReadFile("/d/f", &got));
  EXPECT_EQ(got, rewrite);
}

// Records the dn_read_data answers sent to it, so a test can read one chunk from one
// chosen DataNode.
class ReadProbe : public Actor {
 public:
  using Actor::Actor;
  void OnMessage(const Message& msg, Cluster& /*cluster*/) override {
    if (msg.table == kDnReadData) {  // (Client, ReqId, Ok, Data, Checksum)
      answers.push_back(msg.tuple);
    }
  }
  std::vector<Tuple> answers;
};

// Every replica of a chunk holds the one payload Value the writer created: a
// replication-3 write interns the payload once, and the entry dies with the last replica.
TEST(DataNodeIntegrityTest, ReplicasShareOnePayload) {
  Cluster cluster(101);
  FsSetupOptions opts;
  opts.kind = FsKind::kBoomFs;
  opts.num_datanodes = 3;
  opts.replication_factor = 3;
  opts.chunk_size = 8192;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  cluster.RunUntil(1000);
  ASSERT_TRUE(fs.Mkdir("/d"));

  // One chunk, long enough to skip the thread-local intern cache, and unique to this test.
  std::string payload(4096, 'r');
  payload.replace(0, 22, "replicas-share-payload");
  ASSERT_TRUE(fs.WriteFile("/d/f", payload));
  cluster.RunUntil(cluster.now() + 3000);  // every timeout armed by the write has fired
  for (const std::string& dn : handles.datanodes) {
    ASSERT_EQ(dynamic_cast<DataNode*>(cluster.actor(dn))->stored_bytes(), payload.size())
        << dn;
  }

  // The payload is already interned (looking it up adds no entry), and the handle is
  // shared by exactly the three replicas plus this lookup.
  size_t count = InternedStringCount();
  InternedStringPtr handle = InternString(payload);
  EXPECT_EQ(InternedStringCount(), count);
  EXPECT_EQ(handle.use_count(), 4);
  std::weak_ptr<const InternedString> weak = handle;
  handle.reset();

  ASSERT_TRUE(fs.Rm("/d/f"));
  cluster.RunUntil(cluster.now() + 3000);  // dn_delete reaches every DataNode
  for (const std::string& dn : handles.datanodes) {
    EXPECT_EQ(dynamic_cast<DataNode*>(cluster.actor(dn))->stored_bytes(), 0u) << dn;
  }
  EXPECT_TRUE(weak.expired()) << "payload outlived its last replica";
  EXPECT_LT(InternedStringCount(), count);
}

// Corruption at rest copies the shared payload before flipping a byte: the other
// replicas keep serving the original bytes, which still match the writer's checksum.
TEST(DataNodeIntegrityTest, CorruptAtRestIsPrivateToOneReplica) {
  Cluster cluster(101);
  FsSetupOptions opts;
  opts.kind = FsKind::kBoomFs;
  opts.num_datanodes = 3;
  opts.replication_factor = 3;
  opts.chunk_size = 8192;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  auto probe_actor = std::make_unique<ReadProbe>("probe");
  ReadProbe* probe = probe_actor.get();
  cluster.AddActor(std::move(probe_actor));
  cluster.RunUntil(1000);
  ASSERT_TRUE(fs.Mkdir("/d"));

  const std::string payload(1024, 'c');
  ASSERT_TRUE(fs.WriteFile("/d/f", payload));
  Value chunks;
  ASSERT_TRUE(fs.Op(kCmdChunks, "/d/f", &chunks));
  ASSERT_EQ(chunks.as_list().size(), 1u);
  int64_t chunk = chunks.as_list()[0].as_int();
  cluster.RunUntil(cluster.now() + 2000);

  const std::string& rotten = handles.datanodes[0];
  ASSERT_TRUE(dynamic_cast<DataNode*>(cluster.actor(rotten))->CorruptStoredChunk(chunk));
  for (size_t i = 0; i < handles.datanodes.size(); ++i) {
    cluster.Send("probe", handles.datanodes[i], kDnRead,
                 Tuple{Value(handles.datanodes[i]), Value(chunk), Value("probe"),
                       Value(static_cast<int64_t>(i))});
  }
  cluster.RunUntil(cluster.now() + 500);

  ASSERT_EQ(probe->answers.size(), handles.datanodes.size());
  for (const Tuple& answer : probe->answers) {
    const std::string& dn = handles.datanodes[static_cast<size_t>(answer[1].as_int())];
    if (dn == rotten) {
      EXPECT_FALSE(answer[2].Truthy()) << "corrupt replica was served";
      continue;
    }
    ASSERT_TRUE(answer[2].Truthy()) << dn;
    EXPECT_EQ(answer[3].as_string(), payload) << dn;
    EXPECT_EQ(ChunkChecksum(answer[3].as_string()), answer[4].as_int()) << dn;
    EXPECT_EQ(ChunkChecksum(answer[3].as_string()), ChunkChecksum(payload)) << dn;
  }
}

// With every NameNode dead, namespace requests and composite reads terminate with
// cb(false) after bounded (virtual) time — including request_timeout_ms = 0, which used to
// mean "wait forever" and now selects the default timeout.
TEST(ClientRetryTest, DeadNameNodeSurfacesTerminalFailure) {
  Cluster cluster(202);
  FsSetupOptions opts;
  opts.kind = FsKind::kBoomFs;
  opts.num_datanodes = 3;
  opts.chunk_size = 16;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);

  FsClientOptions retry_opts;
  retry_opts.namenode = handles.namenode;
  retry_opts.request_timeout_ms = 0;  // = default timeout, never "wait forever"
  retry_opts.max_retries = 2;
  auto retry_client = std::make_unique<FsClient>("retry_client", retry_opts);
  FsClient* retry = retry_client.get();
  cluster.AddActor(std::move(retry_client));

  cluster.RunUntil(1000);
  ASSERT_TRUE(fs.Mkdir("/d"));
  ASSERT_TRUE(fs.WriteFile("/d/f", "bytes that exist"));
  cluster.KillNode(handles.namenode);

  double start = cluster.now();
  bool done1 = false, ok1 = true;
  handles.client->Mkdir(cluster, "/x", [&](bool ok, const Value&) {
    ok1 = ok;
    done1 = true;
  });
  bool done2 = false, ok2 = true;
  retry->Mkdir(cluster, "/y", [&](bool ok, const Value&) {
    ok2 = ok;
    done2 = true;
  });
  bool done3 = false, ok3 = true;
  handles.client->ReadFile(cluster, "/d/f", [&](bool ok, const std::string&) {
    ok3 = ok;
    done3 = true;
  });
  cluster.RunUntil(start + 30000);
  EXPECT_TRUE(done1);
  EXPECT_FALSE(ok1);
  EXPECT_TRUE(done2) << "retries against a dead NameNode never terminated";
  EXPECT_FALSE(ok2);
  EXPECT_TRUE(done3) << "composite read against a dead NameNode never terminated";
  EXPECT_FALSE(ok3);
}

// Abandon detaches a chunk from its file and garbage-collects the replicas, for both
// NameNode implementations (the client uses it to discard a half-written chunk before
// requesting a fresh pipeline).
class AbandonTest : public ::testing::TestWithParam<FsKind> {};

TEST_P(AbandonTest, AbandonDetachesAndGarbageCollectsChunk) {
  Cluster cluster(505);
  FsSetupOptions opts;
  opts.kind = GetParam();
  opts.num_datanodes = 4;
  opts.replication_factor = 3;
  opts.chunk_size = 16;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  cluster.RunUntil(1000);

  ASSERT_TRUE(fs.Mkdir("/a"));
  ASSERT_TRUE(fs.WriteFile("/a/f", "twenty bytes exactly"));  // two chunks
  cluster.RunUntil(cluster.now() + 2000);
  Value chunks;
  ASSERT_TRUE(fs.Op(kCmdChunks, "/a/f", &chunks));
  ASSERT_EQ(chunks.as_list().size(), 2u);
  int64_t victim = chunks.as_list()[0].as_int();

  cluster.Send(handles.client->address(), handles.namenode, "ns_request",
               Tuple{Value(handles.namenode), Value(int64_t{990001}),
                     Value(handles.client->address()), Value(kCmdAbandon), Value("/a/f"),
                     Value(victim)});
  cluster.RunUntil(cluster.now() + 3000);

  Value after;
  ASSERT_TRUE(fs.Op(kCmdChunks, "/a/f", &after));
  ASSERT_EQ(after.as_list().size(), 1u);
  EXPECT_NE(after.as_list()[0].as_int(), victim);
  for (const std::string& dn : handles.datanodes) {
    EXPECT_FALSE(dynamic_cast<DataNode*>(cluster.actor(dn))->HasChunk(victim))
        << dn << " still stores the abandoned chunk";
  }
}

INSTANTIATE_TEST_SUITE_P(BothFileSystems, AbandonTest,
                         ::testing::Values(FsKind::kBoomFs, FsKind::kHdfsBaseline),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           return info.param == FsKind::kBoomFs ? "BoomFs" : "HdfsBaseline";
                         });

// Overlog safe mode: with an owned-but-unreported chunk the NameNode answers namespace
// reads but refuses locations; a single chunk report (>= 60% of 1 chunk) flips it out of
// safe mode long before the timeout.
TEST(SafeModeTest, OverlogNameNodeDefersLocationsUntilReports) {
  Cluster cluster(303);
  NnProgramOptions prog;  // defaults: check 200ms, frac 60%, timeout 5000ms, grace 400ms
  Program program = BoomFsNnProgram(prog);
  // Seed a namespace that owns one chunk, as if restored from a replicated log.
  program.facts.push_back({"file", Tuple{Value(7), Value(0), Value("f"), Value(false)}});
  program.facts.push_back({"fchunk", Tuple{Value(42), Value(7)}});
  cluster.AddOverlogNode("nn", [program](Engine& engine) {
    Status status = engine.Install(program);
    ASSERT_TRUE(status.ok()) << status.ToString();
  });
  FsClientOptions copts;
  copts.namenode = "nn";
  auto client = std::make_unique<FsClient>("client", copts);
  FsClient* c = client.get();
  cluster.AddActor(std::move(client));

  cluster.RunUntil(600);  // past the empty-namespace grace; chunk 42 is unreported
  bool done = false, ok = true;
  Value payload;
  c->Locations(cluster, 42, [&](bool o, const Value& p) {
    ok = o;
    payload = p;
    done = true;
  });
  cluster.RunUntil(cluster.now() + 300);
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(payload.as_string(), "safe mode");

  // Namespace reads are never gated.
  bool edone = false, eok = false;
  c->Exists(cluster, "/f", [&](bool o, const Value& p) {
    eok = o && p.Truthy();
    edone = true;
  });
  cluster.RunUntil(cluster.now() + 300);
  ASSERT_TRUE(edone);
  EXPECT_TRUE(eok);

  // One report covers 100% of the expected chunks: safe mode exits on the next check.
  cluster.Send("nn", "nn", "dn_heartbeat", Tuple{Value("nn"), Value("dnX")});
  cluster.Send("nn", "nn", "dn_chunk_report", Tuple{Value("nn"), Value("dnX"), Value(42)});
  cluster.RunUntil(cluster.now() + 500);  // well under the 5000ms timeout
  done = false;
  ok = false;
  c->Locations(cluster, 42, [&](bool o, const Value& p) {
    ok = o;
    payload = p;
    done = true;
  });
  cluster.RunUntil(cluster.now() + 300);
  ASSERT_TRUE(done);
  ASSERT_TRUE(ok) << payload.ToString();
  ASSERT_TRUE(payload.is_list());
  ASSERT_EQ(payload.as_list().size(), 1u);
  EXPECT_EQ(payload.as_list()[0].as_string(), "dnX");
}

// HDFS baseline: a restarted NameNode keeps its namespace but re-enters safe mode until
// the DataNodes' full reports rebuild the location table — then serves again, well before
// the unconditional timeout.
TEST(SafeModeTest, HdfsNameNodeRestartDefersUntilReports) {
  Cluster cluster(404);
  FsSetupOptions opts;
  opts.kind = FsKind::kHdfsBaseline;
  opts.num_datanodes = 4;
  opts.replication_factor = 3;
  opts.chunk_size = 16;
  opts.heartbeat_period_ms = 300;
  FsHandles handles = SetupFs(cluster, opts);
  SyncFs fs(cluster, handles.client, /*timeout_ms=*/60000);
  cluster.RunUntil(1000);

  const std::string payload = "safe mode payload!";
  ASSERT_TRUE(fs.Mkdir("/s"));
  ASSERT_TRUE(fs.WriteFile("/s/f", payload));
  cluster.RunUntil(cluster.now() + 2000);
  Value chunks;
  ASSERT_TRUE(fs.Op(kCmdChunks, "/s/f", &chunks));
  ASSERT_EQ(chunks.as_list().size(), 2u);
  int64_t chunk = chunks.as_list()[0].as_int();

  auto* nn = dynamic_cast<HdfsNameNode*>(cluster.actor(handles.namenode));
  ASSERT_NE(nn, nullptr);
  EXPECT_FALSE(nn->in_safe_mode());
  cluster.KillNode(handles.namenode);
  cluster.RunUntil(cluster.now() + 500);
  cluster.RestartNode(handles.namenode, /*fresh_state=*/false);
  double restarted = cluster.now();
  cluster.RunUntil(restarted + 50);
  EXPECT_TRUE(nn->in_safe_mode());

  // Namespace survives the restart and is served during safe mode; locations are not.
  ASSERT_TRUE(fs.Exists("/s/f"));
  bool done = false, ok = true;
  Value response;
  handles.client->Locations(cluster, chunk, [&](bool o, const Value& p) {
    ok = o;
    response = p;
    done = true;
  });
  cluster.RunUntil(cluster.now() + 300);
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(response.as_string(), "safe mode");

  // Full reports (every 4th heartbeat) cover both chunks well before the 5000ms timeout.
  cluster.RunUntil(restarted + 3000);
  EXPECT_FALSE(nn->in_safe_mode());
  std::string got;
  ASSERT_TRUE(fs.ReadFile("/s/f", &got));
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace boom
