// Join-order independence (ctest label: planner).
//
// The planner orders each rule body greedily (most bound arguments first, body order on a
// tie), so the body order a program is written in picks the plan. What a program computes
// must not depend on it. Each engine-level program family below runs its reference
// workload twice: as written, and with every rule's positive body atoms reversed in the
// source. The reversed copy drives full evaluation from a different atom and breaks greedy
// ties the other way, which also sends key lookups with extra bound columns down orders
// the default plans never use. The fixpoints and the multisets of protocol messages must
// be equal. (Send order within a tick may differ: join order is observable there.)

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/boomfs/ha.h"
#include "src/boomfs/nn_program.h"
#include "src/chord/chord_program.h"
#include "src/monitor/meta.h"
#include "src/overlog/engine.h"
#include "src/paxos/paxos_program.h"
#include "src/sim/cluster.h"

namespace boom {
namespace {

void MustOk(const Status& status) { BOOM_CHECK(status.ok()) << status.ToString(); }

// `program`, or with each rule's positive body atoms in reverse order when `reversed`.
// Negated atoms, assignments and conditions keep their positions.
Program MaybeReversed(Program program, bool reversed) {
  if (!reversed) {
    return program;
  }
  for (Rule& rule : program.rules) {
    std::vector<size_t> positions;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].kind == BodyTerm::Kind::kAtom && !rule.body[i].atom.negated) {
        positions.push_back(i);
      }
    }
    for (size_t lo = 0, hi = positions.size(); lo + 1 < hi; ++lo, --hi) {
      std::swap(rule.body[positions[lo]], rule.body[positions[hi - 1]]);
    }
  }
  return program;
}

// Full engine state: every table's rows, as sorted strings (exactly the persistent
// fixpoint; event tables are empty between ticks).
std::map<std::string, std::multiset<std::string>> Snapshot(const Engine& engine) {
  std::map<std::string, std::multiset<std::string>> out;
  for (const std::string& name : engine.catalog().TableNames()) {
    std::multiset<std::string>& rows = out[name];
    engine.catalog().Get(name).ForEach(
        [&rows](const Tuple& row) { rows.insert(row.ToString()); });
  }
  return out;
}

void ExpectSameState(const Engine& written, const Engine& reversed,
                     const std::string& label) {
  auto a = Snapshot(written);
  auto b = Snapshot(reversed);
  ASSERT_EQ(a.size(), b.size()) << label << ": different table sets";
  for (const auto& [table, rows] : a) {
    ASSERT_TRUE(b.count(table)) << label << ": table " << table
                                << " missing on the reversed side";
    EXPECT_EQ(rows, b[table]) << label << ": table " << table << " diverged";
  }
}

// Different plans, or the check proves nothing: the reversed program must change at least
// one rule's join order.
void ExpectPlansDiffer(const Engine& written, const Engine& reversed) {
  EXPECT_NE(written.ExplainPlan(), reversed.ExplainPlan());
}

// Records every delivered message as "from>to table", dropping the delivery time.
void RecordDeliveries(Cluster& cluster, std::multiset<std::string>* deliveries) {
  cluster.set_trace([deliveries](const std::string& line) {
    size_t kind = line.find(' ');
    if (kind != std::string::npos && line.compare(kind + 1, 4, "dlv ") == 0) {
      deliveries->insert(line.substr(kind + 5));
    }
  });
}

struct PaxosRun {
  Cluster cluster{99};
  std::vector<std::string> peers = {"px0", "px1", "px2"};
  std::multiset<std::string> deliveries;

  explicit PaxosRun(bool reversed) {
    RecordDeliveries(cluster, &deliveries);
    for (int i = 0; i < 3; ++i) {
      PaxosProgramOptions opts;
      opts.peers = peers;
      opts.my_index = i;
      Program program = MaybeReversed(PaxosProgram(opts), reversed);
      cluster.AddOverlogNode(peers[static_cast<size_t>(i)], [program](Engine& engine) {
        Status status = engine.Install(program);
        ASSERT_TRUE(status.ok()) << status.ToString();
      });
    }
    cluster.RunUntil(2000);
    for (int k = 0; k < 5; ++k) {
      cluster.Send("px0", "px0", "px_request",
                   Tuple{Value("px0"), Value("cmd-" + std::to_string(k))});
    }
    cluster.RunUntil(6000);
    cluster.KillNode("px0");
    cluster.RunUntil(10000);
    cluster.Send("px1", "px1", "px_request", Tuple{Value("px1"), Value("after-failover")});
    cluster.RunUntil(14000);
  }
};

TEST(JoinOrderIndependence, Paxos) {
  PaxosRun written(/*reversed=*/false);
  PaxosRun reversed(/*reversed=*/true);
  ExpectPlansDiffer(*written.cluster.engine("px1"), *reversed.cluster.engine("px1"));
  for (const std::string& p : written.peers) {
    ExpectSameState(*written.cluster.engine(p), *reversed.cluster.engine(p), "paxos " + p);
  }
  EXPECT_EQ(written.deliveries, reversed.deliveries);
  EXPECT_EQ(reversed.cluster.engine("px1")->catalog().Get("decided").size(), 6u);
}

struct ChordRun {
  Cluster cluster{321};
  std::vector<std::string> addresses = {"c0", "c1", "c2"};
  std::multiset<std::string> deliveries;

  explicit ChordRun(bool reversed) {
    RecordDeliveries(cluster, &deliveries);
    for (const std::string& address : addresses) {
      ChordOptions opts;
      opts.bootstrap = "c0";
      Program program = MaybeReversed(ChordProgram(address, opts), reversed);
      cluster.AddOverlogNode(address, [program](Engine& engine) {
        Status status = engine.Install(program);
        ASSERT_TRUE(status.ok()) << status.ToString();
      });
    }
    cluster.RunUntil(8000);  // join + stabilize
  }
};

TEST(JoinOrderIndependence, Chord) {
  ChordRun written(/*reversed=*/false);
  ChordRun reversed(/*reversed=*/true);
  ExpectPlansDiffer(*written.cluster.engine("c0"), *reversed.cluster.engine("c0"));
  for (const std::string& address : written.addresses) {
    ExpectSameState(*written.cluster.engine(address), *reversed.cluster.engine(address),
                    "chord " + address);
    EXPECT_FALSE(SuccessorOf(reversed.cluster, address).empty()) << address;
  }
  EXPECT_EQ(written.deliveries, reversed.deliveries);
}

EngineOptions BareEngine(const std::string& address) {
  EngineOptions opts;
  opts.address = address;
  opts.seed = 5;
  return opts;
}

// Paxos + BOOM-FS + HA bridge stacked on one bare engine: every outbound send is recorded.
struct StackRun {
  Engine engine{BareEngine("nn0")};
  std::multiset<std::string> sends;

  explicit StackRun(bool reversed) {
    PaxosProgramOptions paxos_opts;
    paxos_opts.peers = {"nn0", "nn1", "nn2"};
    paxos_opts.my_index = 0;
    MustOk(engine.Install(MaybeReversed(PaxosProgram(paxos_opts), reversed)));
    MustOk(engine.Install(MaybeReversed(BoomFsNnProgram(), reversed)));
    MustOk(engine.Install(MaybeReversed(HaBridgeProgram(), reversed)));
    for (double t = 0; t <= 3000; t += 100) {
      if (t == 1500) {
        MustOk(engine.Enqueue("ha_request",
                              Tuple{Value("nn0"), Value(int64_t{1}), Value("client"),
                                    Value("mkdir"), Value("/ha-dir"), Value("")}));
      }
      Engine::TickResult result = engine.Tick(t);
      EXPECT_TRUE(result.errors.empty()) << result.errors.front();
      for (const Engine::Send& send : result.sends) {
        sends.insert(send.dest + " " + send.table + " " + send.tuple.ToString());
      }
    }
  }
};

TEST(JoinOrderIndependence, HaBridgeStack) {
  StackRun written(/*reversed=*/false);
  StackRun reversed(/*reversed=*/true);
  ExpectPlansDiffer(written.engine, reversed.engine);
  EXPECT_EQ(written.sends, reversed.sends);
  ExpectSameState(written.engine, reversed.engine, "ha_stack");
  EXPECT_FALSE(reversed.sends.empty()) << "stack produced no protocol traffic";
}

// Monitor invariants over the NameNode program: violations fire identically (watch order
// may differ with join order, so compare as multisets).
struct InvariantRun {
  Engine engine{BareEngine("nn")};
  std::vector<std::string> violations;

  explicit InvariantRun(bool reversed) {
    MustOk(engine.Install(MaybeReversed(BoomFsNnProgram(), reversed)));
    MustOk(InstallInvariants(
        engine, MaybeReversed(BoomFsInvariantProgram(3, true), reversed), &violations));
    MustOk(engine.Enqueue("file", Tuple{Value(1), Value(0), Value("f"), Value(false)}));
    MustOk(
        engine.Enqueue("file", Tuple{Value(5), Value(77), Value("orphan"), Value(false)}));
    MustOk(engine.Enqueue("fqpath", Tuple{Value("/alias"), Value(1)}));
    for (int c = 1; c <= 3; ++c) {
      MustOk(engine.Enqueue("fchunk", Tuple{Value(c * 10), Value(1)}));
    }
    int reps = 0;
    for (int c = 1; c <= 3; ++c) {
      int want = c == 1 ? 4 : (c == 2 ? 1 : 3);
      for (int r = 0; r < want; ++r) {
        MustOk(engine.Enqueue("hb_chunk",
                              Tuple{Value("dn" + std::to_string(reps++)), Value(c * 10)}));
      }
    }
    for (double t = 0; t <= 500; t += 100) {
      engine.Tick(t);
    }
  }
};

TEST(JoinOrderIndependence, BoomFsInvariants) {
  InvariantRun written(/*reversed=*/false);
  InvariantRun reversed(/*reversed=*/true);
  ExpectPlansDiffer(written.engine, reversed.engine);
  std::multiset<std::string> a(written.violations.begin(), written.violations.end());
  std::multiset<std::string> b(reversed.violations.begin(), reversed.violations.end());
  EXPECT_EQ(a, b);
  ExpectSameState(written.engine, reversed.engine, "boomfs_invariants");
  EXPECT_GE(reversed.violations.size(), 3u);
}

}  // namespace
}  // namespace boom
