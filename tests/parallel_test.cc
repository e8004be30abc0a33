// Parallel execution determinism tests: the multi-core paths (cluster tick batching,
// atomic tuple refcounts, the sharded interner) must be bit-identical to serial execution.
// Parallelism lives only in the Cluster, which ticks whole engines on pool threads; an
// engine's own fixpoint is always serial. A parallel run that differs from serial by one byte
// of trace or one derivation is a bug, full stop — reproducibility-from-seed is the
// architecture's core invariant and speed never gets to trade against it.
//
// This suite is also the TSan workload: scripts/check.sh rebuilds with
// -DBOOM_SANITIZE=thread and runs the `parallel` label, so every shared-state fast path
// exercised here is raced under the sanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/chaos/fault_schedule.h"
#include "src/chaos/runner.h"
#include "src/chaos/scenario.h"
#include "src/overlog/engine.h"
#include "src/sim/cluster.h"

namespace boom {
namespace {

// ---------------------------------------------------------------------------
// Chaos traces: byte-identical at any thread count
// ---------------------------------------------------------------------------

ChaosRunResult TracedRun(const std::string& scenario_name, uint64_t seed,
                         size_t worker_threads) {
  std::unique_ptr<ChaosScenario> scenario = MakeScenario(scenario_name);
  FaultSchedule schedule = GenerateFaultSchedule(seed, scenario->FaultProfile());
  ChaosRunOptions options;
  options.record_trace = true;
  options.worker_threads = worker_threads;
  return RunChaosOnce(*scenario, seed, schedule, options);
}

class ParallelTraceDeterminism : public ::testing::TestWithParam<std::string> {};

// Same seed, threads in {1, 2, 4} => byte-identical fault/network traces and identical
// outcomes. This is the hard gate on the cluster dispatcher: everything that samples the
// Rng, assigns event seqs, or formats trace lines must replay in event order.
TEST_P(ParallelTraceDeterminism, TraceByteIdenticalAcrossThreadCounts) {
  const std::string scenario = GetParam();
  for (uint64_t seed : {uint64_t{3}, uint64_t{11}}) {
    ChaosRunResult serial = TracedRun(scenario, seed, 1);
    ASSERT_FALSE(serial.trace.empty())
        << scenario << " seed " << seed << ": no trace recorded";
    for (size_t threads : {size_t{2}, size_t{4}}) {
      ChaosRunResult parallel = TracedRun(scenario, seed, threads);
      EXPECT_EQ(serial.trace, parallel.trace)
          << scenario << " seed " << seed << ": trace diverged at " << threads
          << " threads";
      EXPECT_EQ(serial.passed, parallel.passed);
      EXPECT_EQ(serial.violations, parallel.violations);
      EXPECT_EQ(serial.end_ms, parallel.end_ms);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ParallelTraceDeterminism,
                         ::testing::ValuesIn(ScenarioNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Cluster-level batching on a plain (non-chaos) cluster
// ---------------------------------------------------------------------------

// A 4-node cluster where every node ticks at the same virtual times. Parallel dispatch
// must batch those ticks (counter check), and traces + final states must match serial.
TEST(ParallelCluster, BatchedTicksMatchSerial) {
  auto run = [](size_t threads, std::vector<std::string>* trace) {
    ClusterOptions copts;
    copts.worker_threads = threads;
    Cluster cluster(17, copts);
    cluster.set_trace([trace](const std::string& line) { trace->push_back(line); });
    for (int i = 0; i < 4; ++i) {
      std::string me = "node" + std::to_string(i);
      std::string peer = "node" + std::to_string((i + 1) % 4);
      cluster.AddOverlogNode(me, [me, peer](Engine& e) {
        Status s = e.InstallSource(
            "program ring;\n"
            "table beat(N) keys(0);\n"
            "table seen(From, N) keys(0, 1);\n"
            "timer tock(250);\n"
            "t1 beat(N) :- tock(_), N := f_now();\n"
            "t2 seen(@Peer, Me) :- beat(_), Me := f_me(), Peer := \"" + peer + "\";\n");
        EXPECT_TRUE(s.ok()) << s.ToString();
      });
    }
    cluster.RunUntil(2000);
    std::string state;
    for (int i = 0; i < 4; ++i) {
      Engine* e = cluster.engine("node" + std::to_string(i));
      std::vector<Tuple> rows = e->catalog().Get("seen").Rows();
      std::sort(rows.begin(), rows.end());
      for (const Tuple& row : rows) {
        state += "node" + std::to_string(i) + ":" + row.ToString() + "\n";
      }
    }
    return std::make_pair(state, cluster.parallel_tick_batches());
  };
  std::vector<std::string> trace1;
  auto [state1, batches1] = run(1, &trace1);
  EXPECT_EQ(batches1, 0u);
  EXPECT_FALSE(state1.empty());
  for (size_t threads : {size_t{2}, size_t{4}}) {
    std::vector<std::string> traceN;
    auto [stateN, batchesN] = run(threads, &traceN);
    EXPECT_EQ(state1, stateN) << threads << " threads";
    EXPECT_EQ(trace1, traceN) << threads << " threads";
    EXPECT_GT(batchesN, 0u) << threads
                            << " threads: same-time ticks never formed a batch";
  }
}

// ---------------------------------------------------------------------------
// Atomic refcounts and the sharded interner under real thread churn
// ---------------------------------------------------------------------------

// Copy-on-write tuples shared across pool threads: concurrent copies, hash computations,
// set() clones, and destruction. Correctness here is "no lost updates, no double frees,
// values intact"; under TSan it is also "no data races on the refcount or hash cache".
TEST(ParallelRefcount, SharedTupleStress) {
  Tuple::EnableConcurrentMode();
  ThreadPool pool(3);
  std::vector<Tuple> shared;
  for (int i = 0; i < 64; ++i) {
    shared.push_back(Tuple{Value(int64_t{i}), Value("payload" + std::to_string(i)),
                           Value(static_cast<double>(i))});
  }
  std::atomic<uint64_t> hash_sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.RunBatch(16, [&](size_t k) {
      uint64_t local = 0;
      for (int rep = 0; rep < 200; ++rep) {
        const Tuple& src = shared[(k * 31 + static_cast<size_t>(rep)) % shared.size()];
        Tuple copy = src;                    // shared-rep refcount bump
        local += copy.hash();                // racing hash-cache fills
        Tuple mine = copy;
        mine.set(0, Value(int64_t{static_cast<int64_t>(k)}));  // CoW clone
        ASSERT_EQ(mine[0].as_int(), static_cast<int64_t>(k));
        ASSERT_EQ(copy[0].as_int(),
                  static_cast<int64_t>((k * 31 + static_cast<size_t>(rep)) %
                                       shared.size()));
      }
      hash_sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  // Source tuples survived every concurrent copy/clone/destroy cycle intact.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(shared[static_cast<size_t>(i)][0].as_int(), i);
    EXPECT_EQ(shared[static_cast<size_t>(i)][1].as_string(),
              "payload" + std::to_string(i));
  }
  EXPECT_NE(hash_sum.load(), 0u);
}

// Engine migration across pool threads pins interned strings in per-thread caches; the
// invalidate + broadcast-flush protocol must release them all, restoring serial retention.
TEST(ParallelInterner, CacheMigrationReleasesPins) {
  ThreadPool pool(3);
  // Flush everything this test binary interned so far, so the baseline is clean.
  InvalidateInternCaches();
  pool.Broadcast([] { FlushInternCacheForCurrentThread(); });
  FlushInternCacheForCurrentThread();
  const size_t baseline = InternedStringCount();
  // Each worker interns a distinct set of strings and drops the returned pointers; the
  // thread-local caches are now the only thing keeping them alive.
  pool.Broadcast([] {
    static std::atomic<int> next{0};
    int me = next.fetch_add(1);
    for (int i = 0; i < 100; ++i) {
      InternString("migr_w" + std::to_string(me) + "_" + std::to_string(i));
    }
  });
  EXPECT_GT(InternedStringCount(), baseline)
      << "worker caches should pin recently interned strings";
  InvalidateInternCaches();
  pool.Broadcast([] { FlushInternCacheForCurrentThread(); });
  FlushInternCacheForCurrentThread();
  EXPECT_LE(InternedStringCount(), baseline)
      << "invalidate+flush left stale pins on pool threads";
}

// Concurrent interning of overlapping strings across threads: one canonical pointer per
// string, shard mutexes doing their job (a TSan workload above all).
TEST(ParallelInterner, ConcurrentInternIsCanonical) {
  ThreadPool pool(3);
  std::vector<InternedStringPtr> canonical(32);
  for (size_t i = 0; i < canonical.size(); ++i) {
    canonical[i] = InternString("shared_intern_" + std::to_string(i));
  }
  pool.RunBatch(16, [&](size_t k) {
    for (int rep = 0; rep < 100; ++rep) {
      size_t i = (k + static_cast<size_t>(rep)) % canonical.size();
      InternedStringPtr p = InternString("shared_intern_" + std::to_string(i));
      ASSERT_EQ(p.get(), canonical[i].get());
    }
  });
}

// Threads intern and drop the same strings in a tight loop, so handles die and revive
// concurrently. The strings are longer than the thread-local cache admits, so nothing pins
// them. A revived entry must be re-keyed on its new handle's text; a map key left viewing
// the freed text of the dead handle shows up as a use-after-free under ASan or TSan.
TEST(ParallelInterner, ChurnRevivesEntriesSafely) {
  ThreadPool pool(3);
  std::vector<std::string> texts;
  for (int i = 0; i < 2; ++i) {  // few strings, so every thread contends on each
    texts.push_back(std::string(300, static_cast<char>('a' + i)));
  }
  const size_t baseline = InternedStringCount();
  pool.RunBatch(16, [&](size_t k) {
    for (int rep = 0; rep < 20000; ++rep) {
      const std::string& text = texts[(k + static_cast<size_t>(rep)) % texts.size()];
      InternedStringPtr p = InternString(text);
      ASSERT_EQ(p->text, text);
      ASSERT_EQ(p->hash, std::hash<std::string>{}(text));
    }
  });
  EXPECT_EQ(InternedStringCount(), baseline) << "a dropped long string stayed interned";
  // Every entry still answers lookups with a canonical handle.
  for (const std::string& text : texts) {
    InternedStringPtr a = InternString(text);
    EXPECT_EQ(a.get(), InternString(text).get());
    EXPECT_EQ(a->text, text);
  }
}

}  // namespace
}  // namespace boom
