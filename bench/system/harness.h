// Measurement harness shared by the system-benchmark workloads.
//
// Every number is taken from outside the system under test: wall time around calls into
// public APIs (steady_clock), virtual time from Cluster::now(), and public counters
// (Engine::stats(), Table probe/rebuild counters, Cluster::net_stats(), the metrics
// registry) read as deltas over the timed phase. The traced variant additionally attaches
// a Tracer and enables per-rule profiling on every hosted engine; neither samples the
// cluster Rng or schedules events, so a traced run must reproduce the untraced run's
// deterministic results exactly (run.py checks this).
//
// A run prints one JSON line. "wall" holds host-dependent measurements, "det" holds
// values that are a pure function of (workload, seed, scale) and must be identical in
// every repetition, and "trace" (traced runs only) holds the per-layer breakdown.

#ifndef BENCH_SYSTEM_HARNESS_H_
#define BENCH_SYSTEM_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/cluster.h"
#include "src/telemetry/span.h"

namespace boom::sysbench {

using WallClock = std::chrono::steady_clock;

struct Options {
  uint64_t seed = 1;
  // Multiplies op counts, preload sizes and open-loop horizons; smoke runs use ~0.02.
  double scale = 1.0;
  bool trace = false;
  std::string spans_out;  // traced runs: write Tracer::ToJson() here when nonempty
};

// Scales a count, keeping at least `min`.
int Scaled(const Options& options, int n, int min = 1);

class Harness {
 public:
  Harness(std::string workload, Options options);
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // Registers the cluster and the addresses of every Overlog node it hosts. Counters and
  // profiles are read from exactly these engines.
  void Attach(Cluster& cluster, std::vector<std::string> engines);

  // Ends set-up (which runs from construction to here) and starts the timed phase:
  // snapshots counters and, when tracing, attaches the tracer and starts profiling.
  void BeginTimed();
  // Ends the timed phase: snapshots counters and stops the phase clocks.
  void EndTimed();
  // Closes one step of set-up or one slice of the timed phase: records the wall time since
  // the previous checkpoint. Workloads call it after every set-up step and every
  // Cluster::RunUntil step, at points that depend only on the seed, so step i does the
  // same work in every repetition and run.py can combine repetitions step by step.
  void Checkpoint();

  // One operation. A benchmark-owned root span is started when `own_root` (ops whose
  // client call does not start its own root trace); issue the op's client calls inside
  // a Cluster::SpanScope on `root` so they join its trace. Ops are numbered in start
  // order, which is deterministic.
  struct Op {
    size_t index = 0;
    SpanContext root;
    double virt_start_ms = 0;
    WallClock::time_point wall_start;
  };
  Op StartOp(const std::string& client, bool own_root = true);
  // Records the op's latency on both clocks; `ok` = it completed successfully.
  void FinishOp(const Op& op, bool ok);
  // An op that was started but never completed (counted as attempted and failed).
  void AbandonOp() {
    ++attempted_;
    ++failed_;
  }

  // Oracle failure: the run is reported incorrect and the process exits nonzero.
  void Fail(std::string what);
  // Mixes workload outcomes (op results, final listings) into the determinism digest.
  void Digest(std::string_view data);
  void Digest(int64_t value);

  // Workload-specific client-side counts reported as deterministic metrics.
  void CountRequests(uint64_t n) { requests_ += n; }
  void CountRetry() { ++retries_; }
  void CountGatewayAttempt(bool shed) {
    ++gw_attempts_;
    gw_sheds_ += shed ? 1 : 0;
  }

  // Prints the run's JSON line and returns the process exit code.
  int Report();

 private:
  struct Counters {
    uint64_t ticks = 0;
    uint64_t derivations = 0;
    uint64_t index_rebuilds = 0;
    uint64_t probes = 0;
    uint64_t probe_hits = 0;
    uint64_t messages = 0;
  };
  Counters Snapshot() const;
  std::string TraceJson();
  std::string CompileJson();

  std::string workload_;
  Options options_;
  Cluster* cluster_ = nullptr;
  std::vector<std::string> engines_;
  std::unique_ptr<Tracer> tracer_;

  bool timed_ = false;
  WallClock::time_point timed_start_;
  WallClock::time_point last_checkpoint_;
  double timed_s_ = 0;
  double virt_start_ms_ = 0;
  double virt_last_done_ms_ = 0;  // completion of the last successful op
  Counters before_;
  Counters after_;
  uint64_t rows_end_ = 0;
  uint64_t paxos_rows_end_ = 0;

  std::vector<double> setup_ms_;  // set-up steps
  std::vector<double> slice_ms_;  // timed-phase slices
  std::vector<double> op_wall_us_;  // by op index; -1 for ops that did not succeed
  std::vector<double> op_virt_ms_;  // successful ops
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t requests_ = 0;
  uint64_t retries_ = 0;
  uint64_t gw_attempts_ = 0;
  uint64_t gw_sheds_ = 0;
  uint64_t digest_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace boom::sysbench

#endif  // BENCH_SYSTEM_HARNESS_H_
