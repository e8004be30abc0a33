// The four system-benchmark workloads. Each builds its own seeded cluster through the
// public setup APIs, runs its timed phase under a Harness, checks its correctness oracle,
// prints one JSON line and returns the process exit code (nonzero on any oracle failure).
// README.md explains why each workload exists and which layers it stresses.

#ifndef BENCH_SYSTEM_WORKLOADS_H_
#define BENCH_SYSTEM_WORKLOADS_H_

#include "bench/system/harness.h"

namespace boom::sysbench {

// Federated BOOM-FS (2 Paxos groups x 3 replicas, 8 partitions), closed loop, one client:
// create/rm/rename/exists/ls churn over four large directories.
int RunFedChurn(const Options& options);
// One NameNode with a 1.6 ms service time behind the admission gateway, open loop:
// Poisson arrivals from three tenants with a 4x burst.
int RunGwOpen(const Options& options);
// BOOM-MR FIFO JobTracker with 20 TaskTrackers, open loop: 100 jobs, one every 1.5 s.
int RunMrJobs(const Options& options);
// One NameNode and 5 DataNodes, closed loop, one client: 128 KiB writes, verified reads, rm.
int RunDnPipeline(const Options& options);

}  // namespace boom::sysbench

#endif  // BENCH_SYSTEM_WORKLOADS_H_
