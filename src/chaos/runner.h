// The chaos runner: executes one scenario under one fault schedule, asserting every
// invariant checker at periodic quiescent checkpoints, then heals the cluster, lets it
// settle, and runs the final (liveness-inclusive) checks.
//
// The forced HealAll at the horizon is what keeps the shrinker honest: deleting fault
// events from a schedule can only make the run *healthier*, so a shrunk schedule can never
// manufacture a liveness violation that the original did not have.

#ifndef SRC_CHAOS_RUNNER_H_
#define SRC_CHAOS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/fault_schedule.h"
#include "src/chaos/scenario.h"
#include "src/telemetry/span.h"

namespace boom {

struct ChaosRunOptions {
  double horizon_ms = 0;  // 0 = scenario default
  double settle_ms = 0;   // 0 = scenario default
  double check_period_ms = 1000;
  bool record_trace = false;
  // When set, the run's Cluster records causal spans here (client ops, RPC hops, engine
  // ticks). Purely observational: span ids derive from the sim seed, never the sim Rng, so
  // attaching a tracer cannot perturb the schedule.
  Tracer* tracer = nullptr;
};

struct ChaosRunResult {
  bool passed = false;
  // Deduplicated, in discovery order, each prefixed with the reporting checker's name.
  std::vector<std::string> violations;
  double end_ms = 0;                // virtual time when the run finished
  std::vector<std::string> trace;   // cluster fault/network trace (when recorded)
};

// Runs `scenario` (a fresh, never-Setup instance) from `seed` under `schedule`.
ChaosRunResult RunChaosOnce(ChaosScenario& scenario, uint64_t seed,
                            const FaultSchedule& schedule,
                            const ChaosRunOptions& options = {});

}  // namespace boom

#endif  // SRC_CHAOS_RUNNER_H_
