// The chaos explorer: sweeps N seeds through a scenario, generating a fault schedule per
// seed, running it, and shrinking any failing schedule to a minimal reproducer. The report
// text is fully deterministic (virtual time only, fixed-precision numbers), so two
// invocations with identical flags produce byte-identical output.

#ifndef SRC_CHAOS_EXPLORER_H_
#define SRC_CHAOS_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/fault_schedule.h"
#include "src/chaos/scenario.h"

namespace boom {

struct ExplorerOptions {
  std::string scenario = "paxos";
  std::string bug;          // inject a named bug variant (see scenario.h)
  int seeds = 25;           // number of seeds to sweep
  uint64_t seed0 = 1;       // first seed; the sweep covers [seed0, seed0 + seeds)
  bool shrink = true;       // shrink failing schedules to minimal reproducers
  int max_shrink_runs = 64;
  double horizon_ms = 0;    // 0 = scenario default
  double settle_ms = 0;
  bool verbose = false;     // per-seed lines even for passing seeds
  // Re-run each shrunk schedule with causal tracing attached and print the span timeline
  // next to the repro line (one extra run per failing seed). Deterministic: span ids come
  // from the seed, so the timeline is as byte-stable as the rest of the report.
  bool timeline = true;
  size_t timeline_traces = 2;  // full trees for this many largest traces
};

struct SeedOutcome {
  uint64_t seed = 0;
  bool passed = false;
  std::vector<std::string> violations;
  FaultSchedule schedule;
  FaultSchedule shrunk;  // only meaningful when !passed and shrinking ran
  int shrink_runs = 0;
};

struct ExplorerReport {
  std::vector<SeedOutcome> outcomes;
  int failures = 0;
  std::string text;  // the full deterministic report
};

// Returns the report; `options.scenario` must name a known scenario (BOOM_CHECK otherwise).
ExplorerReport ExploreSeeds(const ExplorerOptions& options);

}  // namespace boom

#endif  // SRC_CHAOS_EXPLORER_H_
