#include "src/chaos/runner.h"

#include <set>

#include "src/chaos/trace.h"

namespace boom {

ChaosRunResult RunChaosOnce(ChaosScenario& scenario, uint64_t seed,
                            const FaultSchedule& schedule,
                            const ChaosRunOptions& options) {
  double horizon =
      options.horizon_ms > 0 ? options.horizon_ms : scenario.default_horizon_ms();
  double settle = options.settle_ms > 0 ? options.settle_ms : scenario.default_settle_ms();
  scenario.set_horizon_ms(horizon);

  Cluster cluster(seed);
  if (options.tracer != nullptr) {
    cluster.set_tracer(options.tracer);
  }
  TraceRecorder recorder;
  if (options.record_trace) {
    recorder.Attach(cluster);
  }
  scenario.Setup(cluster, seed);
  ApplySchedule(cluster, schedule, scenario.FreshStateOnRestart());

  ChaosRunResult result;
  std::set<std::string> seen;
  auto run_checkers = [&](bool final_check) {
    for (const auto& checker : scenario.checkers()) {
      std::vector<std::string> found;
      checker->Check(cluster, final_check, &found);
      for (std::string& v : found) {
        std::string line = "[" + checker->name() + "] " + std::move(v);
        if (seen.insert(line).second) {
          result.violations.push_back(std::move(line));
        }
      }
    }
  };

  for (double t = options.check_period_ms; t < horizon; t += options.check_period_ms) {
    cluster.RunUntil(t);
    run_checkers(/*final_check=*/false);
  }
  cluster.RunUntil(horizon);
  HealAll(cluster, scenario.FaultProfile().all_nodes, scenario.FreshStateOnRestart());
  cluster.RunUntil(horizon + settle);
  run_checkers(/*final_check=*/true);

  result.passed = result.violations.empty();
  result.end_ms = cluster.now();
  if (options.record_trace) {
    result.trace = recorder.lines();
  }
  return result;
}

}  // namespace boom
