#include "src/chaos/explorer.h"

#include "src/base/logging.h"
#include "src/chaos/runner.h"
#include "src/chaos/shrink.h"
#include "src/telemetry/span.h"
#include "src/telemetry/trace_query.h"

namespace boom {

ExplorerReport ExploreSeeds(const ExplorerOptions& options) {
  ExplorerReport report;
  std::string& text = report.text;
  text += "chaos explorer: scenario=" + options.scenario +
          (options.bug.empty() ? "" : " bug=" + options.bug) +
          " seeds=[" + std::to_string(options.seed0) + ", " +
          std::to_string(options.seed0 + static_cast<uint64_t>(options.seeds)) + ")\n";

  ChaosRunOptions run_opts;
  run_opts.horizon_ms = options.horizon_ms;
  run_opts.settle_ms = options.settle_ms;

  ScenarioOptions sopts;
  sopts.bug = options.bug;

  for (int i = 0; i < options.seeds; ++i) {
    uint64_t seed = options.seed0 + static_cast<uint64_t>(i);
    auto scenario = MakeScenario(options.scenario, sopts);
    BOOM_CHECK(scenario != nullptr) << "unknown scenario " << options.scenario;
    if (options.horizon_ms > 0) {
      scenario->set_horizon_ms(options.horizon_ms);
    }

    SeedOutcome outcome;
    outcome.seed = seed;
    outcome.schedule = GenerateFaultSchedule(seed, scenario->FaultProfile());
    ChaosRunResult run = RunChaosOnce(*scenario, seed, outcome.schedule, run_opts);
    outcome.passed = run.passed;
    outcome.violations = run.violations;

    if (run.passed) {
      if (options.verbose) {
        text += "seed " + std::to_string(seed) + ": ok (" +
                std::to_string(outcome.schedule.events.size()) + " fault events)\n";
      }
    } else {
      ++report.failures;
      text += "seed " + std::to_string(seed) + ": FAIL\n";
      for (const std::string& v : run.violations) {
        text += "  violation: " + v + "\n";
      }
      text += " schedule (" + std::to_string(outcome.schedule.events.size()) +
              " events):\n" + outcome.schedule.ToString();
      if (options.shrink) {
        auto still_fails = [&](const FaultSchedule& candidate) {
          auto retry = MakeScenario(options.scenario, sopts);
          if (options.horizon_ms > 0) {
            retry->set_horizon_ms(options.horizon_ms);
          }
          return !RunChaosOnce(*retry, seed, candidate, run_opts).passed;
        };
        ShrinkResult shrunk =
            ShrinkSchedule(outcome.schedule, still_fails, options.max_shrink_runs);
        outcome.shrunk = shrunk.schedule;
        outcome.shrink_runs = shrunk.runs;
        text += " shrunk to " + std::to_string(shrunk.schedule.events.size()) +
                " events (" + std::to_string(shrunk.runs) + " runs):\n" +
                shrunk.schedule.ToString();
        if (options.timeline) {
          // One more run of the minimal reproducer, this time with causal tracing on, so
          // the repro line ships with the span timeline of the failure it reproduces.
          auto replay = MakeScenario(options.scenario, sopts);
          if (options.horizon_ms > 0) {
            replay->set_horizon_ms(options.horizon_ms);
          }
          Tracer tracer(seed);
          ChaosRunOptions trace_opts = run_opts;
          trace_opts.tracer = &tracer;
          RunChaosOnce(*replay, seed, shrunk.schedule, trace_opts);
          text += " causal timeline of shrunk schedule:\n" +
                  RenderTimeline(tracer.spans(), options.timeline_traces, "  ");
        }
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }

  text += "swept " + std::to_string(options.seeds) + " seeds: " +
          std::to_string(report.failures) + " failing, " +
          std::to_string(options.seeds - report.failures) + " passing\n";
  return report;
}

}  // namespace boom
