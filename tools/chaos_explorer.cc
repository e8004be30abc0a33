// chaos_explorer: seeded fault-schedule search against the Overlog systems.
//
//   chaos_explorer --scenario=paxos --seeds=100
//   chaos_explorer --scenario=boomfs --bug=resurrect --seeds=20
//   chaos_explorer --scenario=paxos --bug=quorum1 --seeds=10 --verbose
//
// All time is virtual (discrete-event simulation), so output depends only on the flags:
// two identical invocations print byte-identical reports. Exit status is the number of
// failing seeds, capped at 1 — i.e. 0 iff every seed passed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/chaos/explorer.h"

namespace {

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    out += out.empty() ? n : ", " + n;
  }
  return out;
}

void Usage() {
  std::fprintf(stderr,
               "usage: chaos_explorer [--scenario=paxos|boomfs|boommr] [--seeds=N]\n"
               "                      [--seed0=N] [--bug=NAME] [--no-shrink]\n"
               "                      [--no-timeline] [--horizon=MS] [--settle=MS]\n"
               "                      [--verbose] [--list]\n");
}

bool ParseFlag(const std::string& arg, const std::string& name, std::string* out) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  boom::ExplorerOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--list") {
      for (const std::string& name : boom::ScenarioNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--no-timeline") {
      options.timeline = false;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (ParseFlag(arg, "scenario", &value)) {
      options.scenario = value;
    } else if (ParseFlag(arg, "bug", &value)) {
      options.bug = value;
    } else if (ParseFlag(arg, "seeds", &value)) {
      options.seeds = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "seed0", &value)) {
      options.seed0 = static_cast<uint64_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (ParseFlag(arg, "horizon", &value)) {
      options.horizon_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "settle", &value)) {
      options.settle_ms = std::atof(value.c_str());
    } else {
      Usage();
      return 2;
    }
  }
  if (options.seeds <= 0) {
    Usage();
    return 2;
  }
  // Reject typos explicitly: a misspelled --scenario or --bug would otherwise sweep the
  // wrong (or the correct) implementation and report it green under the typo's banner.
  std::vector<std::string> scenarios = boom::ScenarioNames();
  if (std::find(scenarios.begin(), scenarios.end(), options.scenario) == scenarios.end()) {
    std::fprintf(stderr, "unknown scenario '%s' (valid: %s)\n", options.scenario.c_str(),
                 Join(scenarios).c_str());
    Usage();
    return 2;
  }
  if (boom::MakeScenario(options.scenario, {.bug = options.bug}) == nullptr) {
    std::vector<std::string> bugs = boom::ScenarioBugNames(options.scenario);
    std::fprintf(stderr, "unknown bug '%s' for scenario %s (valid: %s)\n",
                 options.bug.c_str(), options.scenario.c_str(),
                 bugs.empty() ? "none" : Join(bugs).c_str());
    Usage();
    return 2;
  }

  boom::ExplorerReport report = boom::ExploreSeeds(options);
  std::fputs(report.text.c_str(), stdout);
  return report.failures > 0 ? 1 : 0;
}
