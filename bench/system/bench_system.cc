// bench_system: one repetition of one system-benchmark workload.
//
//   bench_system <fed_churn|gw_open|mr_jobs|dn_pipeline> [--seed N] [--scale X]
//                [--trace] [--spans-out FILE]
//
// Prints one JSON line (see harness.h) and exits 0 iff every correctness oracle held.
// run.py drives repetitions, aggregates them, and prints the benchmark's metrics.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench/system/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_system <fed_churn|gw_open|mr_jobs|dn_pipeline> [--seed N] "
               "[--scale X] [--trace] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using boom::sysbench::Options;
  const std::map<std::string, int (*)(const Options&)> workloads = {
      {"fed_churn", boom::sysbench::RunFedChurn},
      {"gw_open", boom::sysbench::RunGwOpen},
      {"mr_jobs", boom::sysbench::RunMrJobs},
      {"dn_pipeline", boom::sysbench::RunDnPipeline},
  };
  if (argc < 2 || workloads.count(argv[1]) == 0) {
    return Usage();
  }
  Options options;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scale" && has_value) {
      options.scale = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--spans-out" && has_value) {
      options.spans_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(options.scale > 0 && options.scale <= 10)) {
    return Usage();
  }
  return workloads.at(argv[1])(options);
}
