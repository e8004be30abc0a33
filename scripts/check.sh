#!/usr/bin/env bash
# CI entry point: tier-1 build + fast tests, then an ASan smoke of the chaos explorer.
#
#   scripts/check.sh            # everything below
#   SKIP_ASAN=1 scripts/check.sh  # inner loop only (no sanitizer rebuild)
#   SKIP_TSAN=1 scripts/check.sh  # skip the ThreadSanitizer leg
#   SKIP_BENCH=1 scripts/check.sh # skip the Release bench smoke (e.g. loaded CI box)
#
# Tier 1 (must stay green): plain build + every non-chaos test, then the optimizer label
# (cost-based planner units, optimizer-on/off fixpoint equivalence across all program
# families, and the pinned --explain/olglint goldens — see DESIGN.md §13), the telemetry label
# explicitly (metrics/tracing/profiling — see docs/OBSERVABILITY.md), the workload +
# policy labels (open-loop generator determinism and the scheduler-policy matrix — see
# docs/WORKLOADS.md), and the overload label (admission control, retry budgets, and the
# metastable-failure scenario — see docs/CHAOS.md).
# ASan smoke: rebuild with -DBOOM_SANITIZE=address, run the telemetry + workload + policy
# + overload tests under ASan (the tracer/registry hot paths are lock-free atomics worth
# sanitizing; the generator, scheduler, and admission-gateway paths churn tuples hard),
# then a 3-seed boomfs chaos sweep (corruption + slow-disk faults included via the
# scenario's fault profile), so memory errors on the retry/quarantine/re-replication
# paths surface even though the full chaos tier is too slow for every push.
# TSan leg: rebuild with -DBOOM_SANITIZE=thread and run the optimizer, engine, sim and
# parallel tests plus 4-thread chaos smokes of boomfs and federation. Parallelism lives
# only in the Cluster, which ticks whole engines on pool threads; the leg races what those
# threads share (sticky atomic tuple refcounts, interner shards, cluster tick batches) and
# checks that per-engine state, such as the plain per-table probe counters, stays confined
# to one thread at a time. Federation hosts the most engines per cluster.
# Bench smoke: Release build of micro_engine, gated against the committed BENCH_engine.json
# (missing workload keys or a >25% ns/op regression fail; scripts/check_bench.py), then the
# system benchmark's smoke run (bench/system: oracle or determinism-guard failures fail).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "==> tier-1 build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "==> tier-1 tests (ctest -LE chaos)"
(cd build && ctest -LE chaos --output-on-failure -j "$JOBS")

echo "==> lint (ctest -L lint: olglint over olg/*.olg and all program families)"
(cd build && ctest -L lint --output-on-failure -j "$JOBS")

echo "==> optimizer tests (ctest -L optimizer: cost-based planner, on/off equivalence, CLI goldens)"
(cd build && ctest -L optimizer --output-on-failure -j "$JOBS")

echo "==> telemetry tests (ctest -L telemetry)"
(cd build && ctest -L telemetry --output-on-failure -j "$JOBS")

echo "==> workload + policy tests (ctest -L 'workload|policy')"
(cd build && ctest -L 'workload|policy' --output-on-failure -j "$JOBS")

echo "==> overload tests (ctest -L overload: admission, retry budgets, metastable chaos)"
(cd build && ctest -L overload --output-on-failure -j "$JOBS")

echo "==> scale-out tests (ctest -L scaleout: federated metadata plane, rebalance, 25-seed federation chaos sweep)"
(cd build && ctest -L scaleout --output-on-failure -j "$JOBS")

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "==> ASan build"
  cmake -B build-asan -S . -DBOOM_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" --target chaos_explorer telemetry_test \
    trace_e2e_test monitor_meta_test workload_test scheduler_policy_test overload_test \
    federation_test optimizer_test olglint olgrun

  echo "==> ASan optimizer smoke (ctest -L optimizer)"
  (cd build-asan && ctest -L optimizer --output-on-failure -j "$JOBS")

  echo "==> ASan telemetry smoke (ctest -L telemetry)"
  (cd build-asan && ctest -L telemetry --output-on-failure -j "$JOBS")

  echo "==> ASan workload + policy smoke (ctest -L 'workload|policy')"
  (cd build-asan && ctest -L 'workload|policy' --output-on-failure -j "$JOBS")

  echo "==> ASan overload smoke (ctest -L overload)"
  (cd build-asan && ctest -L overload --output-on-failure -j "$JOBS")

  echo "==> ASan scale-out smoke (ctest -L scaleout)"
  (cd build-asan && ctest -L scaleout --output-on-failure -j "$JOBS")

  echo "==> ASan lint smoke (ctest -L lint)"
  (cd build-asan && ctest -L lint --output-on-failure -j "$JOBS")

  echo "==> ASan chaos smoke (3 seeds x boomfs)"
  ./build-asan/tools/chaos_explorer --scenario=boomfs --seeds=3
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "==> TSan build"
  cmake -B build-tsan -S . -DBOOM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target engine_test sim_test parallel_test \
    chaos_explorer optimizer_test olglint olgrun

  echo "==> TSan optimizer tests (ctest -L optimizer: re-plan and index warming under TSan)"
  (cd build-tsan && ctest -L optimizer --output-on-failure -j "$JOBS")

  echo "==> TSan engine + sim tests"
  ./build-tsan/tests/engine_test
  ./build-tsan/tests/sim_test

  echo "==> TSan parallel tests (ctest -L parallel: cluster 1-vs-N-thread byte identity)"
  (cd build-tsan && ctest -L parallel --output-on-failure -j "$JOBS")

  echo "==> TSan chaos smoke (2 seeds x boomfs, 4 cluster threads)"
  ./build-tsan/tools/chaos_explorer --scenario=boomfs --seeds=2 --threads=4

  echo "==> TSan chaos smoke (1 seed x federation, 4 cluster threads)"
  ./build-tsan/tools/chaos_explorer --scenario=federation --seeds=1 --threads=4
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  echo "==> Release bench smoke (gate vs BENCH_engine.json)"
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j "$JOBS" --target micro_engine >/dev/null
  fresh="$(mktemp)"
  fresh_scaling="$(mktemp)"
  fresh_optimizer="$(mktemp)"
  ./build-release/bench/micro_engine --json > "$fresh"
  # threads=1 only: the serial baseline of the parallel sweep is host-independent; the
  # multi-thread rows depend on core count and are never wall-clock gated.
  ./build-release/bench/micro_engine --json --threads 1 > "$fresh_scaling"
  ./build-release/bench/micro_engine --json --optimizer > "$fresh_optimizer"
  if ! python3 scripts/check_bench.py --committed BENCH_engine.json --fresh "$fresh" \
      --fresh-scaling "$fresh_scaling" --fresh-optimizer "$fresh_optimizer"; then
    # One retry: these are wall-clock numbers and a loaded box can blow the tolerance
    # without any code change. A regression that reproduces twice is treated as real.
    echo "==> bench gate failed; retrying once"
    sleep 5
    ./build-release/bench/micro_engine --json > "$fresh"
    ./build-release/bench/micro_engine --json --threads 1 > "$fresh_scaling"
    ./build-release/bench/micro_engine --json --optimizer > "$fresh_optimizer"
    python3 scripts/check_bench.py --committed BENCH_engine.json --fresh "$fresh" \
      --fresh-scaling "$fresh_scaling" --fresh-optimizer "$fresh_optimizer"
  fi
  rm -f "$fresh" "$fresh_scaling" "$fresh_optimizer"

  # System benchmark smoke: all four end-to-end workloads at 2% size, Release build. A
  # correctness-oracle failure, a failed op, or a determinism-guard mismatch (counters or
  # op/listing digest differing between the plain and the traced rep) fails the run;
  # wall times are not gated here.
  echo "==> Release system bench smoke (bench/system/run.py --smoke)"
  python3 bench/system/run.py --smoke
fi

echo "==> all checks passed"
