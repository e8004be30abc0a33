#!/usr/bin/env bash
# CI entry point: tier-1 build + fast tests, then an ASan smoke of the chaos explorer.
#
#   scripts/check.sh            # everything below
#   SKIP_ASAN=1 scripts/check.sh  # inner loop only (no sanitizer rebuild)
#   SKIP_UBSAN=1 scripts/check.sh # skip the UndefinedBehaviorSanitizer leg
#   SKIP_TSAN=1 scripts/check.sh  # skip the ThreadSanitizer leg
#   SKIP_BENCH=1 scripts/check.sh # skip the Release bench smoke (e.g. loaded CI box)
#
# Tier 1 (must stay green): plain build + every non-chaos test, then the planner label
# (greedy join-ordering units, join-order independence across the engine-level program
# families, and the pinned --explain/olglint goldens — see DESIGN.md §13), the telemetry
# label explicitly (metrics/tracing/profiling — see docs/OBSERVABILITY.md), the workload +
# policy labels (open-loop generator determinism and the scheduler-policy matrix — see
# docs/WORKLOADS.md), and the overload label (admission control, retry budgets, and the
# metastable-failure scenario — see docs/CHAOS.md). The T1/T2 code-size table (rules and
# C++ glue per component) is diffed against its pinned golden right after the tests.
# ASan smoke: rebuild with -DBOOM_SANITIZE=address, run the planner + telemetry + workload
# + policy + overload tests under ASan (the tracer/registry hot paths are lock-free atomics
# worth sanitizing; the generator, scheduler, and admission-gateway paths churn tuples hard),
# then the engine, evaluator and table tests (a fixpoint round reads driver rows by range out
# of per-table delta buffers that grow between rule evaluations; TTL expiry walks a stamp
# queue), then the data-plane tests (the interner's string_view keys and revive path, chunk
# payloads shared by every replica, copy-on-corrupt), then the Paxos tests (the event-driven
# proposer drain, the once-per-slot decide broadcast, learner catch-up, HA BOOM-FS and the
# Paxos golden equivalence), then 3-seed paxos and boomfs chaos sweeps (corruption + slow-disk
# faults included via the boomfs scenario's fault profile), so memory errors on the
# retry/quarantine/re-replication paths surface even though the full chaos tier is too slow
# for every push.
# UBSan leg: rebuild with -DBOOM_SANITIZE=undefined (any report aborts) and run the engine,
# evaluator, builtin and golden-program equivalence tests: aggregate sums and builtin
# arithmetic must report integer overflow as an error, never wrap. It also runs the
# data-plane integrity tests, whose checksum kernel loads unaligned 8-byte words.
# TSan leg: rebuild with -DBOOM_SANITIZE=thread and run the engine and sim tests plus the
# interner's concurrency cases. The simulator runs every engine on its one event loop; the
# string interner is the one process-wide structure, so its sharded locks and thread-local
# caches are what this leg races (InternerTest.ConcurrentInternIsCanonical and
# InternerTest.ChurnRevivesEntriesSafely intern from plain std::threads).
# Bench smoke: Release build of micro_engine, gated against the committed BENCH_engine.json
# (missing workload keys or a >25% ns/op regression fail; scripts/check_bench.py), then F8
# (bench/fig_scaleout, a pure function of its seeds) diffed against its pinned stdout,
# then the system benchmark's smoke run (bench/system: oracle or determinism-guard
# failures fail).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "==> tier-1 build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "==> tier-1 tests (ctest -LE chaos)"
(cd build && ctest -LE chaos --output-on-failure -j "$JOBS")

# T1/T2 counts rules and C++ glue straight from the sources, so its output is pinned: a
# change in net lines re-pins tests/golden/table_codesize.txt deliberately.
echo "==> T1/T2 golden (bench/table_codesize vs tests/golden/table_codesize.txt)"
./build/bench/table_codesize | diff -u tests/golden/table_codesize.txt -

echo "==> lint (ctest -L lint: olglint over olg/*.olg and all program families)"
(cd build && ctest -L lint --output-on-failure -j "$JOBS")

echo "==> planner tests (ctest -L planner: greedy join order, join-order independence, CLI goldens)"
(cd build && ctest -L planner --output-on-failure -j "$JOBS")

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
    federation_test planner_test join_order_test olglint olgrun value_test boomfs_test \
    integrity_test paxos_test program_equivalence_test engine_test eval_test table_test \
    reference_eval_test

  echo "==> ASan planner smoke (ctest -L planner)"
  (cd build-asan && ctest -L planner --output-on-failure -j "$JOBS")

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

  echo "==> ASan engine smoke (range deltas, TTL expiry queue, aggregate removal observers, reference oracle)"
  (cd build-asan && ctest -R 'EngineTest|ReferenceEval|EvalExprTest|AggProperty|ClosureProperty|TableTest' \
    --output-on-failure -j "$JOBS")

  echo "==> ASan data-plane smoke (interner, shared chunk payloads, copy-on-corrupt)"
  (cd build-asan && ctest -R 'ValueTest|InternerTest|FsTest|Integrity' \
    --output-on-failure -j "$JOBS")

  echo "==> ASan Paxos smoke (proposer drain, decide broadcast, sync catch-up, HA, goldens)"
  (cd build-asan && ctest -R 'PaxosTest|HaFsTest|ProgramEquivalence' \
    --output-on-failure -j "$JOBS")

  echo "==> ASan chaos smoke (3 seeds x paxos, 3 seeds x boomfs)"
  ./build-asan/tools/chaos_explorer --scenario=paxos --seeds=3
  ./build-asan/tools/chaos_explorer --scenario=boomfs --seeds=3
fi

if [[ "${SKIP_UBSAN:-0}" != "1" ]]; then
  echo "==> UBSan build"
  cmake -B build-ubsan -S . -DBOOM_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS" --target engine_test eval_test builtins_test \
    program_equivalence_test integrity_test reference_eval_test

  # eval_test's suites are EvalExprTest, AggProperty and ClosureProperty.
  echo "==> UBSan engine smoke (aggregate sums, checked arithmetic, golden equivalence, chunk checksum, reference oracle)"
  (cd build-ubsan &&
    ctest -R 'EngineTest|ReferenceEval|EvalExprTest|AggProperty|ClosureProperty|BuiltinsTest|ProgramEquivalence|Integrity' \
      --output-on-failure -j "$JOBS")
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "==> TSan build"
  cmake -B build-tsan -S . -DBOOM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target engine_test sim_test value_test

  echo "==> TSan interner concurrency tests"
  ./build-tsan/tests/value_test --gtest_filter='InternerTest.*'

  echo "==> TSan engine + sim tests"
  ./build-tsan/tests/engine_test
  ./build-tsan/tests/sim_test
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  echo "==> Release bench smoke (gate vs BENCH_engine.json)"
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j "$JOBS" --target micro_engine >/dev/null
  fresh="$(mktemp)"
  ./build-release/bench/micro_engine --json > "$fresh"
  if ! python3 scripts/check_bench.py --committed BENCH_engine.json --fresh "$fresh"; then
    # One retry: these are wall-clock numbers and a loaded box can blow the tolerance
    # without any code change. A regression that reproduces twice is treated as real.
    echo "==> bench gate failed; retrying once"
    sleep 5
    ./build-release/bench/micro_engine --json > "$fresh"
    python3 scripts/check_bench.py --committed BENCH_engine.json --fresh "$fresh"
  fi
  rm -f "$fresh"

  # F8 models its service time as a constant and replays seeded traces, so every line it
  # prints is pinned; an intended change re-pins tests/golden/fig_scaleout.txt.
  echo "==> Release F8 golden (bench/fig_scaleout vs tests/golden/fig_scaleout.txt)"
  cmake --build build-release -j "$JOBS" --target fig_scaleout >/dev/null
  ./build-release/bench/fig_scaleout | diff -u tests/golden/fig_scaleout.txt -

  # System benchmark smoke: all four end-to-end workloads at 2% size, Release build. A
  # correctness-oracle failure, a failed op, or a determinism-guard mismatch (counters or
  # op/listing digest differing between the plain and the traced rep) fails the run;
  # wall times are not gated here.
  echo "==> Release system bench smoke (bench/system/run.py --smoke)"
  python3 bench/system/run.py --smoke
fi

echo "==> all checks passed"
