#!/usr/bin/env bash
# Tracked-benchmark runner: builds the Release tree, runs the machine-readable benchmark
# workloads, and rewrites BENCH_engine.json (the committed perf trajectory; read
# docs/PERFORMANCE.md before editing workloads).
#
#   scripts/bench.sh                  # refresh "current"
#
# The file keeps two sections:
#   baseline — numbers recorded before the PR-4 fast-fixpoint work (interned values, CoW
#              tuples, dirty-rule scheduling); preserved verbatim so the speedup stays
#              auditable.
#   current  — refreshed by this script from the benchmarks at HEAD.
#
# scripts/check.sh's bench leg compares a fresh run against the committed "current" section
# (scripts/check_bench.py), so refresh this file whenever engine performance shifts.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ $# -gt 0 ]]; then
  echo "usage: scripts/bench.sh" >&2
  exit 2
fi

echo "==> Release build (bench targets)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" --target micro_engine >/dev/null

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "==> micro_engine --json"
./build-release/bench/micro_engine --json > "$tmpdir/micro.json"

python3 - "$tmpdir" <<'PY'
import json
import sys

tmpdir = sys.argv[1]
with open(tmpdir + "/micro.json") as f:
    micro = json.load(f)

current = {
    "micro_engine": micro["workloads"],
}

try:
    with open("BENCH_engine.json") as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {}

if "baseline" not in doc:
    # First run ever: seed the baseline from this run so the file is self-consistent.
    doc["baseline"] = dict(current, note="seeded from first bench.sh run")

doc["schema"] = "boom-bench-v1"
doc["build_type"] = "Release"
doc["units"] = {"ns_per_op": "nanoseconds per workload op", "tuples_per_sec": "ops per second"}
doc["current"] = current

with open("BENCH_engine.json", "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print("wrote BENCH_engine.json")
PY
