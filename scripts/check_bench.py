#!/usr/bin/env python3
"""Benchmark regression gate for scripts/check.sh.

Compares a fresh `micro_engine --json` run against the committed BENCH_engine.json:

  * the committed "current.micro_engine" section and the fresh run must track the same
    workload keys (a missing or extra key means a workload was dropped, renamed, or added
    without refreshing the tracked file — fail);
  * each fresh ns_per_op must be within --tolerance (default 25%) of the committed number.

The committed file must carry the section with the expected schema:

  current.micro_engine     {name: {ns_per_op, tuples_per_sec}}  engine rows, churn_probe
                           included

Usage: check_bench.py --committed BENCH_engine.json --fresh fresh_micro.json
Exit code 0 on pass, 1 on any failure (failures are listed on stderr).
"""

import argparse
import json
import sys


def fail(msg):
    print("bench gate: " + msg, file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--committed", required=True, help="path to BENCH_engine.json")
    parser.add_argument("--fresh", required=True, help="fresh `micro_engine --json` output")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional ns_per_op regression (default 0.25)")
    args = parser.parse_args()

    with open(args.committed) as f:
        committed = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    errors = 0

    # Schema sanity on the committed file.
    if committed.get("schema") != "boom-bench-v1":
        errors += fail("committed file missing schema boom-bench-v1")
    current = committed.get("current", {})
    if not current.get("micro_engine"):
        errors += fail("committed file missing current.micro_engine")

    committed_micro = current.get("micro_engine", {})
    fresh_micro = fresh.get("workloads", {})

    for name in sorted(set(fresh_micro) - set(committed_micro)):
        errors += fail(f"workload '{name}' in fresh run but not in the committed file")
    for name, entry in sorted(committed_micro.items()):
        if name not in fresh_micro:
            errors += fail(f"workload '{name}' missing from fresh run")
            continue
        for key in ("ns_per_op", "tuples_per_sec"):
            if key not in fresh_micro[name]:
                errors += fail(f"workload '{name}' missing key '{key}' in fresh run")
        committed_ns = entry["ns_per_op"]
        fresh_ns = fresh_micro[name].get("ns_per_op", float("inf"))
        limit = committed_ns * (1.0 + args.tolerance)
        status = "ok"
        if fresh_ns > limit:
            errors += fail(
                f"workload '{name}' regressed: {fresh_ns:.1f} ns/op vs committed "
                f"{committed_ns:.1f} (limit {limit:.1f})")
            status = "REGRESSED"
        print(f"  {name:24s} committed {committed_ns:>10.1f}  fresh {fresh_ns:>10.1f}  {status}")

    if errors:
        print(f"bench gate: {errors} failure(s)", file=sys.stderr)
        return 1
    print("bench gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
