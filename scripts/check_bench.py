#!/usr/bin/env python3
"""Benchmark regression gate for scripts/check.sh.

Compares a fresh `micro_engine --json` run against the committed BENCH_engine.json:

  * the committed "current.micro_engine" section and the fresh run must track the same
    workload keys (a missing or extra key means a workload was dropped, renamed, or added
    without refreshing the tracked file — fail);
  * each fresh ns_per_op must be within --tolerance (default 25%) of the committed number.

Only micro_engine is regression-gated: the ablation configurations deliberately disable
engine mechanisms, so their absolute numbers are informational. The committed file must
still carry every section with the expected schema:

  current.micro_engine     {name: {ns_per_op, tuples_per_sec}}  engine rows, churn_probe
                           included
  current.ablation_engine  {config: {ns_per_op, tuples_per_sec}}  configs A-C, E-F
  current.optimizer        {name: {off_ns_per_op, on_ns_per_op, speedup}}  planner pairs
                           (enable_optimizer off/on; join_heavy, namespace_op)

With --fresh-scaling (a fresh `micro_engine --json --threads 1` run), the threads=1 row
of the committed "parallel_scaling" block is gated the same way. Only threads=1 is ever
gated: multi-thread numbers depend on the host's core count (the committed block records
"cores"), so they are validated for shape and reported, never compared against wall-clock.

Usage: check_bench.py --committed BENCH_engine.json --fresh fresh_micro.json \
                      [--fresh-scaling fresh_scaling_t1.json]
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
    parser.add_argument("--fresh-scaling", default=None,
                        help="fresh `micro_engine --json --threads 1` output (optional)")
    parser.add_argument("--fresh-optimizer", default=None,
                        help="fresh `micro_engine --json --optimizer` output (optional)")
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
    for section in ("micro_engine", "ablation_engine", "optimizer"):
        if not current.get(section):
            errors += fail(f"committed file missing current.{section}")

    # The optimizer ablation block must carry the full schema for every workload: both
    # sides of the off/on pair are gated when --fresh-optimizer is supplied, so a
    # regression on the greedy baseline cannot hide behind an optimizer win.
    for name, entry in sorted(current.get("optimizer", {}).items()):
        for key in ("off_ns_per_op", "on_ns_per_op", "speedup"):
            if key not in entry:
                errors += fail(f"optimizer workload '{name}' missing key '{key}'")

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

    # Shape check on the committed parallel_scaling block: the sweep must cover 1/2/4
    # threads and record the core count it ran on.
    scaling = committed.get("parallel_scaling")
    if not isinstance(scaling, dict):
        errors += fail("committed file missing parallel_scaling block")
    else:
        if "cores" not in scaling:
            errors += fail("parallel_scaling missing 'cores'")
        for t in ("1", "2", "4"):
            if t not in scaling.get("threads", {}):
                errors += fail(f"parallel_scaling missing threads={t} row")

    if args.fresh_scaling and isinstance(scaling, dict):
        with open(args.fresh_scaling) as f:
            fresh_t1 = json.load(f)
        committed_t1 = scaling.get("threads", {}).get("1", {})
        fresh_t1_workloads = fresh_t1.get("workloads", {})
        for name, entry in sorted(committed_t1.items()):
            if name not in fresh_t1_workloads:
                errors += fail(f"scaling workload '{name}' missing from fresh threads=1 run")
                continue
            committed_ns = entry["ns_per_op"]
            fresh_ns = fresh_t1_workloads[name].get("ns_per_op", float("inf"))
            limit = committed_ns * (1.0 + args.tolerance)
            status = "ok"
            if fresh_ns > limit:
                errors += fail(
                    f"scaling workload '{name}' (threads=1) regressed: {fresh_ns:.1f} "
                    f"ns/op vs committed {committed_ns:.1f} (limit {limit:.1f})")
                status = "REGRESSED"
            print(f"  scaling/{name:16s} committed {committed_ns:>10.1f}  "
                  f"fresh {fresh_ns:>10.1f}  {status}")

    if args.fresh_optimizer:
        with open(args.fresh_optimizer) as f:
            fresh_opt = json.load(f)
        committed_opt = current.get("optimizer", {})
        fresh_opt_workloads = fresh_opt.get("workloads", {})
        for name, entry in sorted(committed_opt.items()):
            if name not in fresh_opt_workloads:
                errors += fail(f"optimizer workload '{name}' missing from fresh run")
                continue
            for key in ("off_ns_per_op", "on_ns_per_op"):
                committed_ns = entry.get(key, float("inf"))
                fresh_ns = fresh_opt_workloads[name].get(key, float("inf"))
                limit = committed_ns * (1.0 + args.tolerance)
                status = "ok"
                if fresh_ns > limit:
                    errors += fail(
                        f"optimizer workload '{name}' {key} regressed: {fresh_ns:.1f} "
                        f"ns/op vs committed {committed_ns:.1f} (limit {limit:.1f})")
                    status = "REGRESSED"
                print(f"  optimizer/{name:14s} {key:13s} committed {committed_ns:>10.1f}  "
                      f"fresh {fresh_ns:>10.1f}  {status}")

    if errors:
        print(f"bench gate: {errors} failure(s)", file=sys.stderr)
        return 1
    print("bench gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
