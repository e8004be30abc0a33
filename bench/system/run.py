#!/usr/bin/env python3
"""System benchmark runner: builds bench_system and measures one workload.

Benchmark mode (what BENCHMARK.json names):

    python3 bench/system/run.py --workload W --seed N --seconds S --trace 0|1

builds the Release binary under build-release/bench_system, then runs one
fresh-process repetition of workload W with seed N per REP_SECONDS of S (four at
S = 20), checks every correctness oracle and that every deterministic result is
identical in every repetition, and prints one JSON line with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1, where the last
repetition is a traced one).

Other modes:

    python3 bench/system/run.py --smoke
        all four workloads at 2% size, untraced and traced; exit 0 iff all correct
    python3 bench/system/run.py --traced [--workload W] [--seed N] [--spans-out DIR]
        per-workload layer table: top-5 program:rule entries by wall time and the
        virtual critical-path split; DIR receives Tracer::ToJson() per workload

See bench/system/README.md for the workloads and what every metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SOURCE = Path(__file__).resolve().parent
ROOT = SOURCE.parent.parent
BUILD = ROOT / "build-release" / "bench_system"
BINARY = BUILD / "bench_system"
WORKLOADS = ["fed_churn", "gw_open", "mr_jobs", "dn_pipeline"]
# A repetition takes 3-7 s on a 2.0 GHz Xeon. The count is a function of --seconds
# alone, never of how fast repetitions run, so every commit is measured with the same
# estimator.
REP_SECONDS = 5
MIN_REPS = 3
RUN_TIMEOUT_S = 170  # all repetitions of one invocation, after the build
SMOKE_SCALE = 0.02

# Rule-profile program names grouped into the layers the per-layer metrics report.
PROGRAM_LAYERS = {
    "paxos": ["paxos"],
    "boomfs.nn": ["boomfs_nn"],
    "boomfs.fed": ["ha_bridge", "ha_bridge_fenced", "nn_federation", "partition_map"],
    "boomfs.gw": ["boomfs_gw"],
    "boommr.jt": ["boommr_jt"],
}
VIRT_LAYERS = ["paxos", "nn", "gw", "dn", "mr", "unattributed"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"BOOM sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={SOURCE}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout location
    if not cache.is_file():
        run_build_step(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "--target", "bench_system", "-j", jobs])


def run_build_step(cmd):
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}\n"
                         + (result.stdout + result.stderr)[-4000:])


def run_rep(workload, seed, deadline, scale=1.0, trace=False, spans_out=None):
    """One fresh-process repetition; returns its parsed JSON line."""
    cmd = [str(BINARY), workload, "--seed", str(seed), "--scale", repr(scale)]
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: repetitions ran past {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} seed {seed}: no output (exit {result.returncode})\n"
                         + result.stderr[-2000:])
    rep = json.loads(lines[-1])
    rep["exit"] = result.returncode
    return rep


def rep_count(seconds):
    return max(MIN_REPS, round(seconds / REP_SECONDS))


def check(reps):
    """Problems found across repetitions: oracle failures and nondeterminism."""
    problems = []
    for i, rep in enumerate(reps):
        for err in rep["errors"]:
            problems.append(f"rep {i}: {err}")
        if rep["exit"] != 0 and not rep["errors"]:
            problems.append(f"rep {i}: exit code {rep['exit']}")
        if rep["det"] != reps[0]["det"]:
            diff = sorted(k for k in rep["det"] if rep["det"][k] != reps[0]["det"].get(k))
            problems.append(f"rep {i}: deterministic results differ from rep 0 in {diff}")
    return problems


def succeeded(rep):
    return rep["attempted"] - rep["failed"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """Interpolated percentile, as Percentile() in src/sim/stats.h."""
    if not values:
        return 0.0
    xs = sorted(values)
    rank = p / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] * (1 - (rank - lo)) + xs[hi] * (rank - lo)


def fastest(reps, series):
    """Element-wise minimum over repetitions of a wall-time series.

    Set-up step i, slice i and op i do identical work in every repetition of a seed,
    so the fastest repetition of each is the measurement least disturbed by the host
    (see README).
    """
    return [min(values) for values in zip(*(r["wall"][series] for r in reps))]


def ops_per_s(reps):
    """Successful ops (jobs) over the timed phase's wall time, slice by slice fastest."""
    return succeeded(reps[0]) / (sum(fastest(reps, "slice_ms")) / 1000.0)


def end_to_end(reps):
    det = reps[0]["det"]
    metrics = {
        "setup_s": {"value": sum(fastest(reps, "setup_ms")) / 1000.0, "unit": "s"},
        "op_virt_ms_p50": {"value": det["op_virt_ms_p50"], "unit": "virt_ms"},
        "goodput_virt_ops_s": {
            "value": succeeded(reps[0]) / (det["virt_to_last_done_ms"] / 1000.0),
            "unit": "ops/virt_s"},
        "peak_rss_mb": {"value": statistics.median([r["wall"]["peak_rss_mb"] for r in reps]),
                        "unit": "MB"},
    }
    for name, metric in metrics.items():
        log(f"  {name:22s} {metric['value']:14.6g} {metric['unit']}")
    log(f"  {'ops_per_s (per-layer)':22s} {ops_per_s(reps):14.6g} ops/s")
    per_rep = {
        "setup_s (whole repetition)": [sum(r["wall"]["setup_ms"]) / 1000.0 for r in reps],
        "ops_per_s (whole repetition)": [succeeded(r) / r["wall"]["timed_s"] for r in reps],
    }
    for name, values in per_rep.items():
        lo, hi = quartiles(values)
        log(f"  {name}: median {statistics.median(values):.6g}, quartiles {lo:.6g} .. {hi:.6g}")
    log(f"  {len(reps)} repetitions over {det['samples']} ops each; virtual metrics are "
        f"identical in every repetition")
    return metrics


def per_layer(traced, untraced):
    """Per-layer metrics of one traced repetition (see README.md for each one)."""
    det = traced["det"]
    tr = traced["trace"]
    ops = max(1, succeeded(traced))
    rule_wall_us = tr["rule_wall_us"]
    timed_us = traced["wall"]["timed_s"] * 1e6

    def frac(num, den):
        return num / den if den else 0.0

    def program_frac(layer):
        wall = sum(tr["program_wall_us"].get(p, 0.0) for p in PROGRAM_LAYERS[layer])
        return frac(wall, rule_wall_us)

    # Wall throughput and per-op wall latency from the untraced repetitions, taking each
    # slice's and each op's fastest one.
    op_wall = [us for us in fastest(untraced, "op_wall_us") if us >= 0]  # -1: op failed
    m = {
        "ops_per_s": (ops_per_s(untraced), "ops/s"),
        "op_virt_ms_tail": (det["op_virt_ms_tail"], "virt_ms"),
        "op_wall_us_p50": (percentile(op_wall, 50), "us"),
        "op_wall_us_tail": (percentile(op_wall, det["tail_pct"]), "us"),
        "compile.parse_ms": (tr["compile"]["parse_ms"], "ms"),
        "compile.analyze_ms": (tr["compile"]["analyze_ms"], "ms"),
        "compile.install_ms": (tr["compile"]["install_ms"], "ms"),
        "compile.rules": (tr["compile"]["rules"], "count"),
        "fixpoint.ticks_per_op": (det["ticks"] / ops, "count"),
        "fixpoint.derivations_per_op": (det["derivations"] / ops, "count"),
        "fixpoint.rule_evals_per_op": (tr["rule_evals"] / ops, "count"),
        "fixpoint.tuples_per_eval": (frac(tr["rule_tuples"], tr["rule_evals"]), "ratio"),
        "fixpoint.rule_us_per_op": (rule_wall_us / ops, "us"),
        "fixpoint.rule_share": (frac(rule_wall_us, timed_us), "ratio"),
        "table.index_rebuilds_per_op": (det["index_rebuilds"] / ops, "count"),
        "table.probes_per_op": (det["probes"] / ops, "count"),
        "table.probe_hit_frac": (frac(det["probe_hits"], det["probes"]), "ratio"),
        "table.rows_end": (det["rows_end"], "count"),
        "sim.msgs_per_op": (det["messages"] / ops, "count"),
        "sim.residual_us_per_op": ((timed_us - rule_wall_us) / ops, "us"),
        "sim.dropped": (det["dropped"], "count"),
        "paxos.rule_frac": (program_frac("paxos"), "ratio"),
        "paxos.msgs_per_op": (tr["msgs"].get("paxos", 0) / ops, "count"),
        "paxos.state_rows_end": (det["paxos_rows_end"], "count"),
        "boomfs.nn.rule_frac": (program_frac("boomfs.nn"), "ratio"),
        "boomfs.fed.rule_frac": (program_frac("boomfs.fed"), "ratio"),
        "boomfs.gw.rule_frac": (program_frac("boomfs.gw"), "ratio"),
        "boomfs.gw.shed_frac": (frac(det["gw_sheds"], det["gw_attempts"]), "ratio"),
        "boomfs.client.retries_per_op": (det["retries"] / ops, "count"),
        "boomfs.client.requests_per_op": (det["requests"] / ops, "count"),
        "boomfs.dn.msgs_per_op": (tr["msgs"].get("dn", 0) / ops, "count"),
        "boommr.jt.rule_frac": (program_frac("boommr.jt"), "ratio"),
        "boommr.jt.msgs_per_op": (tr["msgs"].get("mr", 0) / ops, "count"),
    }
    for layer in VIRT_LAYERS:
        m[f"virt.{layer}_frac"] = (frac(tr["virt_ms"][layer], tr["virt_latency_ms"]), "ratio")
    base = statistics.median([r["wall"]["timed_s"] for r in untraced])
    m["telemetry.overhead_frac"] = (traced["wall"]["timed_s"] / base - 1.0, "ratio")
    m["telemetry.spans_dropped"] = (tr["spans_dropped"], "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def print_layer_table(workload, traced, metrics):
    tr = traced["trace"]
    ops = max(1, succeeded(traced))
    log(f"\n== {workload} (seed {traced['seed']}, {ops} ops, traced wall "
        f"{traced['wall']['timed_s']:.3f} s) ==")
    for name, metric in metrics.items():
        log(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    log("  top rules by wall time (summed over engines):")
    for rule, wall_us, evals, tuples in tr["top_rules"]:
        log(f"    {rule:40s} {wall_us / 1000:10.1f} ms  evals={evals} tuples={tuples}")
    log(f"  virtual critical-path split over {tr['op_traces']} op traces, ms per op:")
    n = max(1, tr["op_traces"])
    for layer in VIRT_LAYERS:
        share = tr["virt_ms"][layer] / tr["virt_latency_ms"] if tr["virt_latency_ms"] else 0
        log(f"    {layer:14s} {tr['virt_ms'][layer] / n:10.3f} ms  ({share:6.1%})")


def benchmark(args):
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # With --trace 1 the last repetition is the traced one, so both modes run the same
    # number of processes.
    untraced = rep_count(args.seconds) - args.trace
    reps = [run_rep(args.workload, args.seed, deadline) for _ in range(untraced)]
    log(f"{args.workload} seed {args.seed}: {len(reps)} untraced repetitions")
    if args.trace:
        # The traced repetition is checked with the others: it must reproduce their
        # deterministic results exactly.
        traced = run_rep(args.workload, args.seed, deadline, trace=True)
        metrics = per_layer(traced, reps)
        print_layer_table(args.workload, traced, metrics)
        reps = reps + [traced]
    else:
        metrics = end_to_end(reps)
    problems = check(reps)
    for p in problems:
        log(f"INCORRECT: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def smoke(args):
    build()
    problems = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for workload in WORKLOADS:
        plain = run_rep(workload, args.seed, deadline, scale=SMOKE_SCALE)
        traced = run_rep(workload, args.seed, deadline, scale=SMOKE_SCALE, trace=True)
        found = check([plain, traced])
        found += [f"{r['failed']} failed ops" for r in (plain, traced) if r["failed"]]
        log(f"{workload:12s} {plain['attempted']:6d} ops  "
            f"{'ok' if not found else 'FAILED: ' + '; '.join(found)}")
        problems += found
    return 0 if not problems else 1


def traced_report(args):
    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    problems = []
    for workload in workloads:
        spans_out = None
        if args.spans_out:
            Path(args.spans_out).mkdir(parents=True, exist_ok=True)
            spans_out = Path(args.spans_out) / f"{workload}.spans.json"
        deadline = time.monotonic() + RUN_TIMEOUT_S
        plain = run_rep(workload, args.seed, deadline)
        traced = run_rep(workload, args.seed, deadline, trace=True, spans_out=spans_out)
        problems += check([plain, traced])
        print_layer_table(workload, traced, per_layer(traced, [plain]))
    for p in problems:
        log(f"INCORRECT: {p}")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke(args)
        if args.traced:
            return traced_report(args)
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(args)
    except BenchError as err:
        log(f"error: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
