#!/usr/bin/env python3
"""End-to-end benchmark for iotscope: one command per run.

    python3 perfbench/run.py --workload batch-default --seed 7 --seconds 30 --trace 0

builds the benchmark (perfbench/CMakeLists.txt: the library from src/
plus the benchmark binary from perfbench/cpp/, Release) under .bench_build/,
generates or reuses the seed's corpus, runs the workload, checks every
output, and prints one JSON line last on stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer budget
(and writes a Chrome trace-event JSON under .bench_build/perfbench-data/
traces/). Two more modes serve the benchmark itself:

    python3 perfbench/run.py --smoke
        every workload at a tiny size, traced and untraced, in seconds;
        exits 1 unless every run prints a well-formed, correct result.
    python3 perfbench/run.py --steadiness [--workload W] [--seconds 30]
        two sets of five runs of every workload (or of W), interleaved run
        by run on fresh seeds; prints each end-to-end metric's median and
        quartile spread per set and the difference between the sets
        against its bound, and exits 1 if any falls outside its bound.

See perfbench/README.md for the workloads, metrics and estimators.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DATA = ROOT / ".bench_build" / "perfbench-data"
WORKLOADS = ["batch-default", "batch-skew", "follow-serve"]
DEFAULT_SEED = 20170412
RUNS_PER_SET = 5


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, smoke=False, echo=True):
    """One prepare + run. Returns the parsed result line (None if the run
    printed none) and relays the binary's stdout when `echo` is set."""
    common = ["--workload", workload, "--seed", str(seed), "--root", str(DATA),
              "--commit", commit()]
    if smoke:
        common.append("--smoke")
    subprocess.run([str(binary), "prepare"] + common, stdout=sys.stderr,
                   check=True)
    proc = subprocess.run(
        [str(binary), "run"] + common +
        ["--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(binary):
    spec = benchmark_spec()
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(binary, workload, DEFAULT_SEED, 1.5, trace,
                              smoke=True, echo=False)
            problems = []
            if result is None:
                problems.append("no result line")
            else:
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                if result.get("failed") != 0 or result.get("attempted", 0) < 1:
                    problems.append(f"attempted {result.get('attempted')} "
                                    f"failed {result.get('failed')}")
                if list(result.get("metrics", {})) != wanted[trace]:
                    problems.append("metric names differ from BENCHMARK.json")
                if trace == 0 and any(
                        v["value"] <= 0 for v in result["metrics"].values()):
                    problems.append("an end-to-end metric is not positive")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload:14s} trace={trace}: {status}", flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def steadiness(binary, seconds, workloads, base_seed):
    """Two sets (A, B) of every workload, interleaved run by run, each run
    on its own seed. Reports per-set medians and quartile spreads and the
    A-to-B median shift against each metric's bound; returns 1 if any
    spread or shift exceeds its bound."""
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    seed = base_seed
    outside = 0
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(RUNS_PER_SET):
            for name in ("A", "B"):
                seed += 1
                result = run_once(binary, workload, seed, seconds, 0,
                                  echo=False)
                if result is None or not result["correct"]:
                    print(f"{workload} set {name} run {i}: FAILED "
                          f"(seed {seed}): {result}", flush=True)
                    return 1
                sets[name].append(
                    {k: v["value"] for k, v in result["metrics"].items()})
                log(f"{workload} set {name} run {i + 1}/{RUNS_PER_SET} "
                    f"seed {seed}")
        print(f"\n{workload}: {RUNS_PER_SET} runs per set, {seconds} s each",
              flush=True)
        print(f"  {'metric':18s} {'bound':>6s} {'A median':>12s} {'A iqr':>7s} "
              f"{'B median':>12s} {'B iqr':>7s} {'all iqr':>7s} "
              f"{'B/A-1':>7s}  verdict")
        for metric, bound in bounds.items():
            a = [run[metric] for run in sets["A"]]
            b = [run[metric] for run in sets["B"]]
            spread_a, spread_b = quartile_spread(a), quartile_spread(b)
            spread_all = quartile_spread(a + b)
            shift = statistics.median(b) / statistics.median(a) - 1
            worst = max(spread_a, spread_b, spread_all)
            if worst > bound or abs(shift) > bound:
                verdict = "OUTSIDE BOUND"
                outside += 1
            elif worst <= bound / 3 and abs(shift) <= bound / 3:
                verdict = "steady"
            else:
                verdict = "within bound"
            print(f"  {metric:18s} {bound:6.2f} {statistics.median(a):12.6g} "
                  f"{spread_a:7.3f} {statistics.median(b):12.6g} "
                  f"{spread_b:7.3f} {spread_all:7.3f} {shift:+7.3f}  "
                  f"{verdict}", flush=True)
    return 1 if outside else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()

    if not (args.smoke or args.steadiness or args.workload):
        parser.error("give --workload, --smoke or --steadiness")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    try:
        if args.smoke:
            return smoke(binary)
        if args.steadiness:
            return steadiness(binary, seconds,
                              [args.workload] if args.workload else WORKLOADS,
                              args.seed)
        result = run_once(binary, args.workload, args.seed, seconds,
                          args.trace)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"run failed: {error}")
        return 1
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
