#!/usr/bin/env python3
"""Build and run the qrossbench end-to-end benchmark.

One run (what BENCHMARK.json's command does):

    python3 qrossbench/run.py --workload tune_cold --seed 1 --seconds 20 --trace 0

builds .bench_build/qrossbench/qrossbench from this checkout (Release), runs
it from the checkout root and passes its stdout through: a stamp line, then
the result object as the last line.  --trace 1 runs the traced pass and
prints the per-layer metrics instead of the end-to-end ones.

Spread (steadiness proof): run a workload K times on K seeds and print every
metric's median and quartiles, and the quartile spread against the bound in
BENCHMARK.json:

    python3 qrossbench/run.py --spread 10 --workload solve_open [--out s.json]

Compare two spread files (refuses files from different SIMD arms):

    python3 qrossbench/run.py --compare base.json change.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "qrossbench")
BINARY = os.path.join(BUILD_DIR, "qrossbench")
WORK_DIR = os.path.join(".bench_build", "work")  # relative to ROOT
WORKLOADS = ("tune_cold", "solve_open", "batch_tcp")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no QROSS source tree around %s (CMakeLists.txt and src/ "
             "missing)" % HERE)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (stamp, result, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d did not finish within %d s"
             % (workload, seed, RUN_TIMEOUT_S), 1)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode),
             proc.returncode or 1)
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1]), lines


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    bounds = load_bounds()
    stamps, runs = [], []
    for k in range(args.spread):
        seed = args.first_seed + k
        stamp, result, _ = run_once(args.workload, seed, args.seconds, 0)
        stamps.append(stamp)
        runs.append(result)
        print("seed %d: correct=%s %s" % (seed, result["correct"], " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            file=sys.stderr)
    arms = {s["simd"] for s in stamps}
    if len(arms) != 1:
        fail("runs used different SIMD arms %s; refusing to pool them"
             % sorted(arms), 1)
    summary = {"workload": args.workload, "stamp": stamps[0],
               "seeds": [s["seed"] for s in stamps],
               "correct": all(r["correct"] for r in runs), "metrics": {}}
    print("%-18s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3",
                                            "iqr/med", "bound"))
    steady = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        rel = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if rel > bound:
                flag, steady = "OVER", False
            elif rel > bound / 3:
                flag = "over 1/3"
        print("%-18s %12.6g %12.6g %12.6g %8.4f %6s %s"
              % (name, q1, med, q3, rel, bound, flag))
        summary["metrics"][name] = {"values": values, "q1": q1, "median": med,
                                    "q3": q3, "iqr_over_median": rel,
                                    "unit": runs[0]["metrics"][name]["unit"]}
    print("correct on every run: %s; spreads within bounds: %s"
          % (summary["correct"], steady))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if summary["correct"] and steady else 1


def compare(paths):
    bounds = load_bounds()
    with open(paths[0]) as f:
        base = json.load(f)
    with open(paths[1]) as f:
        change = json.load(f)
    if base["stamp"]["simd"] != change["stamp"]["simd"]:
        fail("SIMD arms differ (%s vs %s); results are not comparable"
             % (base["stamp"]["simd"], change["stamp"]["simd"]), 1)
    if base["workload"] != change["workload"]:
        fail("workloads differ", 1)
    worse_any = False
    for name, b in base["metrics"].items():
        c = change["metrics"].get(name)
        spec = bounds.get(name)
        if c is None or spec is None:
            continue
        delta = (c["median"] - b["median"]) / b["median"] if b["median"] else 0
        worse = delta if spec["better"] == "lower" else -delta
        verdict = "regressed" if worse > spec["bound"] else "ok"
        worse_any |= worse > spec["bound"]
        print("%-18s %12.6g -> %12.6g  %+7.2f%%  bound %.0f%%  %s"
              % (name, b["median"], c["median"], 100 * delta,
                 100 * spec["bound"], verdict))
    return 1 if worse_any else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, metavar="K")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args()

    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    build()
    if args.spread:
        return spread(args)
    _, _, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines[-2:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
