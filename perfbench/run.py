#!/usr/bin/env python3
"""The stsyn end-to-end benchmark.

Builds perfbench (and the library sources it links) into .bench_build/ of
the checkout, then runs it:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last line of standard output is the JSON result.
  python3 perfbench/run.py --report N [--sets K] [--workloads a,b] [--seconds S]
      Steadiness report: N runs per workload (seeds 1..N), each metric's
      median and quartiles; with --sets 2, a second set of N runs and the
      ratio of the two medians.
  python3 perfbench/run.py --selftest
      The benchmark's own tests, plus two traced runs of every workload
      with one seed whose deterministic counters must agree exactly.

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["strong_matching", "strong_coloring", "weak_matching", "serve_mix"]
# A run that has not ended after this long is hung.
RUN_TIMEOUT_S = 175
# Per-layer counters that depend only on the seed, never on timing.
DETERMINISTIC = ("scc_steps", "scc_calls", "frontier_steps", "preimage_ops",
                 "image_ops", "bdd_cache_lookups", "bdd_unique_probes",
                 "bdd_gc_runs", "bdd_peak_live_nodes")


def build():
    sys.stdout.flush()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def binary(name):
    return os.path.join(BUILD, name)


def run_once(workload, seed, seconds, trace, capture):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    args = [binary("stsyn_perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    args += ["--oracle-cache", os.path.join(BUILD, "explicit_verdicts")]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(TRACES, "%s-seed%s.json" % (workload, seed))]
    try:
        proc = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: %s seed %s timed out" % (workload, seed),
              file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout.decode() if capture else None


def result_of(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(workloads, runs, seconds, first_seed):
    """{workload: {metric: [values]}}; exits on a failed or incorrect run."""
    values = {}
    for workload in workloads:
        per_metric = values.setdefault(workload, {})
        for seed in range(first_seed, first_seed + runs):
            code, stdout = run_once(workload, seed, seconds, 0, True)
            result = result_of(stdout) if code == 0 else None
            if result is None or not result["correct"] or result["failed"]:
                print("perfbench: %s seed %d failed: %s"
                      % (workload, seed, result), file=sys.stderr)
                sys.exit(1)
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print("%-16s seed %-3d %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), file=sys.stderr)
    return values


def report(args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    sets = [run_set(workloads, args.report, args.seconds,
                    1 + k * args.report) for k in range(args.sets)]
    summary = {}
    print("%-16s %-18s %12s %12s %12s %8s %8s" % (
        "workload", "metric", "median", "q1", "q3", "spread",
        "ratio" if args.sets > 1 else ""))
    for workload in workloads:
        for name in sets[0][workload]:
            rows = []
            for values in sets:
                q1, med, q3 = quartiles(values[workload][name])
                rows.append({"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0})
            ratio = (rows[-1]["median"] / rows[0]["median"]
                     if rows[0]["median"] else 1.0)
            summary.setdefault(workload, {})[name] = {
                "sets": rows, "ratio": ratio}
            for k, row in enumerate(rows):
                print("%-16s %-18s %12.5g %12.5g %12.5g %8.4f %8s" % (
                    workload if k == 0 else "", name if k == 0 else "",
                    row["median"], row["q1"], row["q3"], row["spread"],
                    "%.4f" % ratio if k == len(rows) - 1 and len(rows) > 1
                    else ""))
    print(json.dumps(summary))
    return 0


def selftest(args):
    code = subprocess.run([binary("perfbench_selftest")], cwd=ROOT).returncode
    failures = 0 if code == 0 else 1
    for workload in WORKLOADS:
        counters = []
        for _ in range(2):
            code, stdout = run_once(workload, 11, args.seconds, 1, True)
            result = result_of(stdout) if code == 0 else None
            if result is None or not result["correct"]:
                print("FAIL  %s traced run failed" % workload)
                failures += 1
                break
            counters.append({k: v["value"]
                             for k, v in result["metrics"].items()
                             if k.endswith(DETERMINISTIC)})
        if len(counters) == 2:
            same = counters[0] == counters[1] and counters[0]
            print("%s  %s: %d deterministic counters repeat across two runs"
                  % ("ok  " if same else "FAIL", workload, len(counters[0])))
            failures += 0 if same else 1
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", type=int, metavar="N")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if not (args.workload or args.report or args.selftest):
        parser.error("one of --workload, --report, --selftest is required")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.selftest:
        if args.seconds > 4:
            args.seconds = 4
        return selftest(args)
    if args.report:
        return report(args)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       False)
    return code


if __name__ == "__main__":
    sys.exit(main())
