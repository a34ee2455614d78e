#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it.

One run (the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; metrics are the end-to-end ones
untraced, the per-layer ones traced):

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The suite (every workload untraced, then traced, printed as one table):

  python3 bench/e2e/run.py [--seed N] [--seconds S]
      [--compare bench/e2e/baseline.json] [--write-baseline FILE]

Repeatability (two sets of runs over the same seeds; fails when an
end-to-end median moves by more than its bound in BENCHMARK.json, or when
an output-defining count differs):

  python3 bench/e2e/run.py --repeat-check [--runs 3]

The library is compiled from ../../src into build-e2e/ at the repository
root; every JSON result is written under build-e2e/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["ingest_broker", "ingest_aggregator", "query_week", "log_to_query"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("bench_e2e: build failed")


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, parsed JSON or None)."""
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(
        RESULTS, "%s-seed%d%s.json" % (workload, seed, "-trace" if trace else ""))
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--json=" + out]
    if trace:
        cmd.append("--trace")
    rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    if not os.path.exists(out):
        return rc, None
    with open(out) as f:
        return rc, json.load(f)


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def worse_by(metric, old, new):
    """Share of `old` by which `new` is worse (negative when better)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def contract(args):
    build()
    rc, result = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return rc or 1
    section = "per_layer" if args.trace == 1 else "end_to_end"
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result[section],
    }))
    return rc


def suite(args):
    build()
    results, ok = {}, True
    for workload in WORKLOADS:
        for trace in (False, True):
            rc, result = run_once(workload, args.seed, args.seconds, trace)
            ok = ok and rc == 0 and result is not None and result["correct"]
            if result is None:
                continue
            entry = results.setdefault(workload, {"counts": result["counts"]})
            entry["per_layer" if trace else "end_to_end"] = result[
                "per_layer" if trace else "end_to_end"]
    print("%-18s %-44s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload, entry in results.items():
        for section in ("end_to_end", "per_layer"):
            for name, m in entry.get(section, {}).items():
                print("%-18s %-44s %16.6g  %s" % (workload, name, m["value"], m["unit"]))
        for name, value in entry["counts"].items():
            print("%-18s %-44s %16s  (exact)" % (workload, name, value))
    with open(os.path.join(RESULTS, "suite.json"), "w") as f:
        json.dump({"seed": args.seed, "workloads": results}, f, indent=1, sort_keys=True)
    if args.write_baseline:
        with open(args.write_baseline, "w") as f:
            json.dump({"seed": args.seed, "workloads": results}, f, indent=1,
                      sort_keys=True)
            f.write("\n")
    if args.compare:
        ok = compare(results, args.compare) and ok
    return 0 if ok else 1


def compare(results, path):
    """Prints each metric's delta against a baseline; gates end-to-end
    metrics on their bounds and output-defining counts exactly."""
    with open(path) as f:
        baseline = json.load(f)["workloads"]
    bounds = load_bounds()
    ok = True
    print("\n%-18s %-44s %14s %14s %9s %7s  %s" %
          ("workload", "metric", "baseline", "now", "delta", "bound", "verdict"))
    for workload, entry in results.items():
        base = baseline.get(workload, {})
        for name, m in entry.get("end_to_end", {}).items():
            old = base.get("end_to_end", {}).get(name, {}).get("value")
            if old is None:
                continue
            worse = worse_by(bounds[name], old, m["value"])
            bad = worse > bounds[name]["bound"]
            ok = ok and not bad
            print("%-18s %-44s %14.6g %14.6g %+8.1f%% %6.0f%%  %s" % (
                workload, name, old, m["value"], 100 * (m["value"] - old) / old,
                100 * bounds[name]["bound"], "WORSE" if bad else "ok"))
        for name, m in entry.get("per_layer", {}).items():
            old = base.get("per_layer", {}).get(name, {}).get("value")
            if old is None:
                continue
            delta = "%+8.1f%%" % (100 * (m["value"] - old) / old) if old else "       -"
            print("%-18s %-44s %14.6g %14.6g %9s %7s  %s" % (
                workload, name, old, m["value"], delta, "-", "reported"))
        for name, value in entry["counts"].items():
            old = base.get("counts", {}).get(name)
            same = old == value
            ok = ok and same
            print("%-18s %-44s %14s %14s %9s %7s  %s" % (
                workload, name, old, value, "", "exact", "ok" if same else "DIFFERS"))
    return ok


def repeat_check(args):
    build()
    bounds = load_bounds()
    seeds = list(range(1, args.runs + 1))
    ok = True
    print("%-18s %-14s %12s %12s %8s %7s %8s %8s  %s" % (
        "workload", "metric", "median_a", "median_b", "diff", "bound",
        "iqr_a", "iqr_b", "verdict"))
    for workload in WORKLOADS:
        sets = []
        for _ in range(2):
            values, counts = {}, {}
            for seed in seeds:
                rc, result = run_once(workload, seed, args.seconds, False)
                if rc != 0 or result is None or not result["correct"]:
                    log("run failed: %s seed %d" % (workload, seed))
                    ok = False
                    continue
                for name, m in result["end_to_end"].items():
                    values.setdefault(name, []).append(m["value"])
                counts[seed] = result["counts"]
            sets.append((values, counts))
        (va, ca), (vb, cb) = sets
        if ca != cb:
            ok = False
            print("%-18s counts differ between the two sets" % workload)
        for name, metric in bounds.items():
            a, b = va.get(name, []), vb.get(name, [])
            if len(a) < 3 or len(b) < 3:
                ok = False
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            diff = abs(mb - ma) / ma if ma else 0.0
            bad = worse_by(metric, ma, mb) > metric["bound"]
            ok = ok and not bad
            print("%-18s %-14s %12.6g %12.6g %7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s" % (
                workload, name, ma, mb, 100 * diff, 100 * metric["bound"],
                100 * iqr_share(a), 100 * iqr_share(b), "FAIL" if bad else "ok"))
    return 0 if ok else 1


def iqr_share(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="BASELINE")
    parser.add_argument("--write-baseline", metavar="FILE")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set for --repeat-check (seeds 1..N)")
    args = parser.parse_args()
    if args.workload:
        return contract(args)
    if args.repeat_check:
        return repeat_check(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
