#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Repeats each workload untraced with seeds 1, 2, ..., one per run, then
prints for every metric the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median. An end-to-end
metric whose spread exceeds its bound in BENCHMARK.json is flagged.

    python3 perfbench/steadiness.py run --runs 10 --out set1.json
    python3 perfbench/steadiness.py run --runs 5 --workloads scale_sweep
    python3 perfbench/steadiness.py compare set1.json set2.json

`compare` flags every metric whose second-set median is worse than the
first-set median by more than its bound, in the metric's "better" direction.
Exits 1 when anything is flagged or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: correct=%s failed=%d" % (
            workload, seed, result["correct"], result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def cmd_run(args):
    spec, metrics = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    collected = {}
    flagged = False
    for workload in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(spec, workload, seed))
            print("%s seed %d: %s" % (workload, seed, json.dumps(runs[-1])),
                  flush=True)
        collected[workload] = runs
        print("\n%s (%d runs)" % (workload, len(runs)))
        print("  %-40s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, q1, q3, s = spread(values)
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s > bound:
                flag, flagged = "  SPREAD > BOUND", True
            elif bound is not None and s > bound / 3:
                flag = "  spread > bound/3"
            print("  %-40s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, med, q1, q3, s, bound if bound is not None else "-",
                flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(collected, f, indent=1)
    return 1 if flagged else 0


def cmd_compare(args):
    _, metrics = load_spec()
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    flagged = False
    for workload in first:
        if workload not in second:
            continue
        print(workload)
        for name in first[workload][0]:
            a = statistics.median(r[name] for r in first[workload])
            b = statistics.median(r[name] for r in second[workload])
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            change = (b - a) / a if a else 0.0
            worse = change if meta.get("better") == "lower" else -change
            flag = ""
            if bound is not None and worse > bound:
                flag, flagged = "  WORSE BY MORE THAN BOUND", True
            print("  %-40s %12.6g -> %12.6g  %+7.2f%%%s" % (
                name, a, b, 100 * change, flag))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="repeat workloads and report spreads")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--workloads", default="")
    run.add_argument("--out", default="")
    compare = sub.add_parser("compare", help="compare two saved sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    try:
        return cmd_run(args) if args.cmd == "run" else cmd_compare(args)
    except RuntimeError as error:
        print("steadiness: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
