#!/usr/bin/env python3
"""Run every BENCHMARK.json workload once through perfbench's traced path.

The per-layer numbers a performance change reports come from
`perfbench/run.py --trace 1`, so that path must work on a clean checkout.
For each workload BENCHMARK.json names (the file is read, never written),
this runs

    python3 perfbench/run.py --workload <w> --seconds 2 --trace 1

and fails unless

  * the run exits 0 and its last stdout line is JSON with "correct": true
    and "failed": 0;
  * that line's metric names equal BENCHMARK.json's "per_layer" names, in
    order;
  * ci/validate_trace.py accepts .bench_build/perfbench_trace_<w>.json.

Usage: ci/check_perfbench_traced.py
Exit 0 when every workload passes, 1 otherwise, 2 on any argument.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "2"


def check(workload, per_layer):
    """Runs one workload traced; returns its list of problems."""
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seconds", SECONDS, "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return ["perfbench exited %d" % run.returncode]
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last stdout line is not JSON"]
    problems = []
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0:
        problems.append("failed is %r" % result.get("failed"))
    names = list(result.get("metrics", {}))
    if names != per_layer:
        problems.append("metrics %s differ from BENCHMARK.json per_layer %s"
                        % (names, per_layer))
    trace = os.path.join(ROOT, ".bench_build",
                         "perfbench_trace_%s.json" % workload)
    if subprocess.run([sys.executable,
                       os.path.join(ROOT, "ci", "validate_trace.py"),
                       trace]).returncode != 0:
        problems.append("ci/validate_trace.py rejected %s" % trace)
    return problems


def main():
    if len(sys.argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    failed = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        problems = check(workload, per_layer)
        for problem in problems:
            print("%s: %s" % (workload, problem), file=sys.stderr)
        if problems:
            failed = True
        else:
            print("%s: traced run correct, per-layer metrics and trace valid"
                  % workload)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
