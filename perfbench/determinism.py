#!/usr/bin/env python3
"""Seed and thread-count check for the repository benchmark.

Runs every workload briefly at the default seed (1) and the held-out seed
(2), each at --threads 1 and at --threads N (default: the hardware thread
count, at most 4), and compares the "deterministic:" lines the benchmark
prints: digests of the outputs plus counts that depend only on the inputs.
They must be identical across thread counts for one seed and differ between
the two seeds.

    python3 perfbench/determinism.py [--threads N] [--seconds S]

Exits 1 when a line differs across thread counts, does not differ across
seeds, or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def deterministic_lines(workload, seed, threads, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--threads", str(threads)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
        raise RuntimeError("%s seed %d threads %d failed" % (
            workload, seed, threads))
    return [line for line in lines if line.startswith("deterministic")]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--threads", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)))
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in workloads:
        by_seed = {}
        for seed in SEEDS:
            one = deterministic_lines(workload, seed, 1, args.seconds)
            many = deterministic_lines(workload, seed, args.threads,
                                       args.seconds)
            same = one == many
            ok &= same
            print("%s seed %d: threads 1 vs %d %s" % (
                workload, seed, args.threads,
                "identical" if same else "DIFFER"))
            for line in one:
                print("    " + line)
            by_seed[seed] = one
        differ = by_seed[SEEDS[0]] != by_seed[SEEDS[1]]
        ok &= differ
        print("%s: seeds %d and %d %s" % (
            workload, SEEDS[0], SEEDS[1],
            "differ" if differ else "DO NOT DIFFER"))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as error:
        print("determinism: %s" % error, file=sys.stderr)
        sys.exit(1)
