#!/usr/bin/env python3
"""Builds the benchmark on first use, then runs one workload.

    python3 perfbench/run.py --workload scale_sweep|paper_sweeps|advise_service
                             --seed N --seconds S --trace 0|1 [--threads T]

The C++ benchmark (perfbench/CMakeLists.txt) compiles the library sources
under src/ in Release mode into .bench_build/perfbench at the repository
root. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits nonzero when the build fails, the sources are
missing, or an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core",
                                       "cost_model.hpp")):
        print("perfbench: library sources not found under src/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
