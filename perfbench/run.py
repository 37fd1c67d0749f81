#!/usr/bin/env python3
"""Build and run one workload of the wifisense serving / offline benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_clean|serve_faulty|offline \
        [--seed N] [--sim-seed N] [--fault-seed N] [--seconds S] [--trace 0|1]

The first call configures and builds the library and the benchmark binary under
.bench_build/perfbench (Release); later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is always the binary's JSON
result. The binary ignores every WIFISENSE_* environment variable: threads,
kernel backend, sizes and observability are fixed inside the benchmark, and
the variables are also removed from its environment here.

Exit status: the binary's (0 ok, 1 a failed output check, 2 bad arguments),
or 3 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wifisense_perfbench")


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "wifisense_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main() -> int:
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WIFISENSE_")}
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
