#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The benchmark is its own CMake package (perfbench/CMakeLists.txt) that
compiles the library from src/. It is built into $CARGO_TARGET_DIR when
set, else .bench_build; scratch files of a run go under <build>/work. The
last line of standard output is the run's JSON result; build logs go to
standard error. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an existing tree again is a quick no-op, and it repairs a
    # tree whose first configure failed.
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return code
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
