#!/usr/bin/env python3
"""Build and run dracobench, the dracod benchmark.

Usage, from the root of a checkout:

    python3 dracobench/run.py --workload warm_inproc --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds dracobench/ (a CMake package that
compiles the draco libraries from src/) into .bench_build; later runs
only re-check the build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Every argument is passed on
to the dracobench binary; see dracobench/NOTES.md for the workloads and
metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# CARGO_TARGET_DIR names the checkout's build directory when set.
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build; exit non-zero on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("dracobench: no draco sources under src/ of " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "dracobench"])
    for cmd in steps:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            sys.exit("dracobench: build step failed: " + " ".join(cmd))


def main():
    build()
    binary = os.path.join(BUILD, "dracobench")
    # The benchmark runs from the checkout root; its Unix socket lives in
    # the build directory under a short relative path (sun_path holds
    # only 107 bytes).
    cmd = [binary, "--socket-dir", os.path.relpath(BUILD, ROOT)]
    cmd += sys.argv[1:]
    os.chdir(ROOT)
    os.execv(binary, cmd)


if __name__ == "__main__":
    main()
