#!/usr/bin/env python3
"""Builds and runs the xflux benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The engine and the benchmark binary (xflux_perfbench) are compiled from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build), then the
binary runs.  Build output goes to standard error; the binary's standard
output is passed through, and its last line is the JSON result.  The exit
code is non-zero, and no result is printed, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "xflux_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        return None
    return os.path.join(build_dir, "xflux_perfbench")


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    args = [binary] + sys.argv[1:] + ["--work-dir", os.path.relpath(work_dir)]
    try:
        run = subprocess.run(args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if run.returncode != 0:
        sys.stdout.buffer.write(run.stdout)
        print("perfbench: xflux_perfbench exited with %d" % run.returncode,
              file=sys.stderr)
        return run.returncode if run.returncode > 0 else 4
    sys.stdout.buffer.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
