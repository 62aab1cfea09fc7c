#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload micro-1cu --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (which pulls in ../src)
under .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only
re-check the configuration and the build.  Result and span files land in perfbench-out/
beside the build.  Every argument is passed through to the perfbench
program, whose last stdout line is the JSON result.  Build output goes
to stderr so it never lands after that line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "4"


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(out):
    """Configures and builds; returns the binary path."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", out,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j",
         BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    try:
        binary = build(os.path.join(build_root(), "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build_root(), "perfbench-out")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
