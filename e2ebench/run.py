#!/usr/bin/env python3
"""Build the end-to-end benchmark from source, then run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload train-opamp-gatfc --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), configured in
Release; later runs only re-check it. Build output goes to stderr. Every
argument is passed to the e2ebench binary, whose last stdout line is the
result JSON. A failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", "4"],
        check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([os.path.join(build_dir, "e2ebench")] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
