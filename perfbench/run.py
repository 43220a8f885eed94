#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Every call configures and builds perfbench/ (the simulator library
from src/ plus the perfbench driver) in Release mode under
.bench_build/perfbench; after the first call both steps are quick
up-to-date checks. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. Exits non-zero without a result
when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JOBS = str(min(4, os.cpu_count() or 1))


def build(target):
    """Configures (a no-op once cached), then builds target; False on
    failure."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", JOBS,
              "--target", target]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_test"):
            return 2
        return subprocess.run([str(BUILD / "perfbench_test")],
                              cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(ROOT / ".bench_build" / "perfbench-run"),
           "--goldens", str(HERE / "goldens.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
