#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (README.md in this directory).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call (re)builds bench/e2e, and the library from src/, into build/e2e
at the checkout root; only the first call compiles anything. Build output
goes to stderr, so the last line of stdout is the JSON result of pbs_e2e.
Exits nonzero, printing no result, when the build fails or pbs_e2e rejects
its arguments.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "e2e"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                ["cmake", "--build", str(BUILD), "--target", "pbs_e2e",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([
        str(BUILD / "pbs_e2e"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds:g}",
        f"--trace={args.trace}",
        f"--out-dir={BUILD / 'results'}",
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
