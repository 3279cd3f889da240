#!/usr/bin/env python3
"""Build the MILO benchmark harness from source and run one workload.

Run from the repository root:

    python3 milobench/run.py --workload fig19 --seed 1 --seconds 30 --trace 0

The harness (milobench/main.ml) is built with dune into _build/, with the
shared dune cache off so nothing is written outside the checkout.  Its
last line of stdout is the result object; everything else goes to stderr.
Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "milobench", "main.exe")
WORKLOADS = ("fig19", "random_area", "timing_journaled")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            dune + ["build", "--root", ROOT, "./milobench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not build():
        print("run.py: could not build milobench/main.exe", file=sys.stderr)
        return 2
    command = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the harness timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
