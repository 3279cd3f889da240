#!/usr/bin/env python3
"""Determinism self-check of the MILO benchmark.

Run from the repository root:

    python3 milobench/selftest.py [--seconds S] [--seed N] [WORKLOAD ...]

Runs every workload twice with one seed, in both modes (end-to-end and
traced), and compares the `fingerprint` line each run prints on stderr:
allocated words, peak heap, QoR ratios, rule and guard counters and the
final design digests must be identical.  Fails loudly (exit 1) when they
are not, or when a run reports incorrect output, instead of letting a
nondeterministic number reach the benchmark.

One exception, made by the program and not by the benchmark: the journal
records the budget's elapsed wall time as a variable-length hex float, so
on timing_journaled the journal's byte count moves by a few bytes between
runs, and through the journal's buffers so do the flow's allocation (by
a few hundred words in 412 million) and its peak heap (by up to about
1.5%).  Those three counts are compared to within JOURNAL_TOLERANCE and
every difference is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig19", "random_area", "timing_journaled")
JOURNAL_TOLERANCE = 0.02
JOURNAL_DEPENDENT = ("flow_alloc_mw", "peak_heap_mb", "journal.bytes")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} --trace {trace}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    prints = [line[len("fingerprint "):] for line in done.stderr.splitlines()
              if line.startswith("fingerprint ")]
    if len(prints) != 1:
        raise SystemExit(f"{workload} --trace {trace}: no fingerprint line")
    return result, json.loads(prints[0])


def differences(a, b):
    """Keys whose values differ, as (key, a, b); values are hex floats,
    digests or nested per-case lists."""
    return [(key, a.get(key), b.get(key)) for key in sorted(set(a) | set(b))
            if a.get(key) != b.get(key)]


def tolerated(workload, key, a, b):
    if workload != "timing_journaled" or key not in JOURNAL_DEPENDENT:
        return False
    x, y = float.fromhex(a), float.fromhex(b)
    return abs(x - y) <= JOURNAL_TOLERANCE * max(abs(x), abs(y))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads:
        for trace in (0, 1):
            runs = [run_once(workload, args.seed, args.seconds, trace)
                    for _ in range(2)]
            diff = differences(runs[0][1], runs[1][1])
            hard = [d for d in diff if not tolerated(workload, *d)]
            bad = [r for r, _ in runs if not r["correct"] or r["failed"]]
            status = "ok" if not hard and not bad else "FAILED"
            print(f"{workload} --trace {trace}: {status}")
            for key, a, b in diff:
                kind = "nondeterministic" if (key, a, b) in hard else "journal-dependent"
                print(f"  {kind} {key}: {a} != {b}")
            for r in bad:
                print(f"  incorrect run: {json.dumps(r)[:300]}")
            failures += bool(hard or bad)
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return 1
    print("selftest: every workload repeated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
