#!/usr/bin/env python3
"""CI gate for the benchmark's deterministic work counts.

    python3 ci/workcount_gate.py --workload {cold-corpus|search}

Runs the repository benchmark's traced seed-1 prefix (perfbench/run.py
with --trace 1, which also runs all of its own checks), reads the work
counts it prints (poly operations, bin placements, chain builds, ...) and
requires each to equal the value committed in ci/workcounts.json. The
counts are a function of the code and the seed alone, so they repeat on
any host: a change that makes a layer do more or less work moves a count,
and must update the file and say why.

Exit status: non-zero when the benchmark fails or any count differs.
"""

import argparse
import json
import os
import subprocess
import sys

COUNTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workcounts.json")


def parse_counts(stdout):
    for line in stdout.splitlines():
        if line.startswith("work counts: "):
            pairs = line[len("work counts: "):].split(", ")
            return {name: int(value) for name, value in (p.rsplit(" ", 1) for p in pairs)}
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["cold-corpus", "search"])
    ap.add_argument("--print", action="store_true", help="print the counts as JSON and exit")
    args = ap.parse_args()
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", "1",
         "--seconds", "5", "--trace", "1"],
        capture_output=True, text=True)
    counts = parse_counts(run.stdout)
    if run.returncode != 0 or counts is None:
        sys.stdout.write(run.stdout)
        sys.stderr.write(run.stderr)
        print("::error::benchmark run failed (exit %d)" % run.returncode)
        return 1
    if args.print:
        print(json.dumps(counts, indent=2))
        return 0
    with open(COUNTS) as f:
        expected = json.load(f)[args.workload]
    fail = 0
    for name in sorted(set(expected) | set(counts)):
        want, got = expected.get(name), counts.get(name)
        if want != got:
            fail += 1
            print("::error::%s %s: committed %s, measured %s" % (args.workload, name, want, got))
    if fail == 0:
        print("%s: all %d work counts match ci/workcounts.json" % (args.workload, len(counts)))
    return 1 if fail else 0


if __name__ == "__main__":
    sys.exit(main())
