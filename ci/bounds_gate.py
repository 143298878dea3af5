#!/usr/bin/env python3
"""CI gate for the three-bound analysis (`ppredict bounds`).

Soundness over the shipped samples: for every loop nest of every sample,
the critical path of one iteration never exceeds what the bin-packing
schedule pays for that iteration (a longest latency chain is a lower
bound on any schedule of the same DAG).

Directed classifications that the bounds must keep earning:

  * jacobi.pf and streambound.pf under --memory on power1, and daxpy.pf
    under --memory on alpha21064, are memory-bound;
  * recurrence.pf and lcd.pf are LCD-bound on power1, with the LCD bound
    strictly above the bin-packing bound and a bound-disagreement event;
  * daxpy.pf on power1 stays compute-bound (the paper's model suffices).

That the server's bounds verb answers byte-identically to the CLI, and
from the result cache on a repeat, is checked by the parity test,
test/test_verbs.ml.
"""

import glob
import json
import os
import subprocess
import sys

PP = os.environ.get("PPREDICT", "./_build/default/bin/ppredict.exe")

fail = 0


def err(msg):
    global fail
    fail += 1
    print("::error::" + msg)


def run(args):
    return subprocess.run([PP] + args, capture_output=True, text=True)


def rat(s):
    """Parse the analyzer's rational rendering: '23' or '99/8'."""
    if "/" in s:
        num, den = s.split("/", 1)
        return float(num) / float(den)
    return float(s)


def bounds_json(f, extra=None):
    r = run(["bounds", "--json"] + (extra or []) + [f])
    if r.returncode != 0:
        return None
    return json.loads(r.stdout)


samples = sorted(glob.glob("samples/*.pf"))
if not samples:
    err("no samples found (run from the repository root)")

# -- 1: critical path <= bin packing on every nest of every sample ---------

nests = 0
for f in samples:
    doc = bounds_json(f)
    if doc is None:
        continue  # not a single-routine analyzable sample; other gates own it
    for routine in doc["routines"]:
        for nest in routine["nests"]:
            nests += 1
            if nest["critical_path"] > nest["bin_once"]:
                err(f"{f} line {nest['line']}: critical path {nest['critical_path']} "
                    f"exceeds the one-iteration packing {nest['bin_once']}")
print(f"checked {nests} loop nests: critical path <= bin packing")
if nests == 0:
    err("no loop nests analyzed")


# -- 2: directed classifications -------------------------------------------

def classify(f, extra=None):
    doc = bounds_json(f, extra)
    if doc is None or not doc["routines"] or not doc["routines"][0]["nests"]:
        return None, None
    r = doc["routines"][0]
    return r["nests"][0], r["events"]


for f, extra in [("samples/jacobi.pf", ["--memory"]),
                 ("samples/streambound.pf", ["--memory"]),
                 ("samples/daxpy.pf", ["--memory", "-m", "alpha21064"])]:
    nest, _ = classify(f, extra)
    if nest is None:
        err(f"{f}: bounds --json produced no nest")
    elif nest["classification"] != "memory-bound":
        err(f"{f} {' '.join(extra)}: expected memory-bound, got {nest['classification']}")

for f in ["samples/recurrence.pf", "samples/lcd.pf"]:
    nest, events = classify(f)
    if nest is None:
        err(f"{f}: bounds --json produced no nest")
        continue
    if nest["classification"] != "LCD-bound":
        err(f"{f}: expected LCD-bound, got {nest['classification']}")
    if rat(nest["lcd_per_iter"]) <= nest["bin_per_iter"]:
        err(f"{f}: LCD {nest['lcd_per_iter']}/iter not strictly above "
            f"bin {nest['bin_per_iter']}/iter")
    if not any(e["check"] == "bound-disagreement" for e in events):
        err(f"{f}: no bound-disagreement event")

nest, events = classify("samples/daxpy.pf")
if nest is None or nest["classification"] != "compute-bound":
    err("samples/daxpy.pf: expected compute-bound on power1")

if fail:
    print(f"bounds gate: {fail} failure(s)")
    sys.exit(1)
print("bounds gate: ok")
