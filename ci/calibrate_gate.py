#!/usr/bin/env python3
"""CI gate for machine calibration and the machines listing.

Asserts:
  1. `ppredict calibrate` on the scalar builtin, on the power1x2
     builtin (a classic machine with twin FXU, FPU and LSU units) and on
     the ooo4 ports machine exits 0 with a report ending in "-> ok", and
     the reported max relative error is within the default tolerance;
  2. the fitted description written by --out is the canonical fixpoint
     (`ppredict machine FITTED` re-emits the identical bytes) and is a
     usable machine (it drives `ppredict predict` cleanly).

That the server's machines and calibrate verbs answer byte-identically
to the CLI (status included, on a machine that fails calibration too),
and from the result cache on a repeat, is checked by the parity test,
test/test_verbs.ml.
"""

import os
import re
import subprocess
import sys
import tempfile

PP = os.environ.get("PPREDICT", "./_build/default/bin/ppredict.exe")
TOLERANCE = 0.25

fail = 0


def err(msg):
    global fail
    fail += 1
    print("::error::" + msg)


def cli(args):
    return subprocess.run([PP] + args, capture_output=True, text=True)


# ---- 1 + 2: calibrate three machines, check the reports and fitted files ----

SPECS = ["scalar", "power1x2", "machines/ooo4.pmach"]
tmpdir = tempfile.mkdtemp(prefix="ppredict-calibrate-")
for spec in SPECS:
    tag = os.path.splitext(os.path.basename(spec))[0]
    fitted = os.path.join(tmpdir, tag + "-fit.pmach")
    r = cli(["calibrate", "-m", spec, "--out", fitted])
    if r.returncode != 0:
        err(f"calibrate {spec}: exit {r.returncode}: {r.stderr.strip()}")
        continue
    m = re.search(r"max relative error (\d+\.\d+) -> (\w+)", r.stdout)
    if not m:
        err(f"calibrate {spec}: report has no max-relative-error line")
        continue
    rel, verdict = float(m.group(1)), m.group(2)
    if verdict != "ok":
        err(f"calibrate {spec}: verdict {verdict!r}, expected ok")
    if rel > TOLERANCE:
        err(f"calibrate {spec}: max relative error {rel} > tolerance {TOLERANCE}")
    if not os.path.exists(fitted):
        err(f"calibrate {spec}: --out wrote no file")
        continue
    with open(fitted) as f:
        fitted_text = f.read()
    if fitted_text not in r.stdout:
        err(f"calibrate {spec}: the report does not contain the fitted description")
    # the fitted description is the canonical fixpoint of the printer
    reprint = cli(["machine", fitted])
    if reprint.returncode != 0:
        err(f"machine {fitted}: exit {reprint.returncode}: {reprint.stderr.strip()}")
    elif reprint.stdout != fitted_text:
        err(f"calibrate {spec}: fitted description is not round-trip stable")
    # and a machine like any other: it must drive predict
    pred = cli(["predict", "-m", fitted, "samples/daxpy.pf"])
    if pred.returncode != 0:
        err(f"predict with fitted {tag}: exit {pred.returncode}: {pred.stderr.strip()}")

print(
    f"calibrate gate: {len(SPECS)} machines fitted within tolerance {TOLERANCE}, "
    f"fitted descriptions round-trip and predict"
)
sys.exit(1 if fail else 0)
