#!/usr/bin/env python3
"""CI gate for the JSON-lines prediction service.

Drives a scripted session through `ppredict serve` and asserts:
  1. repeating the whole query block is served from the warm result
     cache (nonzero hit count in the stats verb), and back-to-back
     repeats of the same compare all report cached:true;
  2. malformed / unknown-verb / ill-formed / oversized requests get
     structured error responses and the server keeps answering;
  3. a parallel session (--jobs 4) produces the same responses in the
     same order as --jobs 1 (timings and cache bits aside);
  4. the same session over the TCP fleet (--jobs 1) is byte-identical
     to the stdio transport (timings aside);
  5. a restart over a stale Unix-socket file (previous daemon killed
     hard) succeeds, while a second daemon on a live socket is refused.

That each query's output, status and warnings equal the one-shot CLI
subcommand's, and that a repeat is a cache hit, is checked per verb and
flag by the parity test, test/test_verbs.ml.
"""

import glob
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

PP = os.environ.get("PPREDICT", "./_build/default/bin/ppredict.exe")

fail = 0


def err(msg):
    global fail
    fail += 1
    print("::error::" + msg)


def serve(lines, jobs):
    proc = subprocess.run(
        [PP, "serve", "--jobs", str(jobs), "--max-request-bytes", "4096"],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        err(f"serve --jobs {jobs} exited {proc.returncode}: {proc.stderr.strip()}")
        sys.exit(1)
    return [json.loads(l) for l in proc.stdout.splitlines()]


# ---- the mixed query workload over the shipped samples ----

samples = sorted(glob.glob("samples/*.pf"))
if not samples:
    err("no samples/*.pf found (run from the repository root)")
    sys.exit(1)

cases = []
for f in samples:
    cases.append({"verb": "predict", "file": f})
    cases.append({"verb": "predict", "file": f, "flags": {"ranges": True}})
    cases.append({"verb": "lint", "file": f, "flags": {"json": True}})
    cases.append({"verb": "ranges", "file": f, "flags": {"json": True}})
cases.append({"verb": "compare", "file": "samples/daxpy.pf", "file2": "samples/jacobi.pf"})
cases.append({"verb": "predict", "file": "samples/calls.pf", "flags": {"interproc": True}})
# the A* restructuring verb, with and without the memory model
for f in ("samples/daxpy.pf", "samples/lcd.pf"):
    cases.append({"verb": "search", "file": f})
    cases.append({"verb": "search", "file": f, "flags": {"memory": True}})

n = len(cases)
lines = []
for rep in range(2):  # the second pass must be all cache hits
    for i, req in enumerate(cases):
        r = dict(req)
        r["id"] = rep * n + i
        lines.append(json.dumps(r))

ERRORS = [
    ("this is not json", "bad_json"),
    (json.dumps({"id": "e1", "verb": "frobnicate"}), "unknown_verb"),
    (json.dumps({"id": "e2", "verb": "predict"}), "bad_request"),
    ('{"id":"e3","verb":"predict","source":"' + "x" * 5000 + '"}', "oversized"),
    (json.dumps({"id": "e4", "verb": "predict", "machine": "vax", "file": samples[0]}), "error"),
]
lines += [l for l, _ in ERRORS]
lines.append(json.dumps({"id": "after-errors", "verb": "ping"}))

# back-to-back repeats of the same compare: the comparison path is the most
# expensive verb, and every repeat must come straight from the result cache
CMP = {"verb": "compare", "file": "samples/daxpy.pf", "file2": "samples/jacobi.pf"}
N_CMP = 3
for k in range(N_CMP):
    r = dict(CMP)
    r["id"] = f"cmp{k}"
    lines.append(json.dumps(r))

lines.append(json.dumps({"id": "stats", "verb": "stats"}))
lines.append(json.dumps({"id": "bye", "verb": "shutdown"}))

outs = serve(lines, jobs=1)
if len(outs) != len(lines):
    err(f"{len(lines)} requests but {len(outs)} responses")
    sys.exit(1)

# 2: structured errors, session still live afterwards
for k, (_, code) in enumerate(ERRORS):
    r = outs[2 * n + k]
    got = r.get("error", {}).get("code")
    if r.get("ok") or got != code:
        err(f"error case {k}: expected code {code}, got {json.dumps(r)}")
ping = outs[2 * n + len(ERRORS)]
if not ping.get("ok") or ping.get("output") != "pong":
    err(f"server did not answer ping after the error block: {json.dumps(ping)}")

# repeated compare block: identical to the compare in the warm pass, so
# every one of the repeats must report cached:true
cmp_base = 2 * n + len(ERRORS) + 1
for k in range(N_CMP):
    r = outs[cmp_base + k]
    if not r.get("ok") or not r.get("cached"):
        err(f"repeated compare {k}: expected a cache hit, got {json.dumps(r)}")

stats = outs[cmp_base + N_CMP]
hits = stats.get("stats", {}).get("cache", {}).get("hits", 0)
if hits < n:
    err(f"warm pass should give >= {n} cache hits, stats reports {hits}")
bye = outs[-1]
if not bye.get("ok") or bye.get("verb") != "shutdown":
    err(f"shutdown not acknowledged: {json.dumps(bye)}")

# 3: --jobs 4 answers the same session identically (order included)
def strip(o):
    o = dict(o)
    o.pop("t", None)
    o.pop("cached", None)  # which duplicate wins the cache race may differ
    if o.get("verb") == "stats":
        o.pop("stats", None)  # counters are timing/order dependent
    return json.dumps(o, sort_keys=True)

par = serve(lines, jobs=4)
if [strip(o) for o in par] != [strip(o) for o in outs]:
    err("--jobs 4 session differs from --jobs 1 session")


# 4: the same session over TCP must be byte-identical to stdio (the
# fleet under --jobs 1 is the deterministic baseline); here only timings
# and the stats payload may differ, cache bits included
def start_tcp(extra):
    pf = tempfile.NamedTemporaryFile(prefix="ppredict-port-", delete=False)
    pf.close()
    os.unlink(pf.name)
    proc = subprocess.Popen(
        [PP, "serve", "--tcp", "127.0.0.1:0", "--port-file", pf.name] + extra,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.time() + 20
    while time.time() < deadline:
        try:
            with open(pf.name) as f:
                port = int(f.read().strip())
            os.unlink(pf.name)
            return proc, port
        except (FileNotFoundError, ValueError):
            if proc.poll() is not None:
                err("tcp daemon died: " + proc.stderr.read().strip())
                sys.exit(1)
            time.sleep(0.05)
    err("tcp daemon did not write its port file")
    sys.exit(1)


def session_over(sock, session_lines):
    sock.sendall(("\n".join(session_lines) + "\n").encode())
    buf, resp = b"", []
    while len(resp) < len(session_lines):
        chunk = sock.recv(65536)
        if not chunk:
            break
        buf += chunk
        while b"\n" in buf and len(resp) < len(session_lines):
            one, buf = buf.split(b"\n", 1)
            resp.append(json.loads(one.decode()))
    return resp


def strip_t(o):
    o = dict(o)
    o.pop("t", None)
    if o.get("verb") == "stats":
        o.pop("stats", None)
    return json.dumps(o, sort_keys=True)


proc, port = start_tcp(["--jobs", "1", "--max-request-bytes", "4096"])
with socket.create_connection(("127.0.0.1", port), timeout=120) as s:
    tcp_outs = session_over(s, lines)
proc.wait(30)  # the session ends in a shutdown verb
if len(tcp_outs) != len(lines):
    err(f"tcp transport: {len(lines)} requests but {len(tcp_outs)} responses")
elif [strip_t(o) for o in tcp_outs] != [strip_t(o) for o in outs]:
    for a, b in zip(tcp_outs, outs):
        if strip_t(a) != strip_t(b):
            err(f"tcp response differs from stdio: {strip_t(a)} != {strip_t(b)}")
            break

# 5: socket-file lifecycle — a hard-killed daemon leaves a stale file a
# restart must claim, while a live daemon's socket is refused
sockdir = tempfile.mkdtemp(prefix="ppredict-sock-")
spath = os.path.join(sockdir, "daemon.sock")


def start_unix():
    proc = subprocess.Popen(
        [PP, "serve", "--socket", spath, "--jobs", "1"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.time() + 20
    while time.time() < deadline and not os.path.exists(spath):
        if proc.poll() is not None:
            err("unix daemon died: " + proc.stderr.read().strip())
            sys.exit(1)
        time.sleep(0.05)
    return proc


def unix_request(req):
    deadline = time.time() + 10
    while True:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(30)
                s.connect(spath)
                s.sendall((json.dumps(req) + "\n").encode())
                buf = b""
                while b"\n" not in buf:
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
                return json.loads(buf.split(b"\n", 1)[0].decode())
        except (ConnectionRefusedError, FileNotFoundError):
            if time.time() > deadline:
                raise
            time.sleep(0.1)


first = start_unix()
second = subprocess.run(
    [PP, "serve", "--socket", spath, "--jobs", "1"],
    capture_output=True, text=True,
)
if second.returncode == 0 or "live daemon" not in second.stderr:
    err(f"live socket not refused: exit {second.returncode}, "
        f"stderr {second.stderr.strip()!r}")
first.send_signal(signal.SIGKILL)
first.wait(30)
if not os.path.exists(spath):
    err("SIGKILL should leave the stale socket file behind")
restarted = start_unix()
pong = unix_request({"id": "p", "verb": "ping"})
if pong.get("output") != "pong":
    err(f"restart over stale socket did not answer: {json.dumps(pong)}")
unix_request({"id": "bye", "verb": "shutdown"})
if restarted.wait(30) != 0:
    err("restarted daemon exited nonzero after shutdown")
if os.path.exists(spath):
    err("socket file not unlinked on clean exit")
os.rmdir(sockdir)

print(f"serve gate: {len(lines)} requests, "
      f"{hits} warm cache hits, {len(ERRORS)} structured errors, "
      f"jobs 1 == jobs 4 == tcp, stale socket reclaimed, live socket refused")
sys.exit(1 if fail else 0)
