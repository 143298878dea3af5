#!/usr/bin/env python3
"""CI gate for the telemetry surfaces of the prediction service.

Starts `ppredict serve --socket`, drives a warm session over the Unix
socket, scrapes the `metrics` verb, and asserts:
  1. the exposition parses as Prometheus text format 0.0.4: every line
     is a comment or `name[{labels}] value`, every histogram family has
     monotone cumulative buckets ending at `+Inf` whose final count
     equals `_count`;
  2. the request-latency histogram (pperf_server_request_ns) is
     non-empty and consistent with the number of requests served;
  3. the extended `stats` verb reports p50/p90/p99 over the session,
     ordered and non-negative;
  4. a `--trace` run's span tree is internally consistent: each node's
     total covers its self time plus its children's totals, and the
     root total stays within 5% of the measured wall time (plus a small
     absolute allowance for process startup jitter).
"""

import json
import os
import re
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


# ---- drive a session over the Unix socket ----

sock_path = os.path.join(tempfile.mkdtemp(prefix="pperf-gate-"), "pperf.sock")
server = subprocess.Popen(
    [PP, "serve", "--jobs", "2", "--socket", sock_path],
    stdout=subprocess.PIPE,
    stderr=subprocess.PIPE,
    text=True,
)
try:
    for _ in range(100):
        if os.path.exists(sock_path):
            break
        if server.poll() is not None:
            print(server.stderr.read(), file=sys.stderr)
            err(f"server exited {server.returncode} before creating the socket")
            sys.exit(1)
        time.sleep(0.1)
    else:
        err("socket never appeared")
        sys.exit(1)

    def session(reqs):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(sock_path)
        conn.sendall(("\n".join(json.dumps(r) for r in reqs) + "\n").encode())
        conn.shutdown(socket.SHUT_WR)
        buf = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
        conn.close()
        return [json.loads(l) for l in buf.decode().splitlines()]

    reqs = []
    for i in range(8):
        reqs.append({"id": i, "verb": "predict", "file": "samples/daxpy.pf"})
        reqs.append({"id": 100 + i, "verb": "predict", "file": "samples/jacobi.pf"})
    n_queries = len(reqs)
    outs = session(reqs)
    # scrape in a second session, once every query has been answered: in
    # the same pipelined session an idle worker may run stats/metrics
    # before the queries ahead of them finish
    reqs += [{"id": "stats", "verb": "stats"}, {"id": "metrics", "verb": "metrics"}]
    outs += session(reqs[n_queries:])
    if len(outs) != len(reqs):
        err(f"{len(reqs)} requests but {len(outs)} responses")
        sys.exit(1)
    by_id = {o.get("id"): o for o in outs}

    # ---- 1 + 2: the exposition parses and the latency histogram is live ----

    metrics = by_id.get("metrics", {})
    if not metrics.get("ok"):
        err(f"metrics verb failed: {json.dumps(metrics)}")
        sys.exit(1)
    text = metrics.get("output", "")

    SAMPLE = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+]+|\+Inf|NaN)$"
    )
    families = {}  # name -> type
    samples = []  # (name, labels, value)
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$", line)
            if m:
                families[m.group(1)] = m.group(2)
            elif not line.startswith("# HELP"):
                err(f"unparseable comment line: {line!r}")
            continue
        m = SAMPLE.match(line)
        if not m:
            err(f"unparseable sample line: {line!r}")
            continue
        samples.append((m.group(1), m.group(2) or "", m.group(3)))
    if not families:
        err("no # TYPE lines in the exposition")

    def series(name):
        return [(l, v) for (n, l, v) in samples if n == name]

    for fam, ftype in families.items():
        if ftype != "histogram":
            continue
        buckets = series(fam + "_bucket")
        if not buckets:
            err(f"histogram {fam} has no buckets")
            continue
        counts = [int(v) for _, v in buckets]
        if counts != sorted(counts):
            err(f"histogram {fam} buckets are not cumulative: {counts}")
        last_le = re.search(r'le="([^"]*)"', buckets[-1][0]).group(1)
        if last_le != "+Inf":
            err(f"histogram {fam} does not end at +Inf (ends {last_le})")
        count = series(fam + "_count")
        if not count or int(count[0][1]) != counts[-1]:
            err(f"histogram {fam}: _count != final cumulative bucket")

    lat = series("pperf_server_request_ns_count")
    if not lat:
        err("no pperf_server_request_ns_count sample")
    elif int(lat[0][1]) < n_queries:
        err(f"request latency histogram has {lat[0][1]} samples, expected >= {n_queries}")

    # ---- 3: extended stats quantiles ----

    stats = by_id.get("stats", {}).get("stats", {})
    latency = stats.get("latency", {})
    qs = []
    for q in ("p50_ns", "p90_ns", "p99_ns"):
        v = latency.get(q)
        if v == "+Inf":
            v = float("inf")
        if not isinstance(v, (int, float)):
            err(f"stats latency has no numeric {q}: {json.dumps(latency)}")
            v = 0
        qs.append(v)
    if qs != sorted(qs) or any(v < 0 for v in qs):
        err(f"latency quantiles not ordered/non-negative: {qs}")
    if latency.get("count", 0) < n_queries:
        err(f"stats latency count {latency.get('count')} < {n_queries} served queries")
    for stage in ("queue", "cache", "eval", "write"):
        if stage not in stats.get("stages", {}):
            err(f"stats stages section is missing {stage!r}")

    session([{"id": "bye", "verb": "shutdown"}])
    server.wait(timeout=10)
finally:
    if server.poll() is None:
        server.kill()

# ---- 4: --trace span tree consistency against wall time ----

t0 = time.monotonic()
one = subprocess.run(
    [PP, "predict", "--trace", "samples/jacobi.pf"], capture_output=True, text=True
)
wall_ns = (time.monotonic() - t0) * 1e9
if one.returncode != 0:
    err(f"predict --trace exited {one.returncode}: {one.stderr.strip()}")
    sys.exit(1)
tree = json.loads(one.stdout.splitlines()[-1])


def check_node(node, path):
    child_total = sum(c["total_ns"] for c in node["children"])
    if node["self_ns"] + child_total > node["total_ns"] * 1.01 + 1000:
        err(f"span {path}: self {node['self_ns']} + children {child_total} "
            f"exceed total {node['total_ns']}")
    for c in node["children"]:
        check_node(c, path + "/" + c["name"])


check_node(tree, tree["name"])
if tree["name"] != "trace" or not tree["children"]:
    err(f"trace tree has no phases: {one.stdout.strip()}")
# the root total must account for the evaluation: within 5% of the
# process wall time once argv parsing / process startup (~ a few ms,
# absolute) is allowed for
if tree["total_ns"] > wall_ns:
    err(f"trace total {tree['total_ns']}ns exceeds process wall time {wall_ns:.0f}ns")
if tree["total_ns"] < wall_ns * 0.95 - 50e6:
    err(f"trace total {tree['total_ns']}ns is under 95% of wall time {wall_ns:.0f}ns")

# only figures that repeat from run to run, so the line compares byte for
# byte across a change; observation counts, quantiles and times vary
print(f"metrics gate: {len(families)} families, {len(samples)} samples")
sys.exit(1 if fail else 0)
