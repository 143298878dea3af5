#!/usr/bin/env python3
"""CI gate for the TCP serving fleet.

Drives `ppredict loadgen` storms against `ppredict serve --tcp` and
asserts, in order:

  1. main storm: >= 100k mixed requests over many pipelined
     connections — every request answered exactly once, per-connection
     responses in request order, zero unexpected protocol errors and
     zero transport errors, p99 latency and throughput within bounds;
  2. warm hits: the warm-hit rate of the incremental predictors
     (scraped from the Prometheus `metrics` verb) after a seed-7 storm
     of LOAD_GATE_BASELINE_REQUESTS requests at --jobs 4 is within 0.001
     of the same storm's at --jobs 1:
     the workers share one predictor per machine, so spreading requests
     over more of them loses no warm hits;
  3. overload: a deliberately under-provisioned fleet (--jobs 1
     --max-queue 4) sheds with structured `overloaded` errors carrying
     a retry_after_ms hint — it neither hangs nor crashes, and keeps
     answering after the flood;
  4. drain: SIGTERM answers what is in flight and exits cleanly;
  5. memory: `ppredict batch --jobs 1` over 8,000 and 32,000 distinct
     one-loop kernels, and over 1,000 and 4,000 distinct .pmach files,
     keeps every memo within its capacity (the closing `stats` request)
     and grows its peak RSS (`os.wait4`) by at most 20 MiB from the
     small run to the large one.

Environment knobs (all optional): LOAD_GATE_REQUESTS (default 100000),
LOAD_GATE_BASELINE_REQUESTS (20000), LOAD_GATE_P99_US (1000000),
LOAD_GATE_MIN_RPS (500), LOAD_GATE_CONNECTIONS (16), LOAD_GATE_WINDOW (64).
"""

import json
import os
import resource
import signal
import socket
import subprocess
import sys
import tempfile
import time

PP = os.environ.get("PPREDICT", "./_build/default/bin/ppredict.exe")
REQUESTS = int(os.environ.get("LOAD_GATE_REQUESTS", "100000"))
BASELINE_REQUESTS = int(os.environ.get("LOAD_GATE_BASELINE_REQUESTS", "20000"))
P99_US = float(os.environ.get("LOAD_GATE_P99_US", "1000000"))
MIN_RPS = float(os.environ.get("LOAD_GATE_MIN_RPS", "500"))
CONNECTIONS = int(os.environ.get("LOAD_GATE_CONNECTIONS", "16"))
WINDOW = int(os.environ.get("LOAD_GATE_WINDOW", "64"))

# how far the --jobs 4 warm-hit rate may stray from the --jobs 1 rate:
# two workers missing the same unit at once both count a miss
WARM_HIT_TOLERANCE = 0.001

fail = 0


def err(msg):
    global fail
    fail += 1
    print("::error::" + msg)


def start_daemon(extra):
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
                break
            time.sleep(0.05)
    out = proc.stderr.read() if proc.poll() is not None else ""
    err(f"daemon did not come up: {out.strip()}")
    sys.exit(1)


def tcp_session(port, lines, timeout=120):
    """Send all lines, read one response per line, in order."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(("\n".join(lines) + "\n").encode())
        buf = b""
        out = []
        while len(out) < len(lines):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf and len(out) < len(lines):
                line, buf = buf.split(b"\n", 1)
                out.append(line.decode())
        return out


def scrape_metrics(port):
    (resp,) = tcp_session(port, [json.dumps({"id": "m", "verb": "metrics"})])
    body = json.loads(resp)["output"]
    samples = {}
    for line in body.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            pass
    return samples


def warm_hit_rate(samples):
    hits = samples.get("pperf_server_incremental_hits", 0.0)
    misses = samples.get("pperf_server_incremental_misses", 0.0)
    return hits / max(hits + misses, 1.0)


def loadgen(port, requests, connections=CONNECTIONS, window=WINDOW, seed=42):
    proc = subprocess.run(
        [PP, "loadgen", "--tcp", f"127.0.0.1:{port}", "--requests", str(requests),
         "--connections", str(connections), "--window", str(window),
         "--seed", str(seed), "--json"],
        capture_output=True,
        text=True,
    )
    try:
        summary = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        err(f"loadgen produced no summary (exit {proc.returncode}): "
            f"{proc.stderr.strip()}")
        sys.exit(1)
    summary["_exit"] = proc.returncode
    summary["_stderr"] = proc.stderr.strip()
    return summary


def shutdown(proc, port, timeout=30):
    try:
        tcp_session(port, [json.dumps({"id": "bye", "verb": "shutdown"})])
    except OSError:
        pass
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        err("daemon did not exit within %ds of shutdown" % timeout)
        return None


# ---- 1. main storm -------------------------------------------------

proc, port = start_daemon(["--jobs", "4"])
s = loadgen(port, REQUESTS)
if not s.get("pass") or s["_exit"] != 0:
    err(f"main storm failed: {json.dumps(s)}")
if s.get("sent") != REQUESTS:
    err(f"main storm sent {s.get('sent')} of {REQUESTS} requests")
if s.get("responses") != s.get("sent"):
    err(f"dropped/duplicated responses: sent {s.get('sent')}, "
        f"answered {s.get('responses')}")
for k in ("unexpected_errors", "out_of_order", "transport_errors"):
    if s.get(k, 1) != 0:
        err(f"main storm: {k} = {s.get(k)} ({s['_stderr']})")
if s.get("p99_us", 1e18) > P99_US:
    err(f"p99 {s['p99_us']:.0f}us exceeds the {P99_US:.0f}us bound")
if s.get("rps", 0.0) < MIN_RPS:
    err(f"throughput {s['rps']:.0f} req/s below the {MIN_RPS:.0f} floor")
metrics = scrape_metrics(port)
main_rate = warm_hit_rate(metrics)
admitted = metrics.get("pperf_fleet_admitted_total", 0)
completed = metrics.get("pperf_fleet_completed_total", 0)
# the scrape request itself is admitted and still in flight while it
# reads the counters, so it may legitimately be the one not yet completed
if not 0 <= admitted - completed <= 1:
    err(f"fleet admitted {admitted:.0f} but completed {completed:.0f}")
code = shutdown(proc, port)
if code not in (0, None):
    err(f"main daemon exited {code}")
print(f"load gate 1/4: {s['responses']}/{REQUESTS} answered, "
      f"{s['rps']:.0f} req/s, p99 {s['p99_us']:.0f}us, "
      f"{s['overloaded']} shed, warm-hit rate {main_rate:.3f}")

# ---- 2. sharing the predictors loses no warm hits ------------------


def storm_warm_hit_rate(jobs):
    proc, port = start_daemon(["--jobs", str(jobs)])
    storm = loadgen(port, BASELINE_REQUESTS, seed=7)
    rate = warm_hit_rate(scrape_metrics(port))
    shutdown(proc, port)
    if not storm.get("pass"):
        err(f"--jobs {jobs} warm-hit storm failed: {json.dumps(storm)}")
    return rate


rate_jobs4 = storm_warm_hit_rate(4)
rate_jobs1 = storm_warm_hit_rate(1)
if abs(rate_jobs4 - rate_jobs1) > WARM_HIT_TOLERANCE:
    err(f"warm-hit rate {rate_jobs4:.4f} at --jobs 4 is not within "
        f"{WARM_HIT_TOLERANCE} of {rate_jobs1:.4f} at --jobs 1")
print(f"load gate 2/4: warm-hit rate {rate_jobs4:.4f} at --jobs 4 "
      f"vs {rate_jobs1:.4f} at --jobs 1")

# ---- 3. overload sheds, does not hang ------------------------------

proc, port = start_daemon(["--jobs", "1", "--max-queue", "4"])
so = loadgen(port, 5000, connections=8, window=64, seed=3)
if not so.get("pass"):
    err(f"overload storm failed: {json.dumps(so)}")
if so.get("overloaded", 0) == 0:
    err("overload storm: --max-queue 4 never shed a request")
# a hand-rolled cold flood confirms the structured rejection shape
flood = [json.dumps({"id": i, "verb": "predict",
                     "file": "samples/jacobi.pf",
                     "flags": {"eval": [f"n={1000 + i}"]}})
         for i in range(300)]
answers = [json.loads(l) for l in tcp_session(port, flood)]
if len(answers) != len(flood):
    err(f"overload flood: {len(flood)} requests, {len(answers)} responses")
shed = [a for a in answers if not a.get("ok")
        and a.get("error", {}).get("code") == "overloaded"]
bad = [a for a in answers if not a.get("ok")
       and a.get("error", {}).get("code") != "overloaded"]
if bad:
    err(f"overload flood: unexpected error {json.dumps(bad[0])}")
for a in shed:
    if not isinstance(a["error"].get("retry_after_ms"), (int, float)):
        err(f"overloaded response lacks retry_after_ms: {json.dumps(a)}")
        break
(ping,) = tcp_session(port, [json.dumps({"id": "p", "verb": "ping"})])
if json.loads(ping).get("output") != "pong":
    err(f"daemon wedged after overload: {ping}")
shutdown(proc, port)
print(f"load gate 3/4: {so['overloaded']} + {len(shed)} requests shed "
      f"with retry hints, daemon stayed live")

# ---- 4. SIGTERM drains ---------------------------------------------

proc, port = start_daemon(["--jobs", "2"])
with socket.create_connection(("127.0.0.1", port), timeout=30) as sck:
    reqs = [json.dumps({"id": i, "verb": "predict", "file": "samples/daxpy.pf"})
            for i in range(20)]
    sck.sendall(("\n".join(reqs) + "\n").encode())
    got = b""
    while got.count(b"\n") < len(reqs):
        chunk = sck.recv(65536)
        if not chunk:
            break
        got += chunk
    answered = got.count(b"\n")
    if answered != len(reqs):
        err(f"pre-SIGTERM session answered {answered} of {len(reqs)}")
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(30)
        if code != 0:
            err(f"SIGTERM exit code {code}")
    except subprocess.TimeoutExpired:
        proc.kill()
        err("daemon did not exit within 30s of SIGTERM")
print("load gate 4/4: SIGTERM drained and exited cleanly")

# ---- 5. memory stays bounded ---------------------------------------

# peak-RSS growth allowed from the small run to the large one: bounded
# memos plateau, while one unbounded table grows tens of MiB over these
# sizes
RSS_MARGIN_MIB = 20

KERNEL = ("subroutine k{i}(x, y, n)\n  integer n, j\n  real x(1000), y(1000)\n"
          "  do j = 1, n\n    y(j) = y(j) + {i}.0 * x(j)\n  end do\nend\n")


def kernels(n, _tmp):
    for i in range(n):
        yield {"id": i, "verb": "predict", "source": KERNEL.format(i=i)}


def machine_files(n, tmp):
    with open("machines/power1.pmach") as f:
        text = f.read()
    for i in range(n):
        path = os.path.join(tmp, f"m{i}.pmach")
        with open(path, "w") as f:
            f.write(text.replace("(name power1)", f"(name power1_{i})", 1))
        yield {"id": i, "verb": "predict", "machine": path,
               "file": "samples/daxpy.pf"}


def batch_peak(requests, tmp):
    """Run `ppredict batch --jobs 1` over the requests and a closing stats
    request: (the child's peak RSS in MiB, the stats payload). A child's
    ru_maxrss starts from this process's RSS at spawn, so requests and
    responses are streamed through files, never held here."""
    reqs = os.path.join(tmp, "requests.jsonl")
    out = os.path.join(tmp, "responses.jsonl")
    n = 0
    with open(reqs, "w") as f:
        for r in requests:
            f.write(json.dumps(r) + "\n")
            n += 1
        f.write(json.dumps({"id": "stats", "verb": "stats"}) + "\n")
    pid = os.posix_spawn(PP, [PP, "batch", "--jobs", "1", reqs], os.environ,
                         file_actions=[
                             (os.POSIX_SPAWN_OPEN, 1, out,
                              os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
                             (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        err(f"batch of {n} requests exited with status {status}")
    last = ""
    with open(out) as f:
        for line in f:
            last = line
    stats = json.loads(last).get("stats", {}) if last else {}
    return usage.ru_maxrss / 1024.0, stats


def check_memos(what, stats):
    memos = stats.get("memos")
    if not memos:
        err(f"memory, {what}: stats reports no memo entries")
        return
    for name, m in memos.items():
        if m["entries"] > m["capacity"]:
            err(f"memory, {what}: memo {name} holds {m['entries']} entries, "
                f"past its capacity {m['capacity']}")


with tempfile.TemporaryDirectory() as tmp:
    for what, small, large, gen in (("kernels", 8000, 32000, kernels),
                                    ("machine files", 1000, 4000, machine_files)):
        rss_small, stats_small = batch_peak(gen(small, tmp), tmp)
        rss_large, stats_large = batch_peak(gen(large, tmp), tmp)
        check_memos(f"{small} {what}", stats_small)
        check_memos(f"{large} {what}", stats_large)
        if rss_large - rss_small > RSS_MARGIN_MIB:
            err(f"memory, {what}: peak RSS grew {rss_large - rss_small:.1f} MiB "
                f"from {small} to {large} ({rss_small:.1f} -> {rss_large:.1f} MiB), "
                f"past the {RSS_MARGIN_MIB} MiB margin")
        print(f"load gate 5 ({what}): peak RSS {rss_small:.1f} MiB at {small}, "
              f"{rss_large:.1f} MiB at {large} (this gate: "
              f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MiB)")

sys.exit(1 if fail else 0)
