#!/usr/bin/env python3
"""The repo benchmark: end-to-end cost of the shortcut pipeline, the MST
that uses it, and the lcs_serve daemon, plus a traced per-layer probe.

    python3 perfbench/run.py --workload shortcut-er --seed 1 --seconds 20 --trace 0

Builds lcs_run, lcs_serve and the probe (perfbench/probe/) in a Release tree
of its own under .bench_build/, then runs one workload for --seconds and
prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace-event file). Each metric's
meaning per workload is in perfbench/README.md.

Workloads (engine threads = 1 everywhere; one client process):
  shortcut-er  lcs_run --algo=shortcut on er:n=3000,deg=8 — message-dense
               (~490 messages per round), so per-message cost owns the time.
  mst-grid     lcs_run --algo=mst on grid:w=96,h=96 — planar, D ~ 190,
               sparse rounds, so per-round and per-phase cost owns the time.
  serve-mix    a closed-loop client with 2 requests outstanding on one unix
               socket to lcs_serve --parallel-requests=2, over a seeded
               Zipf-like stream, ending with a daemon restart over the same
               cache dir — the driver, cache and persist layers.

The two lcs_run cells are fixed specs (their rounds and messages are the
paper's model cost and must not move with the seed); --seed drives the
serve-mix request stream.

Correctness: each lcs_run cell is run once per build with --validate and
must report validation.ok; every timed run must reproduce that run's
deterministic fields exactly. Every served payload must equal the
equivalent `lcs_run --no-timing` output byte for byte (timing object
stripped), and the daemon's cache counters must match the client's
prediction of each request's class.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import random
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"
WORK = Path(".bench_build") / "work"
LCS_RUN = BUILD / "lcs" / "lcs_run"
LCS_SERVE = BUILD / "lcs" / "lcs_serve"
LCS_PROBE = BUILD / "lcs_probe"

# Wall-clock budget of the measuring part of one invocation; no timed run or
# serve-mix block starts after it. main() resets START once the build and the
# per-build reference runs are done, so a cold build does not eat into it.
BUDGET_S = 150.0
START = time.perf_counter()

RUN_CELLS = {
    "shortcut-er": {"algo": "shortcut", "spec": "er:n=3000,deg=8",
                    "quarter": "er:n=750,deg=8"},
    "mst-grid": {"algo": "mst", "spec": "grid:w=96,h=96",
                 "quarter": "grid:w=48,h=48"},
}

# serve-mix catalogue. Cacheable shortcut requests (spec, backend, seed) in
# Zipf rank order; each is requested both with timing (record-cache path)
# and without (response-memo path). Compute requests always run the engine.
CACHEABLE = [
    ("er:n=1000,deg=8", "hiz16", 1),
    ("grid:w=48,h=48", "hiz16", 1),
    ("ktree:n=2000,k=4", "kkoi19", 1),
    ("er:n=1000,deg=8", "hiz16", 2),
    ("ktree:n=2000,k=4", "naive", 1),
    ("grid:w=48,h=48", "hiz16", 2),
    ("er:n=1000,deg=8", "hiz16", 3),
]
COMPUTE = [
    ("aggregate", "ktree:n=1000,k=4"),
    ("mst", "grid:w=32,h=32"),
    ("components", "er:n=500,deg=8"),
]
COMPUTE_SHARE = 0.10
# Stream length: 10 blocks of 100 requests, so p99 has ten samples beyond
# it. The compute requests set the pace, so the stream is fixed in length
# rather than in time (about 40 s on a 4-core Xeon). The last two blocks go
# to the restarted daemon.
BLOCK = 100
STREAM_BLOCKS = 10
RESTART_BLOCKS = 2
OUTSTANDING = 2
# Set-up samples are taken in groups spread over the run (before each
# serve-mix block, before each timed lcs_run), so that the median of a run
# does not rest on one moment of the host's speed.
SERVE_SETUPS_PER_BLOCK = 6
RUN_SETUPS_PER_GROUP = 12
SERVE_SPECS = sorted({s for s, _, _ in CACHEABLE} | {s for _, s in COMPUTE})
# The probe's graph for serve-mix (the Zipf head) and the apps/driver specs.
SERVE_PROBE = {"algo": "shortcut", "spec": "er:n=1000,deg=8",
               "quarter": "er:n=250,deg=8"}
CLASSES = ["miss", "memo_hit", "record_hit", "disk_hit", "compute"]


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failure, crash)."""


def log(msg):
    print(msg, flush=True)


def elapsed():
    return time.perf_counter() - START


# ------------------------------------------------------------------ build --

def build():
    if not Path("CMakeLists.txt").is_file() or not Path("src").is_dir():
        raise BenchError("no repository sources next to perfbench/; "
                         "run from the root of a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.log", "a") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", "perfbench", "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                        "--target", "lcs_run", "lcs_serve", "lcs_probe"],
                       stdout=out, stderr=out, check=True)


@functools.cache
def binary_digest():
    h = hashlib.sha256()
    for path in (LCS_RUN, LCS_SERVE):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_stamp():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = "unknown"
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip()
    rev = "none"
    if Path(".git").exists() and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    # The benchmark checkout need not be a git repository; a digest of the
    # sources identifies the revision there.
    src = hashlib.sha256()
    for root in ("src", "tools", "perfbench"):
        for path in sorted(Path(root).rglob("*")):
            if path.is_file():
                src.update(str(path).encode())
                src.update(path.read_bytes())
    src.update(Path("CMakeLists.txt").read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l3": l3,
        "cxx": f"{Path(cxx).name} {version}",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_rev": rev,
        "source_sha256": src.hexdigest()[:16],
    }


# ----------------------------------------------------------------- helpers --

class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)
        return ok


class Trace:
    """In-memory spans (name, start, end, parent, workload, counters),
    written as a Chrome trace-event file at exit."""

    def __init__(self, workload):
        self.workload = workload
        self.events = []

    def span(self, name, start, end, parent=None, **counters):
        self.events.append({
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - START) * 1e6, "dur": (end - start) * 1e6,
            "args": {"workload": self.workload, "parent": parent, **counters},
        })

    def add_probe(self, spans, offset):
        for s in spans:
            parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else "probe.process"
            self.events.append({
                "name": s["name"], "ph": "X", "pid": 1, "tid": 2,
                "ts": (offset - START) * 1e6 + s["start_us"], "dur": s["dur_us"],
                "args": {"workload": s["workload"], "parent": parent, **s["counters"]},
            })

    def write(self, path, host):
        doc = {"traceEvents": self.events, "displayTimeUnit": "ms",
               "otherData": {"workload": self.workload, **host}}
        path.write_text(json.dumps(doc))
        # The file must parse back as trace-event JSON with complete events.
        events = json.loads(path.read_text())["traceEvents"]
        if not events or any(e["ph"] != "X" or e["dur"] < 0 for e in events):
            raise BenchError(f"malformed trace file {path}")


def reap(proc, timeout):
    """Wait for `proc` (killing it after `timeout` s); returns (rc, maxrss_mb)
    from the child's own rusage."""
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
            break
        time.sleep(0.001)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss / 1024.0


def spawn(args, timeout=120):
    """Run a child to completion; returns (wall_s, rc, stdout, maxrss_mb).
    A child killed at the timeout reports rc -1 and no output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in args], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    chunks = []
    with proc.stdout:
        fd = proc.stdout.fileno()
        while True:
            left = t0 + timeout - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                proc.kill()
                reap(proc, 0)
                log(f"# timeout: {' '.join(map(str, args))}")
                return timeout, -1, b"", 0.0
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    rc, maxrss = reap(proc, timeout)
    return time.perf_counter() - t0, rc, b"".join(chunks), maxrss


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def lcs_run_args(algo, spec, *extra):
    return [LCS_RUN, f"--algo={algo}", f"--scenario={spec}", "--threads=1", *extra]


def det_fields(report):
    """The deterministic fields a timed run must reproduce."""
    keys = ("rounds", "messages", "congestion", "block_parameter",
            "dilation_estimate", "weight", "phases")
    out = {k: report["result"][k] for k in keys if k in report["result"]}
    out["setup"] = report["setup"]
    out["nodes"] = report["scenario"]["nodes"]
    out["edges"] = report["scenario"]["edges"]
    return out


def validated_reference(algo, spec, tally):
    """One --validate run of (algo, spec), cached per build."""
    path = WORK / "ref" / f"{binary_digest()}-{algo}-{spec.replace(':', '_')}.json"
    if path.is_file():
        return json.loads(path.read_text())
    _, rc, out, _ = spawn(lcs_run_args(algo, spec, "--validate", "--no-timing"))
    report = json.loads(out) if rc == 0 else None
    if not tally.check(report is not None and report["validation"]["ok"],
                       f"{algo} {spec}: --validate failed"):
        raise BenchError(f"validation failed for --algo={algo} --scenario={spec}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report))
    return report


def metric(value, unit):
    return {"value": value, "unit": unit}


# --------------------------------------------------------- lcs_run cells --

def run_cell(name, seconds, tally):
    cell = RUN_CELLS[name]
    ref = validated_reference(cell["algo"], cell["spec"], tally)
    want = det_fields(ref)
    # Shortcut quality on the cell's own graph and partition (for mst-grid,
    # the shortcut FindShortcut builds there; it is not in the MST report).
    quality = ref if cell["algo"] == "shortcut" else \
        validated_reference("shortcut", cell["spec"], tally)

    def setup_group():
        for _ in range(RUN_SETUPS_PER_GROUP):
            wall, rc, out, _ = spawn(lcs_run_args("none", cell["spec"]))
            rep = json.loads(out) if rc == 0 else None
            tally.check(rep is not None and rep["scenario"]["nodes"] == want["nodes"]
                        and rep["scenario"]["edges"] == want["edges"],
                        f"{name}: --algo=none run differs")
            setup.append(wall)

    setup, walls, inproc, rss = [], [], [], []
    t0 = time.perf_counter()
    while len(walls) < 2 or (time.perf_counter() - t0 < seconds
                             and elapsed() + statistics.median(walls) < BUDGET_S):
        setup_group()
        wall, rc, out, maxrss = spawn(lcs_run_args(cell["algo"], cell["spec"]))
        rep = json.loads(out) if rc == 0 else None
        tally.check(rep is not None and det_fields(rep) == want,
                    f"{name}: timed run differs from the validated run")
        walls.append(wall)
        inproc.append(rep["timing"]["wall_ms"] if rep else float("nan"))
        rss.append(maxrss)
    setup_group()
    log(f"# {name}: {len(walls)} timed runs, process wall {['%.3f' % w for w in walls]} s; "
        f"{len(setup)} set-up runs")
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "req_p50_ms": metric(statistics.median(inproc), "ms"),
        "req_p99_ms": metric(percentile(inproc, 0.99), "ms"),
        "req_per_s": metric(len(walls) / sum(walls), "1/s"),
        "rounds": metric(want["rounds"], "count"),
        "messages": metric(want["messages"], "count"),
        "congestion": metric(quality["result"]["congestion"], "count"),
        "dilation": metric(quality["result"]["dilation_estimate"], "count"),
        "peak_rss_mb": metric(max(rss), "MB"),
    }


# -------------------------------------------------------------- serve-mix --

def cacheable_request(entry, timing):
    spec, backend, seed = entry
    req = {"algo": "shortcut", "scenario": spec, "seed": seed, "threads": 1,
           "timing": timing}
    if backend != "hiz16":
        req["backend"] = backend
    return req


def compute_request(entry):
    algo, spec = entry
    return {"algo": algo, "scenario": spec, "threads": 1, "timing": True}


def zipf_counts(total, k):
    """Split `total` over k ranks in proportion to 1/(rank+1), each >= 1."""
    weights = [1.0 / (r + 1) for r in range(k)]
    raw = [total * w / sum(weights) for w in weights]
    counts = [max(1, int(x)) for x in raw]
    by_remainder = sorted(range(k), key=lambda r: int(raw[r]) - raw[r])
    for r in by_remainder[:max(0, total - sum(counts))]:
        counts[r] += 1
    return counts


def make_block(rng):
    """One block of BLOCK requests: exact class quotas (compute, timed and
    untimed shortcut), Zipf over the catalogue inside each class, in seeded
    order. Each tenth of the block holds one compute request, placed so that
    two computes never share the outstanding window: p99 then measures a
    compute request and the requests queued behind it, not how often the
    shuffle paired two computes."""
    n_compute = round(BLOCK * COMPUTE_SHARE)
    n_timed = (BLOCK - n_compute) // 2
    computes = []
    for entry, count in zip(COMPUTE, zipf_counts(n_compute, len(COMPUTE))):
        computes += [compute_request(entry)] * count
    shortcuts = []
    for timing, n in ((True, n_timed), (False, BLOCK - n_compute - n_timed)):
        for entry, count in zip(CACHEABLE, zipf_counts(n, len(CACHEABLE))):
            shortcuts += [cacheable_request(entry, timing)] * count
    rng.shuffle(computes)
    rng.shuffle(shortcuts)
    per = BLOCK // n_compute
    block = []
    for i, compute in enumerate(computes):
        segment = shortcuts[i * (per - 1):(i + 1) * (per - 1)]
        segment.insert(rng.randrange(1, per - 1), compute)
        block += segment
    return [dict(r) for r in block]


def reference_argv(req):
    args = lcs_run_args(req["algo"], req["scenario"], "--no-timing")
    if "seed" in req:
        args.append(f"--seed={req['seed']}")
    if "backend" in req:
        args.append(f"--backend={req['backend']}")
    return args


def serve_references(tally):
    """lcs_run --no-timing bytes for every catalogue request, cached per
    build; each is also run once with --validate."""
    path = WORK / "ref" / f"{binary_digest()}-serve-mix.json"
    if path.is_file():
        return json.loads(path.read_text())
    refs = {}
    for req in [cacheable_request(e, False) for e in CACHEABLE] + \
               [compute_request(e) for e in COMPUTE]:
        _, rc, out, _ = spawn(reference_argv(req) + ["--validate"])
        if not tally.check(rc == 0 and json.loads(out)["validation"]["ok"],
                           f"--validate failed: {req}"):
            raise BenchError(f"validation failed for {req}")
        _, rc, out, _ = spawn(reference_argv(req))
        tally.check(rc == 0, f"reference run failed: {req}")
        refs[entry_key(req)] = out.decode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(refs))
    return refs


def entry_key(req):
    return f"{req['algo']} {req['scenario']} {req.get('backend', 'hiz16')} {req.get('seed', 1)}"


TIMING_RE = re.compile(rb',\n  "timing": \{[^{}]*\}')


class Daemon:
    """One lcs_serve process on a unix socket, with one client connection."""

    def __init__(self, cache_dir, sock_path, log_path):
        self.t_spawn = time.perf_counter()
        self.log = open(log_path, "ab")
        args = [LCS_SERVE, f"--socket={sock_path}", f"--cache-dir={cache_dir}",
                f"--parallel-requests={OUTSTANDING}"]
        args += [f"--preload={s}" for s in SERVE_SPECS]
        self.proc = subprocess.Popen([str(a) for a in args],
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        self.buf = b""
        self.sock = None
        self.result = None
        try:
            while self.sock is None:
                if self.proc.poll() is not None:
                    raise BenchError("lcs_serve exited during start-up")
                if time.perf_counter() - self.t_spawn > 30:
                    raise BenchError("lcs_serve did not start listening")
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    s.connect(str(sock_path))
                    self.sock = s
                except OSError:
                    s.close()
                    time.sleep(0.0005)
            self.sock.settimeout(60)
            self.stats()
        except BaseException:
            self.proc.kill()
            self.close()
            raise
        self.ready_s = time.perf_counter() - self.t_spawn

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def read_frame(self):
        while b"\n" not in self.buf:
            self._fill()
        header, self.buf = self.buf.split(b"\n", 1)
        fields = dict(f.split("=", 1) for f in header.decode().split()[1:])
        size = int(fields["bytes"])
        while len(self.buf) < size:
            self._fill()
        payload, self.buf = self.buf[:size], self.buf[size:]
        return fields["id"], int(fields["exit"]), payload

    def _fill(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("lcs_serve closed the connection")
        self.buf += chunk

    def stats(self):
        self.send({"cmd": "stats"})
        return json.loads(self.read_frame()[2])["serve"]

    def close(self):
        """Quit, then wait for the process; returns (rc, maxrss_mb)."""
        if self.result is None:
            if self.sock is not None:
                try:
                    self.send({"cmd": "quit"})
                    self.read_frame()
                except (OSError, BenchError):
                    pass
                self.sock.close()
            self.result = reap(self.proc, 30)
            self.log.close()
        return self.result


class ServeSession:
    """Drive one daemon with a closed-loop stream, classifying every request
    by the cache state it meets and checking every payload."""

    def __init__(self, daemon, refs, tally, trace):
        self.d = daemon
        self.refs = refs
        self.tally = tally
        self.trace = trace
        self.memo = set()      # timing-free requests answered (memo keys)
        self.records = set()   # record keys in the daemon's memory
        self.pending = set()   # keys an outstanding request will create
        self.samples = []      # (class, latency_ms)
        self.classes = Counter()
        self.first_payload = {}
        self.sent = 0

    def run(self, block, on_disk, phase):
        """Send one block and wait for all of it; returns its wall time.
        A block that would start after the time budget is an error: a cut
        stream must not yield metrics."""
        if elapsed() > BUDGET_S:
            raise BenchError(f"time budget spent before a serve-mix {phase} block; "
                             f"{len(self.samples)} requests done")
        outstanding = deque()
        i = 0
        t0 = time.perf_counter()
        while i < len(block) or outstanding:
            if i < len(block) and len(outstanding) < OUTSTANDING:
                req = block[i]
                keys = self.dependencies(req)
                # A request never races the one that creates its cache
                # entry, so each request's class is known before it is sent.
                if not (keys & self.pending):
                    cls, creates = self.classify(req, on_disk)
                    self.pending |= creates
                    req["id"] = f"{phase}{self.sent}"
                    self.sent += 1
                    self.d.send(req)
                    outstanding.append((req, cls, creates, time.perf_counter()))
                    i += 1
                    continue
            rid, rc, payload = self.d.read_frame()
            t = time.perf_counter()
            req, cls, creates, t_send = outstanding.popleft()
            self.pending -= creates
            for key in creates:
                (self.memo if key[0] == "memo" else self.records).add(key)
            self.samples.append((cls, (t - t_send) * 1e3))
            self.classes[cls] += 1
            self.trace.span(f"serve.{cls}", t_send, t, parent=f"serve.{phase}")
            self.verify(req, rid, rc, payload)
        return time.perf_counter() - t0

    @staticmethod
    def record_key(req):
        return ("record", req["scenario"], req.get("backend", "hiz16"), req["seed"])

    @staticmethod
    def memo_key(req):
        return ("memo", entry_key(req))

    def dependencies(self, req):
        if req["algo"] != "shortcut":
            return set()
        keys = {self.record_key(req)}
        if not req["timing"]:
            keys.add(self.memo_key(req))
        return keys

    def classify(self, req, on_disk):
        if req["algo"] != "shortcut":
            return "compute", set()
        creates = set()
        if not req["timing"]:
            if self.memo_key(req) in self.memo:
                return "memo_hit", creates
            creates.add(self.memo_key(req))
        rk = self.record_key(req)
        if rk in self.records:
            return "record_hit", creates
        creates.add(rk)
        return ("disk_hit" if rk in on_disk else "miss"), creates

    def verify(self, req, rid, rc, payload):
        key = entry_key(req)
        ok = rid == req["id"] and rc == 0
        stripped = TIMING_RE.sub(b"", payload) if req["timing"] else payload
        ok = ok and stripped.decode() == self.refs[key]
        self.tally.check(ok, f"served payload differs from lcs_run: {key}")
        self.first_payload.setdefault(key, stripped)


def check_stats(tally, stats, before, expect):
    """The daemon's counter deltas over a phase must match the client's
    classification of that phase's requests."""
    def delta(*path):
        a, b = stats, before
        for p in path:
            a, b = a[p], b[p]
        return a - b
    c = Counter(expect)
    checks = {
        "requests": (delta("requests"), c["requests"]),
        "response_memo_hits": (delta("response_memo_hits"), c["memo_hit"]),
        "shortcuts.memory_hits": (delta("shortcuts", "memory_hits"), c["record_hit"]),
        "shortcuts.constructed": (delta("shortcuts", "constructed"), c["miss"]),
        "shortcuts.disk_loads": (delta("shortcuts", "disk_loads"), c["disk_hit"]),
        "shortcuts.disk_load_failures": (stats["shortcuts"]["disk_load_failures"], 0),
        "scenarios.disk_load_failures": (stats["scenarios"]["disk_load_failures"], 0),
        "scenarios.memory_hits": (delta("scenarios", "memory_hits"),
                                  c["requests"] - c["memo_hit"]),
    }
    for name, (got, want) in checks.items():
        tally.check(got == want, f"stats {name}: daemon {got}, client {want}")


def cold_setups(serve_dir, tally, trace):
    """Set-up samples (s): SERVE_SETUPS_PER_BLOCK cold daemons on a socket
    of their own, each with the catalogue preloaded into an empty cache dir,
    timed from spawn to their first stats answer."""
    cache = serve_dir / "setup"
    out = []
    for _ in range(SERVE_SETUPS_PER_BLOCK):
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir()
        d = Daemon(cache, serve_dir / "setup.sock", serve_dir / "lcs_serve.log")
        try:
            trace.span("serve.setup", d.t_spawn, d.t_spawn + d.ready_s)
            tally.check(d.stats()["scenarios"]["generated"] == len(SERVE_SPECS),
                        "cold daemon did not generate every preloaded spec")
        finally:
            rc, _ = d.close()
        tally.check(rc == 0, "lcs_serve exited nonzero")
        out.append(d.ready_s)
    shutil.rmtree(cache)
    return out


def run_serve(seed, tally, trace, blocks=STREAM_BLOCKS):
    refs = serve_references(tally)
    rng = random.Random(seed)
    stream = [make_block(rng) for _ in range(blocks)]
    main_blocks = stream[:blocks - RESTART_BLOCKS]
    restart_blocks = stream[blocks - RESTART_BLOCKS:]

    serve_dir = WORK / "serve"
    shutil.rmtree(serve_dir, ignore_errors=True)
    serve_dir.mkdir(parents=True)
    sock = serve_dir / "d.sock"
    logf = serve_dir / "lcs_serve.log"
    cache = serve_dir / "cache"
    cache.mkdir()
    daemons = []
    setup, walls = [], []
    try:
        # The serving daemon starts cold, with the catalogue preloaded. Before
        # each block, while it idles, cold daemons beside it give the set-up
        # samples.
        d = Daemon(cache, sock, logf)
        daemons.append(d)
        before = d.stats()
        tally.check(before["scenarios"]["generated"] == len(SERVE_SPECS),
                    "cold daemon did not generate every preloaded spec")
        session = ServeSession(d, refs, tally, trace)
        t = time.perf_counter()
        for block in main_blocks:
            setup += cold_setups(serve_dir, tally, trace)
            walls.append(session.run(block, set(), "main"))
        trace.span("serve.main", t, time.perf_counter(),
                   requests=BLOCK * len(main_blocks))
        stats_main = d.stats()
        check_stats(tally, stats_main, before,
                    dict(session.classes, requests=BLOCK * len(main_blocks)))
        d.close()

        # Restart over the same cache dir: scenarios and records from disk.
        on_disk = set(session.records)
        d = Daemon(cache, sock, logf)
        daemons.append(d)
        trace.span("serve.warm_setup", d.t_spawn, d.t_spawn + d.ready_s)
        before = d.stats()
        tally.check(before["scenarios"]["generated"] == 0
                    and before["scenarios"]["disk_loads"] == len(SERVE_SPECS),
                    "warm daemon regenerated a preloaded spec")
        main_classes = Counter(session.classes)
        session.d, session.memo, session.records = d, set(), set()
        t = time.perf_counter()
        for block in restart_blocks:
            setup += cold_setups(serve_dir, tally, trace)
            walls.append(session.run(block, on_disk, "restart"))
        trace.span("serve.restart", t, time.perf_counter(),
                   requests=BLOCK * len(restart_blocks))
        stats_restart = d.stats()
        restart_classes = session.classes - main_classes
        check_stats(tally, stats_restart, before,
                    dict(restart_classes, requests=BLOCK * len(restart_blocks)))
        tally.check(stats_restart["shortcuts"]["constructed"] == 0,
                    "warm daemon constructed a shortcut")
    finally:
        results = [dk.close() for dk in daemons]
    for rc, _ in results:
        tally.check(rc == 0, "lcs_serve exited nonzero")

    served = {k: json.loads(v) for k, v in session.first_payload.items()}
    tally.check(len(served) == len(refs), "stream missed a catalogue entry")
    latencies = [ms for _, ms in session.samples]
    n = len(latencies)
    block_wall = statistics.median(walls)
    by_class = {c: [ms for k, ms in session.samples if k == c] for c in CLASSES}
    shares = {c: len(v) / n for c, v in by_class.items()}
    log(f"# serve-mix: {n} requests, {OUTSTANDING} outstanding; class shares "
        + json.dumps({c: round(s, 4) for c, s in shares.items()}))
    shortcut_reports = [r for r in served.values() if r["algorithm"] == "shortcut"]
    e2e = {
        "wall_s": metric(block_wall, "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "req_p50_ms": metric(statistics.median(latencies), "ms"),
        "req_p99_ms": metric(percentile(latencies, 0.99), "ms"),
        "req_per_s": metric(BLOCK / block_wall, "1/s"),
        "rounds": metric(sum(r["result"]["rounds"] for r in served.values()), "count"),
        "messages": metric(sum(r["result"]["messages"] for r in served.values()), "count"),
        "congestion": metric(sum(r["result"]["congestion"] for r in shortcut_reports), "count"),
        "dilation": metric(sum(r["result"]["dilation_estimate"] for r in shortcut_reports), "count"),
        "peak_rss_mb": metric(max(mb for _, mb in results), "MB"),
    }
    log(f"# serve-mix: {n} latency samples, p99 with {n - math.ceil(0.99 * n)} beyond it; "
        "p10/p25/p50/p75/p90/p99 ms " + " ".join(
            "%.2f" % percentile(latencies, q) for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99))
        + "; block walls s " + " ".join("%.2f" % w for w in walls)
        + f"; {len(setup)} set-up samples")

    def hit_ratio(group, cold):
        both = [stats_main[group], stats_restart[group]]
        hits = sum(x["memory_hits"] for x in both)
        return hits / sum(x["memory_hits"] + x["disk_loads"] + x[cold] for x in both)

    layer = {
        "serve.memo_hit_ratio": metric(
            (stats_main["response_memo_hits"] + stats_restart["response_memo_hits"])
            / (stats_main["requests"] + stats_restart["requests"]), "ratio"),
        "serve.scenario_hit_ratio": metric(hit_ratio("scenarios", "generated"), "ratio"),
        "serve.record_hit_ratio": metric(hit_ratio("shortcuts", "constructed"), "ratio"),
        "serve.warm_setup_ms": metric(d.ready_s * 1e3, "ms"),
    }
    for c in CLASSES:
        layer[f"serve.{c}_ms_p50"] = metric(statistics.median(by_class[c]), "ms")
        layer[f"serve.share_{c}"] = metric(shares[c], "ratio")
    return e2e, layer, served


# ------------------------------------------------------------------ probe --

def run_probe(name, cell, tally, trace, expect):
    args = [LCS_PROBE, f"--workload={name}", f"--spec={cell['spec']}",
            f"--pipeline={cell['algo']}", f"--quarter-spec={cell['quarter']}",
            f"--components-spec={dict(COMPUTE)['components']}",
            f"--aggregate-spec={dict(COMPUTE)['aggregate']}",
            f"--render-spec={CACHEABLE[0][0]}", f"--work-dir={WORK}"]
    t0 = time.perf_counter()
    _, rc, out, _ = spawn(args)
    trace.span("probe.process", t0, time.perf_counter())
    if rc != 0:
        raise BenchError(f"lcs_probe failed (exit {rc})")
    doc = json.loads(out)
    trace.add_probe(doc["spans"], t0)
    checks = doc["checks"]
    # The probe must have measured the same program as the end-to-end run.
    for key, want in expect.items():
        tally.check(checks[key] == want,
                    f"probe {key} = {checks[key]}, end-to-end run {want}")
    return doc["metrics"]


def traced(name, seed, tally, trace):
    if name == "serve-mix":
        _, layer, served = run_serve(seed, tally, trace)
        head = served[entry_key(cacheable_request(CACHEABLE[0], False))]["result"]
        cell = SERVE_PROBE
        expect = {"find_rounds": head["rounds"], "find_messages": head["messages"],
                  "congestion": head["congestion"],
                  "dilation_estimate": head["dilation_estimate"]}
    else:
        cell = RUN_CELLS[name]
        ref = validated_reference(cell["algo"], cell["spec"], tally)["result"]
        quality = validated_reference("shortcut", cell["spec"], tally)["result"]
        expect = {"rounds": ref["rounds"], "messages": ref["messages"],
                  "find_rounds": quality["rounds"],
                  "find_messages": quality["messages"],
                  "congestion": quality["congestion"],
                  "dilation_estimate": quality["dilation_estimate"]}
        if cell["algo"] == "mst":
            expect.update(mst_weight=ref["weight"], mst_phases=ref["phases"])
        # The serve layer is measured on a short serve-mix session.
        _, layer, _ = run_serve(seed, tally, trace, blocks=RESTART_BLOCKS + 1)
    metrics = run_probe(name, cell, tally, trace, expect)
    metrics.update(layer)
    return metrics


# ------------------------------------------------------------------- main --

def prepare(workload, traced_run, tally):
    """The per-build reference runs the workload checks against. They are
    cached under WORK, so only the first run after a build pays for them."""
    if workload in RUN_CELLS:
        cell = RUN_CELLS[workload]
        validated_reference(cell["algo"], cell["spec"], tally)
        validated_reference("shortcut", cell["spec"], tally)
    if workload == "serve-mix" or traced_run:
        serve_references(tally)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(RUN_CELLS) + ["serve-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        raise BenchError(f"build failed ({e}); see {BUILD.parent / 'build.log'}")
    host = host_stamp()
    log("# host " + json.dumps(host))

    tally = Tally()
    prepare(args.workload, args.trace, tally)
    global START
    START = time.perf_counter()
    trace = Trace(args.workload)
    if args.trace:
        metrics = traced(args.workload, args.seed, tally, trace)
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace.write(path, host)
        log(f"# trace written to {path}")
    elif args.workload == "serve-mix":
        metrics = run_serve(args.seed, tally, trace)[0]
    else:
        metrics = run_cell(args.workload, args.seconds, tally)

    names = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items() if k in names}
    if got != names:
        raise BenchError(f"metrics do not match BENCHMARK.json: missing "
                         f"{sorted(set(names) - set(got))}, unit mismatch "
                         f"{sorted(k for k in got if got[k] != names[k])}")
    for reason in tally.reasons:
        log(f"# FAILED: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: metrics[k] for k in names},
    }), flush=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
