#!/usr/bin/env python3
"""Service benchmark for graphtempo: boots `graphtempo serve`, drives it over
keep-alive HTTP with a fixed, seed-generated sequence of operations, checks
every answer and prints the end-to-end metrics (or, with --trace 1, the
per-layer metrics of an in-process replay). See perfbench/README.md.

    python3 perfbench/run.py --workload ml-hot --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
report with the run's stamps and work counts.
"""

import argparse
import hashlib
import http.client
import itertools
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
GRAPHTEMPO = CMAKE_DIR / "tools" / "graphtempo"
GTPERF = CMAKE_DIR / "gtperf"

SETUPS = 5          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10    # samples the tail percentile must leave beyond it
HTTP_TIMEOUT_S = 60
HELPER_TIMEOUT_S = 150  # gtperf gen/drive/replay; a hung helper fails the run

# Work per run is a fixed function of (workload, seed, --seconds), sized so
# that the timed phase takes about --seconds on a 4-core x86 host. It never
# depends on how fast the run goes, so every count repeats exactly.
ML_HOT_CYCLES_PER_S = 2.5       # deck passes per client per second
ML_COLD_SPECS_PER_S = 45        # distinct cold specs per second
DBLP_REPEATS = 6                # read-deck specs asked again (as hits) each year

# Aggregation threads for ml-cold's server (--threads). The workload is meant
# to run at 2, where parallel aggregation is slower than serial; at 2 the
# shared pool's chunk-claim race (ROADMAP item 1) crashes the server within a
# few runs, so it stays at 1 until that race is fixed.
ML_COLD_THREADS = 1

# Scaled-down generator profiles (--profile smoke) for the smoke test.
PROFILES = {
    "full": {"movielens": ("1", "1"), "dblp": ("8", "8")},
    "smoke": {"movielens": ("0.3", "0.02"), "dblp": ("0.1", "0.1")},
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "ingest_p50_ms": "ms",
    "ingest_records_per_s": "1/s",
}

PER_LAYER = {
    "util.json_parse_us": "us",
    "engine.bind_us": "us",
    "engine.plan_us": "us",
    "server.overhead_us": "us",
    "engine.hit_us": "us",
    "engine.serialize_us": "us",
    "core.operator_ms": "ms",
    "core.aggregate_ms": "ms",
    "core.evolution_ms": "ms",
    "core.explore_ms": "ms",
    "server.ingest_parse_ms": "ms",
    "server.ingest_apply_ms": "ms",
    "engine.refresh_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.cache_invalidations": "count",
    "engine.materialized_route_ratio": "ratio",
    "storage.tsv_load_s": "s",
    "storage.snapshot_load_s": "s",
    "engine.materialize_s": "s",
    "core.result_rows": "count",
    "engine.response_bytes": "bytes",
    "engine.rollups": "count",
    "engine.rollup_hits": "count",
    "accel.kernel_words": "count",
    "unexplained_share": "ratio",
}


class BenchError(Exception):
    """A failure that makes the run's result meaningless."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# --- build and inputs --------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "tools").is_dir():
        raise BenchError(f"no graphtempo sources next to {HERE.name}/ (expected {ROOT}/src)")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "ab") as out:
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            step = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"cmake configure failed; see {BUILD / 'build.log'}")
        step = ["cmake", "--build", str(CMAKE_DIR), "-j4", "--target", "graphtempo", "gtperf"]
        if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
            raise BenchError(f"build failed; see {BUILD / 'build.log'}")


def dataset(name, seed, profile):
    """Generates (once per seed, profile and gtperf build) the boot graph and
    ingest batches. The cache key includes a digest of the gtperf binary, so
    a change to the generator, the ingest split or the snapshot format is
    measured on data made by the changed code."""
    node_scale, edge_scale = PROFILES[profile][name]
    build_id = hashlib.sha256(GTPERF.read_bytes()).hexdigest()[:16]
    directory = BUILD / "data" / build_id / f"{name}-n{node_scale}-e{edge_scale}-s{seed}"
    if not (directory / "manifest.json").is_file():
        scratch = directory.with_name(directory.name + f".tmp{os.getpid()}")
        shutil.rmtree(scratch, ignore_errors=True)
        command = [str(GTPERF), "gen", name, "--seed", str(seed), "--out", str(scratch),
                   "--node-scale", node_scale, "--edge-scale", edge_scale]
        if subprocess.run(command, stdout=sys.stderr, timeout=HELPER_TIMEOUT_S).returncode != 0:
            raise BenchError(f"gtperf gen {name} failed")
        shutil.rmtree(directory, ignore_errors=True)
        scratch.rename(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["dir"] = directory
    manifest["batches"] = read_batches(directory / "ingest.txt")
    return manifest


def read_batches(path):
    batches = []
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("# batch "):
            batches.append([])
        else:
            batches[-1].append(line)
    return ["".join(lines) for lines in batches]


# --- HTTP --------------------------------------------------------------------

class Client:
    """One keep-alive connection; `call` returns (status, body, seconds)."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
        self.headers = {"Connection": "keep-alive", "Content-Type": "application/json"}

    def call(self, method, path, body=None):
        start = time.perf_counter()
        self.conn.request(method, path, body, self.headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start

    def close(self):
        self.conn.close()


def fetch(port, method, path, body=None):
    """One request on its own connection (control traffic)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request(method, path, body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Events:
    """A `GET /events` Server-Sent-Events stream."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=HTTP_TIMEOUT_S)
        self.sock.sendall(b"GET /events HTTP/1.1\r\nHost: localhost\r\n\r\n")
        self.buffer = b""
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        if not head.startswith(b"HTTP/1.1 200"):
            raise BenchError(f"/events refused: {head[:80]!r}")

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise BenchError("/events stream closed")
        self.buffer += chunk

    def next(self):
        """Blocks for the next frame; returns (event, data)."""
        while b"\n\n" not in self.buffer:
            self._fill()
        frame, self.buffer = self.buffer.split(b"\n\n", 1)
        event, data = "", ""
        for line in frame.decode().split("\n"):
            if line.startswith("event:"):
                event = line[6:].strip()
            elif line.startswith("data:"):
                data = line[5:].strip()
        return event, data

    def close(self):
        self.sock.close()


class Server:
    """A `graphtempo serve` child process bound to an ephemeral port."""

    live = []  # every server not yet stopped; main() kills them on any exit

    def __init__(self, graph, flags, expect_snapshot=False):
        self.stderr = open(BUILD / "serve.log", "ab")
        command = [str(GRAPHTEMPO), "serve", str(graph), "--port", "0"] + flags
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self.stderr)
        Server.live.append(self)
        self.port = None
        booted_from_snapshot = False
        while self.port is None:
            line = self.proc.stdout.readline().decode()
            if not line:
                self.kill()
                raise BenchError(f"serve exited before listening: {' '.join(command)}")
            booted_from_snapshot |= line.startswith("booted from snapshot")
            match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
            if match:
                self.port = int(match.group(1))
        if expect_snapshot and not booted_from_snapshot:
            self.stop()
            raise BenchError("serve fell back to the TSV instead of the snapshot")
        status, body = fetch(self.port, "GET", "/healthz")
        if status != 200:
            raise BenchError(f"/healthz answered {status}: {body[:80]!r}")

    def stats(self):
        return json.loads(fetch(self.port, "GET", "/stats")[1])

    def counter(self, name):
        metrics = json.loads(fetch(self.port, "GET", "/metrics")[1])
        return int(metrics.get("counters", {}).get(name, 0))

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self):
        if self.proc.poll() is None:
            try:
                fetch(self.port, "POST", "/shutdown")
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired, http.client.HTTPException):
                pass  # killed below
        self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        if self in Server.live:
            Server.live.remove(self)


# --- decks -------------------------------------------------------------------

def spec(op, t1, attrs, t2=None, semantics="dist"):
    request = {"op": op, "t1": t1, "attrs": attrs, "semantics": semantics}
    if t2 is not None:
        request["t2"] = t2
    return request


def ml_hot_deck(rng):
    """Fifteen aggregate specs whose cache hits span three orders of magnitude
    (hit cost grows with result rows), in five cost classes of three specs.
    Every spec is sent equally often, so the median falls in the middle of
    the middle class (about 1,800 rows) and the tail inside the block of the
    heaviest spec."""
    deck = [
        # ~6 rows
        spec("project", "Aug", ["gender"]),
        spec("union", "May..Jul", ["gender"]),
        spec("intersection", "May..Jun", ["gender"], semantics="all"),
        # ~200 rows
        spec("project", "Sep", ["gender", "rating"]),
        spec("difference", "Jul", ["gender", "rating"], t2="Aug"),
        spec("union", "May..Oct", ["gender", "rating"]),
        # ~1,800 rows
        spec("project", "Aug", ["gender", "occupation"]),
        spec("union", "May..Oct", ["gender", "occupation"], semantics="all"),
        spec("intersection", "May..Jun", ["gender", "occupation"]),
        # 12k-20k rows
        spec("project", "Sep", ["age", "occupation"]),
        spec("union", "May..Jul", ["age", "occupation"]),
        spec("union", "May..Oct", ["occupation", "rating"]),
        # 27k-58k rows
        spec("project", "Sep", ["gender", "age", "occupation"], semantics="all"),
        spec("difference", "Jul", ["gender", "age", "occupation"], t2="Aug"),
        spec("union", "May..Oct", ["gender", "age", "occupation"]),
    ]
    rng.shuffle(deck)
    return deck


ML_COLD_ATTRS = [["gender"], ["age"], ["rating"], ["occupation"], ["gender", "age"],
                 ["gender", "rating"], ["age", "rating"], ["gender", "age", "rating"]]


def ml_cold_deck(rng, months, count):
    """`count` distinct cache-missing specs with small answers, so operator,
    grouping and kernel work dominates. The enumeration interleaves cost
    classes, so every prefix has the same mix; the seed only orders it. The
    heaviest class is two equal-cost evolutions asked with their attributes
    in every order: twelve specs that hold the tail rank. (Evolution has no
    dist/all variants, so its specs are always sent as dist.)"""
    tail_class = [{"kind": "evolution", "t1": f"{months[0]}..{months[i - 1]}", "t2": months[i],
                   "attrs": list(attrs), "semantics": "dist"}
                  for i in (len(months) - 2, len(months) - 1)
                  for attrs in itertools.permutations(["gender", "age", "rating"])]
    intervals = [(i, j) for i in range(len(months)) for j in range(i, len(months))]

    def label(i, j):
        return months[i] if i == j else f"{months[i]}..{months[j]}"

    candidates = []
    for round_index in range(len(ML_COLD_ATTRS) * 2):
        semantics = "dist" if round_index % 2 == 0 else "all"
        for k, (i, j) in enumerate(intervals):
            attrs = ML_COLD_ATTRS[(k + round_index // 2) % len(ML_COLD_ATTRS)]
            ops = ["union", "intersection", "project" if i == j else "union"]
            op = ops[(k + round_index) % len(ops)]
            candidates.append(spec(op, label(i, j), attrs, semantics=semantics))
            if j + 1 < len(months):
                candidates.append(spec("difference", label(i, j), attrs,
                                       t2=label(j + 1, len(months) - 1), semantics=semantics))
        for i in range(len(months) - 1):
            candidates.append({"kind": "evolution", "t1": label(0, i), "t2": months[i + 1],
                               "attrs": ML_COLD_ATTRS[(i + round_index) % len(ML_COLD_ATTRS)],
                               "semantics": "dist"})
    events = ["stability", "growth", "shrinkage"]
    for n, (event, extension, reference, select) in enumerate(
            (e, x, r, s) for e in events for x in ("union", "intersection")
            for r in ("old", "new") for s in ("nodes", "edges")):
        candidates.insert(25 * (n + 1), {"kind": "explore", "event": event, "extension": extension,
                                         "reference": reference, "select": select,
                                         "attrs": ["gender"], "k": 10 + n})
    unique, seen = [], {json.dumps(spec, sort_keys=True) for spec in tail_class}
    for candidate in candidates:
        key = json.dumps(candidate, sort_keys=True)
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    if count > len(unique) + len(tail_class):
        raise BenchError(f"ml-cold needs {count} distinct specs; only "
                         f"{len(unique) + len(tail_class)} exist")
    deck = unique[:count - len(tail_class)] + tail_class
    rng.shuffle(deck)
    return deck


def dblp_year_deck(times, base, year_index):
    """Reads after each ingested year: old-interval specs, specs over the new
    year, and old -> new evolution. The last two are the heaviest: one
    evolution between two old spans, asked with the attributes in both
    orders, so the tail's 20 samples come from one cost class."""
    new = times[year_index]
    old_span = f"{times[0]}..{times[base - 1]}"
    early, late = f"{times[0]}..{times[base // 2]}", f"{times[base // 2 + 1]}..{times[base - 1]}"
    previous = times[year_index - 1]
    return [
        spec("union", old_span, ["gender"]),
        spec("union", old_span, ["gender", "publications"], semantics="all"),
        spec("intersection", f"{times[base - 3]}..{times[base - 1]}", ["publications"]),
        spec("project", times[base // 2], ["gender", "publications"]),
        spec("difference", old_span, ["gender"], t2=new),
        spec("project", new, ["gender"]),
        spec("project", new, ["gender", "publications"], semantics="all"),
        spec("union", f"{previous}..{new}", ["publications"]),
        spec("union", f"{times[0]}..{new}", ["gender"]),
        spec("intersection", f"{previous}..{new}", ["gender", "publications"]),
        {"kind": "evolution", "t1": old_span, "t2": new, "attrs": ["gender"],
         "semantics": "dist"},
        {"kind": "evolution", "t1": previous, "t2": new, "attrs": ["publications"],
         "semantics": "dist"},
        {"kind": "evolution", "t1": early, "t2": late, "attrs": ["gender", "publications"],
         "semantics": "dist"},
        {"kind": "evolution", "t1": early, "t2": late, "attrs": ["publications", "gender"],
         "semantics": "dist"},
    ]


# --- measurement helpers -----------------------------------------------------

def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} latency samples cannot support a tail percentile")
    rank = n - TAIL_BEYOND  # 1-based nearest rank
    return ordered[rank - 1], 100.0 * rank / n, ordered[rank - 2:rank + 1]


def rows_of(body):
    head = body[:512].decode(errors="replace")
    counts = [int(v) for v in re.findall(r'"(?:node_count|edge_count|pair_count)":(\d+)', head)]
    return sum(counts)


class Tally:
    """Verified answers of the operations a run attempted, plus the run-wide
    guards (work invariance, set-up agreement) that must all hold."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.guards_failed = 0
        self.problems = []

    def check(self, good, what):
        self.attempted += 1
        self.ok += bool(good)
        self._note(good, what)

    def guard(self, good, what):
        self.guards_failed += not good
        self._note(good, what)

    def _note(self, good, what):
        if not good and len(self.problems) < 5:
            self.problems.append(what)

    @property
    def correct(self):
        return self.ok == self.attempted and self.guards_failed == 0


def replay(work_dir, manifest, ops, snapshot=None, materialize=None):
    """Runs `gtperf replay` over `ops` (a list of op lines) and returns its JSON."""
    work = work_dir / "replay"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "ops.txt").write_text("".join(line + "\n" for line in ops))
        command = [str(GTPERF), "replay", "--ops", str(work / "ops.txt"),
                   "--out", str(work / "out.json"),
                   "--ingest", str(manifest["dir"] / "ingest.txt")]
        if snapshot:
            shutil.copyfile(snapshot, work / "boot.snap")
            command += ["--snapshot", str(work / "boot.snap")]
        else:
            command += ["--tsv", str(manifest["dir"] / "base.tsv")]
        if materialize:
            command += ["--materialize", materialize]
        if subprocess.run(command, stdout=sys.stderr, timeout=HELPER_TIMEOUT_S).returncode != 0:
            raise BenchError("gtperf replay failed")
        return json.loads((work / "out.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def query_line(request):
    return "Q " + json.dumps(request, separators=(",", ":"))


# --- workloads ---------------------------------------------------------------

class Run:
    """State shared by the three workloads."""

    def __init__(self, args):
        self.args = args
        self.rng = random.Random(args.seed)
        self.tally = Tally()
        self.setup_s = []
        self.query_latencies = []   # timed-phase queries, seconds
        self.query_bodies = []      # (phase, crc32, length, rows) per checked answer
        self.ingest_latencies = []
        self.ingest_sizes = []      # records per ingested batch
        self.ingest_frames = []     # (event, data) per ingested batch
        self.timed_ops = 0          # operations of the timed phase
        self.timed_seconds = 0.0
        self.extra_requests = 0     # other requests sent since stats_before
        self.ops = []               # (replay op line, needed without --trace)
        self.work = {}
        self.stamps = {}
        self.server = None
        self.work_dir = BUILD / "runs" / str(os.getpid())  # this run's files

    def ingest(self, client, batch_index):
        """Posts one batch and waits for its `/events` frame before returning,
        so ingestion is sequenced with every other operation."""
        body = self.manifest["batches"][batch_index]
        start = time.perf_counter()
        status, answer, _ = client.call("POST", "/ingest", body.encode())
        if status != 202:
            raise BenchError(f"/ingest answered {status}: {answer[:120]!r}")
        self.ingest_frames.append(self.server.events.next())
        self.ingest_latencies.append(time.perf_counter() - start)
        self.ingest_sizes.append(body.count("\n"))
        self.ops.append((f"I {batch_index}", True))

    def send(self, client, request):
        """One timed query; its answer is checked against the replay later."""
        payload = json.dumps(request, separators=(",", ":")).encode()
        status, body, elapsed = client.call("POST", "/query", payload)
        if status != 200:
            raise BenchError(f"/query answered {status}: {body[:160]!r}")
        self.ops.append((query_line(request), True))
        self.query_bodies.append(("timed", zlib.crc32(body), len(body), rows_of(body)))
        self.query_latencies.append(elapsed)

    def setup(self, start_server, prepare=None):
        """Starts the server SETUPS times (once when tracing), each time until
        it is ready, warm and streaming `/events`; keeps the last and reports
        the median. `prepare` (untimed) readies the files a set-up boots from."""
        setups = 1 if self.args.trace else SETUPS
        for attempt in range(setups):
            if prepare:
                prepare()
            started = time.perf_counter()
            server = start_server()
            # Counted before subscribing: the server counts an /events request
            # only after it has sent the greeting, so a later /stats could
            # race it. The timed phase's request delta is then its operations
            # plus this /stats call and the subscription.
            server.stats_before = server.stats()
            server.events = Events(server.port)
            if server.events.next()[0] != "hello":
                raise BenchError("/events did not greet")
            self.setup_s.append(time.perf_counter() - started)
            if attempt + 1 < setups:
                server.events.close()
                server.stop()
        self.server = server

    def ingest_phase(self):
        """The MovieLens workloads' ingest phase, after their timed phase: the
        held-out month's batches, each sequenced like dblp-ingest's, so the
        ingest metrics exist without touching the timed queries."""
        self.ops.append(("P ingest", True))
        client = Client(self.server.port)
        for index in range(len(self.manifest["batches"])):
            self.ingest(client, index)
        client.close()
        self.extra_requests += len(self.manifest["batches"])

    def verify_against_replay(self, result, skip_phases=()):
        """Every checked answer and every ingest frame must equal the replay's
        bytes (answers by CRC-32 and length, frames verbatim)."""
        queries = [row for row in result["ops"]
                   if row["op"] == "query" and row["phase"] not in skip_phases]
        ingests = [row for row in result["ops"] if row["op"] == "ingest"]
        if len(queries) != len(self.query_bodies) or len(ingests) != len(self.ingest_frames):
            raise BenchError("replay and server saw different operation counts")
        for mine, theirs in zip(self.query_bodies, queries):
            self.tally.check(mine[1] == theirs["crc32"] and mine[2] == theirs["bytes"],
                             f"answer differs from replay ({theirs})")
        for (event, data), theirs in zip(self.ingest_frames, ingests):
            self.tally.check(event == theirs["event"] and data == theirs["data"],
                             f"event frame differs from replay: {event} {data}")


def run_ml_hot(run):
    args = run.args
    manifest = run.manifest = dataset("movielens", args.seed, args.profile)
    deck = ml_hot_deck(run.rng)
    cycles = max(2, round(args.seconds * ML_HOT_CYCLES_PER_S))
    warm_bodies = []

    def start():
        server = Server(manifest["dir"] / "base.tsv", ["--workers", "2"])
        client = Client(server.port)
        bodies = []
        for request in deck:
            status, body, _ = client.call("POST", "/query", json.dumps(request).encode())
            if status != 200:
                raise BenchError(f"warm-up /query answered {status}: {body[:160]!r}")
            bodies.append(body)
        client.close()
        warm_bodies.append(bodies)
        return server

    run.setup(start)
    server = run.server
    warm = warm_bodies[-1]
    for bodies in warm_bodies[:-1]:  # every set-up must answer identically
        for mine, theirs in zip(bodies, warm):
            run.tally.guard(mine == theirs, "warm-up answers differ between set-ups")
    run.ops.append(("P warm", True))
    for request, body in zip(deck, warm):
        run.ops.append((query_line(request), True))
        run.query_bodies.append(("warm", zlib.crc32(body), len(body), rows_of(body)))
    run.ops.append(("P timed", True))

    # The timed phase runs in gtperf's native client threads (see gtperf.cc),
    # each of which first opens its connection with one untimed /healthz.
    drive = run.work_dir / "drive"
    drive.mkdir(parents=True, exist_ok=True)
    (drive / "deck.txt").write_text("".join(json.dumps(r) + "\n" for r in deck))
    command = [str(GTPERF), "drive", "--port", str(server.port), "--deck",
               str(drive / "deck.txt"), "--cycles", str(cycles), "--out", str(drive / "out.json")]
    if subprocess.run(command, stdout=sys.stderr, timeout=HELPER_TIMEOUT_S).returncode != 0:
        raise BenchError("gtperf drive failed")
    driven = json.loads((drive / "out.json").read_text())
    run.timed_seconds = driven["elapsed_s"]
    run.extra_requests += 2  # each drive client's untimed /healthz
    warm_digest = [(zlib.crc32(body), len(body)) for body in warm]
    by_spec = [[] for _ in deck]
    for _, spec_index, status, latency_us, crc, size in driven["samples"]:
        run.tally.check(status == 200 and (crc, size) == warm_digest[spec_index],
                        f"hit {spec_index} differs from warm-up")
        run.query_latencies.append(latency_us / 1e6)
        by_spec[spec_index].append(latency_us / 1000)
        run.ops.append((query_line(deck[spec_index]), False))
    queries = run.timed_ops = len(driven["samples"])
    run.ingest_phase()
    before, after = server.stats_before, server.stats()
    run.work["result_rows"] = sum(rows_of(warm[i]) * len(by_spec[i]) for i in range(len(deck)))
    run.work["timed_hits"] = after["cache"]["hits"] - before["cache"]["hits"]
    run.work["timed_misses"] = after["cache"]["misses"] - before["cache"]["misses"]
    run.work["requests"] = after["requests"] - before["requests"] - 2
    run.tally.guard(run.work["timed_misses"] == 0, "ml-hot timed phase missed the cache")
    run.tally.guard(run.work["timed_hits"] == queries, "ml-hot timed hits != queries")
    # Hit cost against result size, per deck spec (the first ledger finding):
    # [rows, bytes, median ms].
    run.stamps["hit_cost"] = sorted(
        (rows_of(warm[i]), len(warm[i]), round(statistics.median(by_spec[i]), 3))
        for i in range(len(deck)))
    return {"cycles_per_client": cycles, "deck": len(deck)}


def run_ml_cold(run):
    args = run.args
    manifest = run.manifest = dataset("movielens", args.seed, args.profile)
    months = manifest["times"][: manifest["base_times"]]
    count = max(2 * TAIL_BEYOND + 1, round(args.seconds * ML_COLD_SPECS_PER_S))
    deck = ml_cold_deck(run.rng, months, count)
    run.setup(lambda: Server(manifest["dir"] / "base.tsv", ["--threads", str(ML_COLD_THREADS)]))
    server = run.server
    client = Client(server.port)
    run.ops.append(("P timed", True))
    started = time.perf_counter()
    for request in deck:
        run.send(client, request)
    run.timed_seconds = time.perf_counter() - started
    client.close()
    run.timed_ops = len(deck)
    run.ingest_phase()
    before, after = server.stats_before, server.stats()
    run.work["requests"] = after["requests"] - before["requests"] - 2
    run.tally.guard(after["cache"]["hits"] == before["cache"]["hits"], "an ml-cold spec hit")
    return {"deck": len(deck)}


def run_dblp(run):
    args = run.args
    manifest = run.manifest = dataset("dblp", args.seed, args.profile)
    times, base = manifest["times"], manifest["base_times"]
    work = run.work_dir / "dblp"

    def prepare():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        shutil.copyfile(manifest["dir"] / "base.snap", work / "boot.snap")

    def start():
        return Server(manifest["dir"] / "base.tsv",
                      ["--snapshot", str(work / "boot.snap"), "--ingest-log",
                       str(work / "ingest.log"), "--attrs", "gender,publications",
                       "--materialize"], expect_snapshot=True)

    run.setup(start, prepare)
    server = run.server
    # Batches per year, in order: each year starts with its `t` record.
    year_batches = []
    for index, body in enumerate(manifest["batches"]):
        if body.startswith("t "):
            year_batches.append([])
        year_batches[-1].append(index)
    client = Client(server.port)
    before = server.stats_before
    run.ops.append(("P timed", True))
    started = time.perf_counter()
    for offset, batches in enumerate(year_batches):
        for index in batches:
            run.ingest(client, index)
        # Every spec of the year's deck misses (the year's `sa` writes
        # invalidated all cached answers); the repeats hit. Misses stay the
        # majority, so the median lands inside the misses' block.
        deck = dblp_year_deck(times, base, base + offset)
        for request in deck + deck[:DBLP_REPEATS]:
            run.send(client, request)
    run.timed_seconds = time.perf_counter() - started
    after = server.stats()
    client.close()
    run.timed_ops = len(run.query_latencies) + len(run.ingest_latencies)
    run.work["requests"] = after["requests"] - before["requests"] - 2
    return {"years": len(year_batches), "deck": len(deck), "repeats": DBLP_REPEATS}


def finish(run, trace):
    """Collects server-side counts, stops the server, verifies against the
    in-process replay and returns (metrics, report)."""
    args, manifest = run.args, run.manifest
    server = run.server
    final = server.stats()
    run.work["ingest_applied"] = server.counter("server/ingest_records")
    run.stamps["backend"] = final["backend"]
    peak_rss_mb = server.peak_rss_mb()
    server.events.close()
    server.stop()
    run.server = None
    for key in ("hits", "misses", "bypasses", "evictions", "invalidations"):
        run.work[f"cache_{key}"] = final["cache"][key]
    run.work["ingest_sent"] = sum(run.ingest_sizes)
    run.work["timed_ops"] = run.timed_ops

    # Without --trace the replay skips ml-hot's timed hits (they change no
    # state); the expected hit count then adds them back.
    ops = [line for line, needed in run.ops if trace or needed]
    skipped_hits = len(run.ops) - len(ops)
    if args.workload == "dblp-ingest":
        result = replay(run.work_dir, manifest, ops,
                        snapshot=manifest["dir"] / "base.snap", materialize="gender,publications")
    else:
        result = replay(run.work_dir, manifest, ops)
    run.verify_against_replay(result, skip_phases=("timed",) if args.workload == "ml-hot" else ())

    # Work invariance: the server's counts must equal the replay's.
    phases = result["phases"]
    expected = {key: sum(p[key] for p in phases.values())
                for key in ("hits", "misses", "bypasses", "evictions", "invalidations")}
    expected["hits"] += skipped_hits
    for key, value in expected.items():
        run.tally.guard(run.work[f"cache_{key}"] == value,
                        f"cache {key}: server {run.work[f'cache_{key}']} != replay {value}")
    run.tally.guard(run.work["requests"] == run.timed_ops + run.extra_requests,
                    "request count drifted")
    run.tally.guard(run.work["ingest_applied"] == run.work["ingest_sent"], "ingest records lost")
    run.work.setdefault("result_rows", sum(q[3] for q in run.query_bodies if q[0] == "timed"))

    latency_ms = [s * 1000 for s in run.query_latencies]
    tail_ms, tail_pct, tail_window = tail(latency_ms)
    ingest_ms = [s * 1000 for s in run.ingest_latencies]
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "qps": run.timed_ops / run.timed_seconds,
        "latency_p50_ms": statistics.median(latency_ms),
        "latency_tail_ms": tail_ms,
        "ok_ratio": run.tally.ok / run.tally.attempted,
        "peak_rss_mb": peak_rss_mb,
        "ingest_p50_ms": statistics.median(ingest_ms),
        "ingest_records_per_s": statistics.median(
            records / seconds for records, seconds in zip(run.ingest_sizes, run.ingest_latencies)),
    }
    report = {
        "tail_percentile": round(tail_pct, 3),
        "latency_samples": len(latency_ms),
        "tail_window_ms": tail_window,
        "ingest_samples": len(ingest_ms),
        "timed_seconds": run.timed_seconds,
        "ingest_seconds": sum(run.ingest_latencies),
        "setup_samples_s": run.setup_s,
        "work": run.work,
    }
    if trace:
        metrics = layer_metrics(run, result)
    return metrics, report


def layer_metrics(run, result):
    """Per-layer metrics from the replay; see README.md for the layer map."""
    timed = [row for row in result["ops"] if row["phase"] == "timed" and row["op"] == "query"]
    ingests = [row for row in result["ops"] if row["op"] == "ingest"]
    phase = result["phases"].get("timed", {})

    def median(rows, key):
        return statistics.median(row[key] for row in rows) if rows else 0.0

    inproc_us = [row["parse_us"] + row["bind_us"] + row["plan_us"] + row["exec_us"]
                 + row["serialize_us"] for row in timed]
    http_us = [s * 1e6 for s in run.query_latencies]
    hits = [row for row in timed if row["hit"]]
    lookups = phase.get("hits", 0) + phase.get("misses", 0)
    layers_s = sum(inproc_us) / 1e6 + sum(
        row["parse_ms"] + row["apply_ms"] + row["refresh_ms"] for row in ingests) / 1000
    http_s = sum(run.query_latencies) + sum(run.ingest_latencies)
    every_phase = result["phases"].values()
    return {
        "util.json_parse_us": median(timed, "parse_us"),
        "engine.bind_us": median(timed, "bind_us"),
        "engine.plan_us": median(timed, "plan_us"),
        "server.overhead_us": statistics.median(http_us) - statistics.median(inproc_us),
        "engine.hit_us": median(hits, "exec_us"),
        "engine.serialize_us": median(timed, "serialize_us"),
        "core.operator_ms": phase.get("operator_ms", 0.0),
        "core.aggregate_ms": phase.get("aggregate_ms", 0.0),
        "core.evolution_ms": phase.get("evolution_ms", 0.0),
        "core.explore_ms": phase.get("explore_ms", 0.0),
        "server.ingest_parse_ms": median(ingests, "parse_ms"),
        "server.ingest_apply_ms": median(ingests, "apply_ms"),
        "engine.refresh_ms": sum(row["refresh_ms"] for row in ingests),
        "engine.cache_hit_ratio": phase.get("hits", 0) / lookups if lookups else 0.0,
        "engine.cache_invalidations": sum(p["invalidations"] for p in every_phase),
        "engine.materialized_route_ratio":
            sum(row["materialized"] for row in timed) / len(timed) if timed else 0.0,
        "storage.tsv_load_s": result.get("tsv_load_s", 0.0),
        "storage.snapshot_load_s": result.get("snapshot_load_s", 0.0),
        "engine.materialize_s": result.get("materialize_s", 0.0),
        "core.result_rows": sum(row["rows"] for row in timed),
        "engine.response_bytes": sum(row["bytes"] for row in timed),
        "engine.rollups": sum(p["rollups"] for p in every_phase),
        "engine.rollup_hits": sum(p["rollup_hits"] for p in every_phase),
        "accel.kernel_words": sum(p["kernel_words"] for p in every_phase),
        "unexplained_share": max(0.0, 1.0 - layers_s / http_s) if http_s else 0.0,
    }


WORKLOADS = {"ml-hot": run_ml_hot, "ml-cold": run_ml_cold, "dblp-ingest": run_dblp}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full",
                        help="generator scale; 'smoke' is a seconds-long miniature")
    args = parser.parse_args()

    run = Run(args)
    try:
        build()
        run.stamps.update(json.loads(subprocess.run(
            [str(GTPERF), "info"], capture_output=True, check=True).stdout))
        shape = WORKLOADS[args.workload](run)
        metrics, report = finish(run, args.trace == 1)
    except (BenchError, OSError, http.client.HTTPException, subprocess.SubprocessError) as error:
        log(f"error: {error!r}")
        return 1
    finally:
        for server in list(Server.live):
            server.kill()
        shutil.rmtree(run.work_dir, ignore_errors=True)

    manifest = run.manifest
    run.stamps.update({
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
        "profile": args.profile, "seconds": args.seconds,
        "dataset": {key: manifest[key] for key in
                    ("dataset", "base_nodes", "base_edges", "full_nodes", "full_edges", "ingest_records",
                     "ingest_batches")},
        "shape": shape,
    })
    report.update(run.stamps)
    if run.tally.problems:
        report["problems"] = run.tally.problems
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"report": report}))
    correct = run.tally.correct
    if not correct:
        log(f"checks failed: {run.tally.problems}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.attempted - run.tally.ok,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
