#!/usr/bin/env python3
"""The freesketch benchmark: four workloads on the paths a user runs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload social-1t --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

The program under test is the real `freesketch` binary, built from the
checkout and run as a child process on a seeded, generated trace. The
trace and its exact ground truth are generated once per (trace, seed) by
`perfbench-gen` and cached in `.perfbench_cache/`, outside any timing.

`--trace 0` measures the end-to-end metrics. `--trace 1` is a separate
run: it builds `perfbench-layers`, which times calls into each crate's
public functions on the same trace, records spans, and reports the
per-layer metrics, the sum of the layers next to the composed number and
the tracing overhead. Either way the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the lines before it are a human-readable report, and the full record
(host context included) is written to `.perfbench_cache/results/`.

`--smoke` runs a tiny-trace shape of all four workloads (both modes) in
seconds and fails unless every named metric is printed with its unit and
nothing failed.
"""

import argparse
import bisect
import contextlib
import json
import math
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CACHE = os.path.join(ROOT, ".perfbench_cache")

# Traces: a Table I profile at a scale. `DatasetProfile::scaled` keeps the
# mean cardinality and divides the user count; M is the profile's scaled
# memory budget (`DatasetProfile::scaled_memory_bits`), read from meta.json.
TRACES = {
    # ~200k users, mean cardinality ~75, 20% duplicates, ~18M edges.
    "social": {"profile": "orkut", "scale": 15},
    # The same profile at half the size (~100k users, ~9M edges) for
    # serve-live, whose daemon lives are slowed by the query mix: ~2 s each,
    # so a run holds enough of them for steady medians.
    "social-half": {"profile": "orkut", "scale": 30},
    # ~1M users, mean cardinality ~2.75, 80% duplicates, ~5M edges.
    "traffic": {"profile": "sanjose", "scale": 8},
}
SMOKE_SCALES = {"social": 3000, "social-half": 3000, "traffic": 2000}

WORKLOADS = {
    "social-1t": {"mode": "estimate", "trace": "social", "method": "freebs", "threads": 1},
    "social-2t": {"mode": "estimate", "trace": "social", "method": "freebs", "threads": 2},
    "traffic-freers": {"mode": "estimate", "trace": "traffic", "method": "freers", "threads": 1},
    "serve-live": {"mode": "serve", "trace": "social-half", "method": "freebs", "threads": 1},
}

# (name, unit) of the gated metrics, as listed in BENCHMARK.json. Printed
# but not gated: estimate_p90_us and estimate_p99_us, which moved 15-30%
# between ten runs of the same code on a shared 2-vCPU host, and
# failed_ratio, which reads 0 on every healthy run and so cannot carry a
# relative bound; it travels as `attempted`/`failed` in the result line.
END_TO_END = [
    ("edges_per_s", "edges/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("top_rse", "ratio"),
    ("estimate_p50_us", "us"),
    ("topk_p50_us", "us"),
    ("stats_p50_us", "us"),
    ("snapshot_p50_ms", "ms"),
]

TOP = 1000  # users compared with the ground truth for top_rse
SKETCH_SEED = 42  # the CLI's default hash seed, fixed across trace seeds
# serve-live's closed-loop request mix, 8 ESTIMATE : 1 TOPK 10 : 1 STATS.
MIX = ["ESTIMATE"] * 4 + ["TOPK"] + ["ESTIMATE"] * 4 + ["STATS"]
# The estimate workloads' query mix, 128 : 1 : 1. A scan evicts what the
# next ESTIMATEs need; with many ESTIMATEs between scans, their median is
# the warm latency.
QUERY_MIX = ["ESTIMATE"] * 128 + ["TOPK", "STATS"]
# serve-live sends a SNAPSHOT after the first STATS reply that shows each of
# these shares of the trace ingested, so every image has the same size.
SNAPSHOT_AT = (0.25, 0.5, 0.75)
SETUPS_PER_RUN = 3  # set-up repetitions per program run (see setup_s)
WINDOW_CYCLES = 3  # a latency window is this many cycles of the mix
LOW = 10  # the latency metrics are this percentile over windows (see end_to_end)
QUERY_SHARE = 0.25  # share of an estimate workload's round spent on queries
MIN_ROUNDS = 5  # program runs (or daemon lives) per benchmark run, at least
DRAIN_LIMIT_S = 60  # a daemon that has not ingested its trace by then failed


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Attempted and failed operations; every failed check lands here."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


# ---------------------------------------------------------------- building


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(layers):
    """Builds the CLI from the checkout and the benchmark's own tools."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "freesketch-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml"), "-p", "perfbench-gen"]
        + (["-p", "perfbench-layers"] if layers else []),
    ]
    for cmd in cmds:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return {name: os.path.join(rel, name)
            for name in ("freesketch", "perfbench-gen", "perfbench-layers")}


# ------------------------------------------------------------------ inputs


class Trace:
    """A generated trace: the fedge file, its ground truth and meta data."""

    def __init__(self, path):
        self.file = os.path.join(path, "trace.fedge")
        self.empty = os.path.join(path, "empty.fedge")  # set-up runs
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = json.load(f)
        raw = array("Q")
        with open(os.path.join(path, "truth.bin"), "rb") as f:
            raw.frombytes(f.read())
        if sys.byteorder != "little":
            raw.byteswap()
        self.users = raw[0::2]
        self.cards = raw[1::2]
        self.edges = self.meta["edges"]
        self.memory_bits = self.meta["memory_bits"]

    def cardinality(self, user):
        i = bisect.bisect_left(self.users, user)
        if i < len(self.users) and self.users[i] == user:
            return self.cards[i]
        return None

    def sample_users(self, n, seed):
        rng = random.Random(seed)
        return [self.users[rng.randrange(len(self.users))] for _ in range(n)]


def trace_for(name, seed, smoke):
    spec = TRACES[name]
    scale = SMOKE_SCALES[name] if smoke else spec["scale"]
    out = os.path.join(CACHE, "traces", f"{spec['profile']}-s{scale}-seed{seed}")
    if not os.path.isdir(out):
        os.makedirs(os.path.dirname(out), exist_ok=True)
        evict_traces(keep=9)
        log(f"generating {name} trace (scale {scale}, seed {seed})")
        r = subprocess.run([BIN["perfbench-gen"], "--profile", spec["profile"],
                            "--scale", str(scale), "--seed", str(seed), "--out", out],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("trace generation failed")
    os.utime(out)  # most recently used
    return Trace(out)


def evict_traces(keep):
    """Bounds the cache: drops the least recently used traces."""
    base = os.path.join(CACHE, "traces")
    dirs = [os.path.join(base, d) for d in os.listdir(base)]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[keep - 1:]:
        shutil.rmtree(d, ignore_errors=True)


# ------------------------------------------------------------ the program


def run_program(argv):
    """Runs one process to completion: (seconds, exit code, stdout, peak MB)."""
    err_path = os.path.join(CACHE, "stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        t1 = time.perf_counter()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return t1 - t0, p.returncode, out.decode(errors="replace"), usage.ru_maxrss / 1024.0


def estimate_argv(w, trace_file, memory_bits):
    return [BIN["freesketch"], "estimate", trace_file, "--method", w["method"],
            "--threads", str(w["threads"]), "--memory", str(memory_bits),
            "--seed", str(SKETCH_SEED), "--top", str(TOP)]


def parse_report(out):
    """(edges processed, users announced, [(user, estimate)]) from an
    `estimate` report."""
    lines = out.splitlines() + ["", ""]
    first, second = lines[0].split(), lines[1].split()  # "N edges …", "top K users …"
    edges = int(first[0]) if first and first[0].isdigit() else -1
    announced = int(second[1]) if len(second) > 1 and second[1].isdigit() else -1
    users = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) == 2:
            users.append((int(parts[0], 16), float(parts[1])))
    return edges, announced, users


def top_rse(trace, users, announced, tally):
    """The paper's relative error over the reported heaviest users."""
    sq = []
    for user, est in users:
        n = trace.cardinality(user)
        if tally.check(n is not None, f"reported user {user:016x} not in the trace"):
            sq.append(((est - n) / n) ** 2)
    tally.check(0 < len(users) == announced, f"{len(users)} users listed, {announced} announced")
    return math.sqrt(sum(sq) / len(sq)) if sq else float("nan")


# -------------------------------------------------------------- serve client


CPUS = sorted(os.sched_getaffinity(0))


def thread_names(pid):
    """{thread id: name} of a live process."""
    names = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/comm") as f:
                names[int(tid)] = f.read().strip()
        except OSError:
            continue
    return names


def split_threads(pid):
    """Gives the daemon's writer threads a CPU of their own and keeps every
    other thread on the client's CPU, so ingest and the request hand-off do
    not trade cores from run to run (left alone, 1-3% of requests stall for
    milliseconds behind the writer and the tail percentiles flip between
    runs). Threads the daemon starts later (the connection handler) inherit
    the acceptor's CPU. Returns whether the writers were found."""
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        names = thread_names(pid)
        writers = {t for t, n in names.items() if n.startswith("fs-serve-writer")}
        if writers:
            for tid in names:
                try:
                    os.sched_setaffinity(tid, {CPUS[1] if tid in writers else CPUS[0]})
                except OSError:
                    pass
            return True
        time.sleep(0.001)
    return False


class Daemon:
    """One `freesketch serve` child and a closed-loop client connection.

    With `pinned` (and two or more CPUs) the writers run on one CPU and the
    connection handler on another, which the client joins while it sends
    requests (see `client_pinned`) until `move_handler`."""

    def __init__(self, w, trace_file, memory_bits, tally, spans=None, pinned=True):
        self.tally = tally
        self.spans = spans
        self.sock = None
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [BIN["freesketch"], "serve", trace_file, "--port", "0", "--method", w["method"],
             "--threads", str(w["threads"]), "--memory", str(memory_bits),
             "--seed", str(SKETCH_SEED)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            line = self.proc.stdout.readline().decode()
            self.t_listen = time.perf_counter()
            if not line.startswith("listening on "):
                raise RuntimeError(f"serve did not start: {line!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            self.pinned = pinned and len(CPUS) > 1
            if self.pinned and not split_threads(self.proc.pid):
                log("serve: writer threads not found by name; running unpinned")
                self.pinned = False
            with self.client_pinned():
                self.sock = socket.create_connection((host, int(port)), timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
        except BaseException:
            self.kill()
            raise

    def move_handler(self):
        """Moves the connection handler to the writers' CPU, apart from the
        client, for a daemon whose ingest is over. A request then wakes the
        other CPU: that ESTIMATE latency held within 4% over 40 s, where
        the hand-off on one CPU moved by 40%."""
        if self.pinned:
            for tid, name in thread_names(self.proc.pid).items():
                if name.startswith("fs-serve-conn"):
                    os.sched_setaffinity(tid, {CPUS[1]})

    @contextlib.contextmanager
    def client_pinned(self):
        """Runs this client on the handler's CPU for the duration."""
        if self.pinned:
            os.sched_setaffinity(0, {CPUS[0]})
        try:
            yield
        finally:
            if self.pinned:
                os.sched_setaffinity(0, CPUS)

    def request(self, line):
        """Sends one request; returns (reply, seconds). Counts ERR replies."""
        t0 = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")
        reply = self.reader.readline().decode().rstrip("\n")
        t1 = time.perf_counter()
        if self.spans is not None:
            self.spans.add(line.split()[0], t0, t1)
        self.tally.check(reply.startswith("OK"), f"{line!r} -> {reply!r}")
        return reply, t1 - t0

    def ready(self):
        """Waits for the first OK reply: the daemon takes queries from here."""
        self.request("STATS")

    def stats_edges(self):
        reply, dt = self.request("STATS")
        for tok in reply.split():
            if tok.startswith("edges="):
                return int(tok[6:]), dt
        return -1, dt

    def topk(self, n):
        """((announced count, [(user, estimate)]), seconds)."""
        reply, dt = self.request(f"TOPK {n}")
        words = reply.split() if reply.startswith("OK ") else []
        users = []
        for tok in words[2:]:
            u, e = tok.lstrip("#").split(":")
            users.append((int(u, 16), float(e)))
        announced = int(words[1]) if len(words) > 1 and words[1].isdigit() else -1
        return (announced, users), dt

    def snapshot(self):
        return self.request(f"SNAPSHOT {snapshot_path()}")[1]

    def drained(self, got, edges):
        """Whether ingest is over: all edges in, or no time left for them
        (a failure) so that the run still ends within its time limit."""
        late = time.perf_counter() - self.t_spawn > DRAIN_LIMIT_S
        if got >= edges or late:
            self.tally.check(got == edges, f"serve edges {got} != {edges}")
            return True
        return False

    def wait_drained(self, edges):
        while not self.drained(self.stats_edges()[0], edges):
            time.sleep(0.02)

    def shutdown(self, expect_edges):
        """SHUTDOWN, then checks the drain report; returns peak RSS in MB."""
        reply, _ = self.request("SHUTDOWN")
        self.tally.check(reply.startswith("OK draining"), f"SHUTDOWN -> {reply!r}")
        self.close()
        tail = self.proc.stdout.read().decode()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.tally.check(self.proc.returncode == 0, f"serve exit {self.proc.returncode}")
        self.tally.check(f"drained: {expect_edges} edges" in tail, f"serve drained: {tail!r}")
        return usage.ru_maxrss / 1024.0

    def close(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None

    def kill(self):
        """Stops the child whatever state it is in, and reaps it."""
        self.close()
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def snapshot_path():
    return os.path.join(CACHE, "tmp", "snap.fsnp")


def serve_setup(w, trace, tally):
    """setup_s of serve: spawn on an empty trace until the daemon prints
    the address it listens on (port bound, sketch built, threads started).
    The first reply comes 0-5 ms later, when the acceptor next polls; that
    race moved the median 2.5x between runs, so it is left out."""
    d = Daemon(w, trace.empty, trace.memory_bits, tally, pinned=False)
    try:
        d.ready()
        d.shutdown(0)
    finally:
        d.kill()
    return d.t_listen - d.t_spawn


def mix_request(d, sample, mix, i, win):
    """Sends request `i` of the mix and records its latency in the window;
    returns the edge count of a STATS reply, None for the other verbs."""
    verb = mix[i % len(mix)]
    if verb == "ESTIMATE":
        user = sample[(i * 7) % len(sample)]
        win["estimate"].append(d.request(f"ESTIMATE #{user:016x}")[1])
    elif verb == "TOPK":
        win["topk"].append(d.topk(10)[1])
    else:
        edges, dt = d.stats_edges()
        win["stats"].append(dt)
        return edges
    return None


def serve_live_cycle(w, trace, tally, sample, rec, spans):
    """One daemon life: the request mix while it ingests, then TOPK 1000
    for top_rse, and SHUTDOWN. Each life is one round of the run."""
    rnd = new_round(rec)
    d = Daemon(w, trace.file, trace.memory_bits, tally, spans)
    try:
        with d.client_pinned(), span(spans, "daemon"):
            d.ready()
            t_ready = time.perf_counter()
            prev = (t_ready, 0)
            snapshots = list(SNAPSHOT_AT)
            i = 0
            while True:
                if snapshots and prev[1] >= snapshots[0] * trace.edges:
                    snapshots.pop(0)
                    rec["snapshot"].append(d.snapshot())
                if i % (WINDOW_CYCLES * len(MIX)) == 0:
                    win = new_window(rec)
                edges = mix_request(d, sample, MIX, i, win)
                if edges is not None:
                    now = time.perf_counter()
                    if d.drained(edges, trace.edges):
                        # The last edge landed between the previous STATS
                        # and this one; place it by the ingest rate so far.
                        t_prev, e_prev = prev
                        rate = e_prev / (t_prev - t_ready) if e_prev > 0 else 0.0
                        t_done = t_prev + (trace.edges - e_prev) / rate if rate > 0 else now
                        rnd["busy"] = min(max(t_done, t_prev), now) - t_ready
                        break
                    prev = (now, edges)
                i += 1
            (announced, users), _ = d.topk(TOP)
            rec["rse"].append(top_rse(trace, users, announced, tally))
            rec["rss"].append(d.shutdown(trace.edges))
    finally:
        d.kill()


def query_phase(d, sample, edges, rec, seconds, spans):
    """One round's queries against the drained daemon: QUERY_MIX, in whole
    windows (at least one), for `seconds`."""
    with d.client_pinned(), span(spans, "queries"):
        end = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < end:
            win = new_window(rec)
            for _ in range(WINDOW_CYCLES * len(QUERY_MIX)):
                got = mix_request(d, sample, QUERY_MIX, i, win)
                if got is not None:
                    d.tally.check(got == edges, f"drained STATS edges {got} != {edges}")
                i += 1


# ------------------------------------------------------------------ helpers


def span(spans, name):
    """A span when the run is traced, nothing otherwise."""
    return spans.span(name) if spans is not None else contextlib.nullcontext()


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def percentile(xs, p):
    """Nearest-rank percentile."""
    if not xs:
        return float("nan")
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(p / 100.0 * len(s)) - 1))]


class Spans:
    """In-memory spans (name, start, end, parent, run id), written out once
    the run ends. The run is the root; `span` opens a child of the span
    that is open, and `add` records a finished one under it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.items = []
        self.t0 = time.perf_counter()
        self.current = None
        self.current = self.add("run", self.t0, self.t0)

    def add(self, name, start, end):
        self.items.append({"id": len(self.items), "name": name,
                           "start_ns": int((start - self.t0) * 1e9),
                           "end_ns": int((end - self.t0) * 1e9),
                           "parent": self.current, "run": self.run_id})
        return len(self.items) - 1

    @contextlib.contextmanager
    def span(self, name):
        now = time.perf_counter()
        sid, parent = self.add(name, now, now), self.current
        self.current = sid
        try:
            yield
        finally:
            self.items[sid]["end_ns"] = int((time.perf_counter() - self.t0) * 1e9)
            self.current = parent

    def close(self):
        self.items[0]["end_ns"] = int((time.perf_counter() - self.t0) * 1e9)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.items:
                f.write(json.dumps(s) + "\n")


def host_context(name, seed, trace_mode, w):
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, idx, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(base, idx, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(base, idx, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = size
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "l2": caches.get("L2", "?"), "l3": caches.get("L3", "?"),
            "commit": commit, "seed": seed, "traced": bool(trace_mode),
            "workload": name, "threads": w["threads"],
            "threads_exceed_nproc": w["threads"] > nproc}


# --------------------------------------------------------------- workloads


def run_estimate(w, trace, seconds, tally, spans, min_rounds=MIN_ROUNDS):
    """Rounds of: set-ups, one timed `estimate` run, one SNAPSHOT and the
    round's queries, until the window has passed. The queries go to a
    daemon holding this workload's sketch, started and drained first.
    Host speed drifts over tens of seconds; queries in every round see
    the same stretch of time as the timed runs."""
    rec = new_record()
    sample = trace.sample_users(4096, 7)
    d = Daemon(w, trace.file, trace.memory_bits, tally, spans)
    try:
        d.ready()
        d.wait_drained(trace.edges)
        d.move_handler()
        deadline = time.perf_counter() + seconds
        while len(rec["rounds"]) < min_rounds or time.perf_counter() < deadline:
            t_round = time.perf_counter()
            for _ in range(SETUPS_PER_RUN):
                dt, code, _, _ = run_program(estimate_argv(w, trace.empty, trace.memory_bits))
                tally.check(code == 0, f"empty estimate exit {code}")
                rec["setup_s"].append(dt)
            rnd = new_round(rec)
            with span(spans, "estimate"):
                dt, code, out, rss = run_program(estimate_argv(w, trace.file, trace.memory_bits))
            edges, announced, users = parse_report(out)
            tally.check(code == 0, f"estimate exit {code}")
            tally.check(edges == trace.edges, f"estimate edges {edges} != {trace.edges}")
            rnd["busy"] = dt
            rec["rss"].append(rss)
            rec["rse"].append(top_rse(trace, users, announced, tally))
            with d.client_pinned(), span(spans, "queries"):
                rec["snapshot"].append(d.snapshot())
            share = QUERY_SHARE / (1 - QUERY_SHARE)
            query_phase(d, sample, trace.edges, rec, share * (time.perf_counter() - t_round), spans)
        d.shutdown(trace.edges)
    finally:
        d.kill()
    return rec


def run_serve(w, trace, seconds, tally, spans, min_rounds=MIN_ROUNDS):
    rec = new_record()
    sample = trace.sample_users(4096, 11)
    # Set-ups in one batch, before the first daemon with a full sketch runs.
    for _ in range(SETUPS_PER_RUN * MIN_ROUNDS):
        rec["setup_s"].append(serve_setup(w, trace, tally))
    deadline = time.perf_counter() + seconds
    while len(rec["rounds"]) < min_rounds or time.perf_counter() < deadline:
        serve_live_cycle(w, trace, tally, sample, rec, spans)
    return rec


def new_record():
    return {"setup_s": [], "rss": [], "rse": [], "rounds": [], "windows": [], "snapshot": []}


def new_round(rec):
    rnd = {"busy": None}
    rec["rounds"].append(rnd)
    return rnd


def new_window(rec):
    win = {"estimate": [], "topk": [], "stats": []}
    rec["windows"].append(win)
    return win


def lower_quartile(xs):
    s = sorted(xs)
    return s[(len(s) - 1) // 4]


def end_to_end(rec, trace, w, tally):
    """The run's end-to-end metrics from its rounds (program runs, or
    daemon lives) and its latency windows.

    Other tenants of a small shared host slow whole seconds of a run by up
    to 50%, which moved run medians by 15-20% between runs. An `estimate`
    run is a fixed amount of work that interference can only slow down, so
    the estimate workloads report the fastest run for edges_per_s. A
    daemon life under the query mix also varies with how its own threads
    meet, so serve-live reports the lower quartile over lives.

    Query latency moves between levels (11 and 17 us for ESTIMATE on one
    CPU) from one tenth of a second to the next, each level steady within
    it; a median or a minimum over a few rounds flipped between them from
    run to run. So each verb's latency is its median within a window
    (WINDOW_CYCLES cycles of the mix), and the metric is the LOW-th
    percentile of that over all windows of the run: the fast level
    whenever a run holds enough of it. SNAPSHOT, one per round or three
    per life, is the LOW-th percentile of its samples. setup_s is the
    median of all set-ups of the run."""
    pick = min if w["mode"] == "estimate" else lower_quartile
    rounds = [r for r in rec["rounds"] if r["busy"] is not None]
    setup = median(rec["setup_s"])
    busy = pick([r["busy"] for r in rounds])
    if w["mode"] == "estimate":
        busy -= setup  # from the program being ready to its report
    wins = rec["windows"]

    def low(key):
        return percentile([median(x[key]) for x in wins if x[key]], LOW)

    estimates = [t for x in wins for t in x["estimate"]]
    us = 1e6
    m = {
        "edges_per_s": trace.edges / max(busy, 1e-9),
        "setup_s": setup,
        "peak_rss_mb": median(rec["rss"]),
        "top_rse": median(rec["rse"]),
        "estimate_p50_us": low("estimate") * us,
        "estimate_p90_us": percentile(estimates, 90) * us,
        "estimate_p99_us": percentile(estimates, 99) * us,
        "topk_p50_us": low("topk") * us,
        "stats_p50_us": low("stats") * us,
        "snapshot_p50_ms": percentile(rec["snapshot"], LOW) * 1e3,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
    }
    samples = {"rounds": len(rounds), "setups": len(rec["setup_s"]), "windows": len(wins),
               "snapshot": len(rec["snapshot"])}
    for key in ("estimate", "topk", "stats"):
        samples[key] = sum(len(x[key]) for x in wins)
    series = {"busy_s": [r["busy"] for r in rounds], "setup_s": rec["setup_s"],
              "estimate_p50_us": [median(x["estimate"]) * us for x in wins if x["estimate"]]}
    return m, samples, series


# -------------------------------------------------------------- traced run


def run_layers(w, trace, seconds, spans_path):
    """Runs perfbench-layers on the workload's trace; its JSON metrics."""
    argv = [BIN["perfbench-layers"], "--trace", trace.file, "--method", w["method"],
            "--threads", str(w["threads"]), "--memory", str(trace.memory_bits),
            "--seed", str(SKETCH_SEED), "--top", str(TOP), "--seconds", str(seconds),
            "--spans", spans_path]
    dt, code, out, _ = run_program(argv)
    if code != 0:
        raise RuntimeError(f"perfbench-layers exit {code}")
    return json.loads(out.strip().splitlines()[-1])


def traced(w, trace, seconds, tally, spans, results_dir, tag):
    """Per-layer metrics: perfbench-layers plus one short end-to-end pass
    whose numbers the protocol-side layer metrics are differences of."""
    layers = run_layers(w, trace, max(1.0, 0.5 * seconds),
                        os.path.join(results_dir, f"spans-layers-{tag}.jsonl"))
    e2e_seconds = max(1.0, 0.4 * seconds)
    runner = run_serve if w["mode"] == "serve" else run_estimate
    rec = runner(w, trace, e2e_seconds, tally, spans, min_rounds=2)
    e2e, _, _ = end_to_end(rec, trace, w, tally)
    for ok, what in layers["checks"]:
        tally.check(ok, what)
    metrics = {name: (v["value"], v["unit"]) for name, v in layers["metrics"].items()}
    core_est_us = metrics["core.estimate_ns"][0] / 1e3
    metrics["cli.estimate_overhead_us"] = (e2e["estimate_p50_us"] - core_est_us, "us")
    metrics["cli.snapshot_gate_ms"] = (e2e["snapshot_p50_ms"] - metrics["core.snapshot_save_ms"][0],
                                       "ms")
    return metrics, e2e, layers.get("report", [])


# -------------------------------------------------------------------- main


def fmt(v):
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return str(v)
    return f"{v:.6g}"


def run_workload(name, seed, seconds, trace_mode, smoke):
    w = WORKLOADS[name]
    tally = Tally()
    host = host_context(name, seed, trace_mode, w)
    trace = trace_for(w["trace"], seed, smoke)
    os.makedirs(os.path.join(CACHE, "tmp"), exist_ok=True)
    results_dir = os.path.join(CACHE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace_mode}"
    spans = Spans(tag) if trace_mode else None
    print(f"# workload {name}  seed {seed}  traced {bool(trace_mode)}  trace "
          f"{trace.meta['profile']}/scale {trace.meta['scale']}: {trace.edges} edges, "
          f"{len(trace.users)} users, M = {trace.memory_bits} bits")
    print(f"# host nproc={host['nproc']} L2={host['l2']} L3={host['l3']} "
          f"commit={host['commit']}")
    if host["threads_exceed_nproc"]:
        print(f"# WARNING: {w['threads']} threads exceed nproc={host['nproc']}")

    if trace_mode:
        metrics, e2e, report = traced(w, trace, seconds, tally, spans, results_dir, tag)
        for line in report:
            print(f"# {line}")
        print("# end-to-end of the traced pass: " + "  ".join(
            f"{n}={fmt(e2e[n])}" for n, _ in END_TO_END))
        samples, series = {}, {}
    else:
        runner = run_serve if w["mode"] == "serve" else run_estimate
        rec = runner(w, trace, seconds, tally, None)
        e2e, samples, series = end_to_end(rec, trace, w, tally)
        metrics = {n: (e2e[n], u) for n, u in END_TO_END}
    if spans is not None:
        spans.close()
        spans.write(os.path.join(results_dir, f"spans-{tag}.jsonl"))
    if os.path.exists(snapshot_path()):
        os.remove(snapshot_path())

    failed_ratio = tally.failed / max(tally.attempted, 1)
    print(f"# samples {json.dumps(samples)}")
    for n, (v, u) in metrics.items():
        print(f"{n:<40} {fmt(v):>14} {u}")
    if not trace_mode:
        for n in ("estimate_p90_us", "estimate_p99_us"):
            print(f"{n:<40} {fmt(e2e[n]):>14} us  (not gated)")
    print(f"{'failed_ratio':<40} {fmt(failed_ratio):>14} ratio  "
          f"({tally.failed} of {tally.attempted} operations)")
    for r in tally.reasons:
        print(f"# failure: {r}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as f:
        json.dump({"host": host, "end_to_end": e2e, "samples": samples,
                   "failures": tally.reasons, **result, "rounds": series}, f, indent=1)
    return result


def smoke():
    """Tiny shapes of all four workloads, both modes; asserts the contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        for mode in (0, 1):
            res = run_workload(name, 1, 1, mode, smoke=True)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[mode]:
                ok = False
                log(f"smoke {name} trace={mode}: metrics/units differ: "
                    f"missing {sorted(set(want[mode]) - set(got))}, "
                    f"extra {sorted(set(got) - set(want[mode]))}, "
                    f"units {[(k, got[k], want[mode][k]) for k in got if k in want[mode] and got[k] != want[mode][k]]}")
            bad = [k for k, v in res["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or math.isnan(v["value"])]
            if bad or res["failed"] != 0 or not res["correct"]:
                ok = False
                log(f"smoke {name} trace={mode}: failed={res['failed']} non-numeric={bad}")
    print(json.dumps({"smoke": "pass" if ok else "FAIL"}))
    return 0 if ok else 1


BIN = {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        log("run from the root of a freesketch checkout (no Cargo.toml / crates/cli here)")
        return 2
    os.makedirs(CACHE, exist_ok=True)
    BIN.update(build(layers=args.smoke or args.trace == 1))
    if args.smoke:
        return smoke()
    res = run_workload(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
