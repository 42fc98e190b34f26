#!/usr/bin/env python3
"""End-to-end benchmark of parlap: cold solve, warm panels, served requests.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_rmat --seed 1 --seconds 20 --trace 0

It builds the library, the parlap_serve daemon and perfbench_inproc from
source into .bench_build/perfbench (perfbench/CMakeLists.txt), probes the
host once, runs the workload, checks every solution, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload's
measured work once untraced and once traced (same work), reports the
per-layer metrics plus the tracing overhead, and writes the benchmark's
spans as Chrome trace JSON under .bench_build/traces/. The line before the
result is {"metadata": {...}}: commit, host calibration and settings.
BENCHMARK.json names the metrics and their units; perfbench/README.md
defines every workload and metric.

Exit codes: 0 all checks passed; 1 a solve or check failed, or the
program under test crashed, hung or refused its work (the result line
still prints, with "correct": false); 2 the benchmark could not run
(no checkout, build failure, host probe failure).
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import socket
import subprocess
import sys
import time
from statistics import median

BUILD_DIR = os.path.join(".bench_build", "perfbench")
INPROC = os.path.join(BUILD_DIR, "perfbench_inproc")
SERVE = os.path.join(BUILD_DIR, "parlap_serve")
WORKLOADS = ("cold_rmat", "warm_mesh", "serve_mix")

EPS = 1e-8                   # perfbench_inproc solves to the same eps
THREADS = 4                  # OpenMP threads of the in-process workloads
# The graph and factorization of cold_rmat and warm_mesh, and the served
# hot set, are the same in every run: RMAT graphs and chains drawn from
# different seeds differ by up to a quarter in iterations and cost per
# iteration, more than any regression bound could absorb. The processes of
# one run repeat the same work, so their median is over like samples. The
# run seed draws the right-hand sides, the request stream and the misses.
GRAPH_SEED = 1               # generator and factorization seed
COLD_SPEC = "rmat:14"
COLD_MIN_PROCESSES = 3       # cold solves per run, each in a fresh process
COLD_WARM_SOLVES = 2         # warm re-solves per cold process
MESH_SPEC = "grid2d:256"
MESH_PROCESSES = 3
# Served hot set: small mesh, small-world and RMAT graphs (spec, seed).
HOT_SET = (("grid2d:32", 1), ("grid2d:24", 2), ("ws:1000,6", 3),
           ("ws:600,6", 4), ("rmat:10", 5), ("rmat:9", 6))
SERVE_RATE = 70.0            # open-loop arrivals per second
MISS_SHARE = 0.1             # requests naming a (graph, seed) never seen
# Daemons per run: each is spawned, warmed with the hot set (one setup_s
# sample) and serves an equal share of the stream; every latency figure
# pools all of them.
SERVE_DAEMONS = 10
# Latency limits of slo_ok_frac, per workload request kind (seconds).
SLO_LIMIT_S = {"cold_rmat": 60.0, "warm_mesh": 10.0, "serve_mix": 0.25}


class BenchError(Exception):
    """The benchmark itself could not run (exit code 2)."""


class ProgramFault(Exception):
    """The program under test crashed, hung, or refused its work: the run
    reports "correct": false and exits 1."""

    def __init__(self, msg, attempted=1, failed=1):
        super().__init__(msg)
        self.attempted, self.failed = attempted, failed


# Set once the build is done: a run's work must end within 170 s of it, so
# that a hung solver fails the run instead of outliving its time limit.
deadline = math.inf


def remaining(cap):
    """Seconds left before the run's deadline, at most `cap`."""
    left = deadline - time.perf_counter()
    if left <= 0:
        raise ProgramFault("the run overran its time limit")
    return min(cap, left)


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def pct(values, q):
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# ---------------------------------------------------------------------------
# Build, host probe, metadata
# ---------------------------------------------------------------------------
def build():
    for need in ("src/CMakeLists.txt", "tools/parlap_serve.cpp",
                 "bench/harness/json_writer.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(need):
            raise BenchError(f"{need} not found: run from a parlap checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed: {e}") from e
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def tree_hash():
    """Content hash of the sources the benchmark builds (the checkout is
    not necessarily a git repository)."""
    h = hashlib.sha256()
    roots = ["src", "perfbench", os.path.join("bench", "harness"),
             os.path.join("tools", "parlap_serve.cpp")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for d, _, names in os.walk(r):
            files.extend(os.path.join(d, n) for n in names)
    for f in sorted(files):
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(".git"):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def run_inproc(args):
    """Runs perfbench_inproc; returns (parsed JSON, wall seconds, exit code)."""
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    what = "perfbench_inproc " + " ".join(args)
    t0 = time.perf_counter()
    try:
        r = subprocess.run([INPROC] + args, capture_output=True, text=True,
                           timeout=remaining(170), env=env)
    except subprocess.TimeoutExpired as e:
        raise ProgramFault(f"{what} timed out") from e
    wall = time.perf_counter() - t0
    if r.stderr:
        sys.stderr.write(r.stderr)
    if r.returncode == 2:
        raise BenchError(f"{what}: usage error")
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        raise ProgramFault(f"{what} exited {r.returncode}")
    try:
        return json.loads(lines[-1]), wall, r.returncode
    except ValueError as e:
        raise ProgramFault(f"{what} printed no result") from e


def probe_host():
    try:
        out, _, code = run_inproc(["probe", "--threads", str(THREADS)])
    except ProgramFault as e:
        raise BenchError(f"host probe failed: {e}") from e
    if code != 0:
        raise BenchError("host probe failed")
    return out


# ---------------------------------------------------------------------------
# Results of one workload pass
# ---------------------------------------------------------------------------
class Pass:
    """What one pass over a workload's measured work produced."""

    def __init__(self):
        self.e2e = {}
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.repeat = {}      # deterministic counts for the exact-repeat check
        self.spans = []       # Chrome trace events
        self.wall = 0.0       # wall seconds of the measured work
        self.plan = None      # what a traced replay must redo
        self.meta = {}

    def fail(self, msg):
        self.failed += 1
        self.errors.append(msg)


def span(name, cat, t0, t1, pid=0, **args):
    return {"name": name, "cat": cat, "ph": "X", "ts": t0 * 1e6,
            "dur": (t1 - t0) * 1e6, "pid": pid, "tid": 0, "args": args}


def load_trace(path):
    try:
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
    except (OSError, ValueError, KeyError):
        return []
    return events


def chain_layers(out, host):
    """Per-layer metrics of one perfbench_inproc run with --layers."""
    info, lay = out["info"], out["layers"]
    n = out["graph"]["vertices"]
    stored_bytes = (info["stored_entries"] * info["index_bytes"]
                    + info["stored_value_bytes"])

    # Computed bytes of one apply, from array sizes (cache misses
    # ignored): the packed chain is streamed once down and once up the
    # chain, and every level vector is written and read once per column.
    # Jacobi re-sweeps of the F blocks are not counted, so this is a
    # lower bound on the traffic.
    def apply_bytes(cols):
        return 2 * stored_bytes + 2 * 8 * cols * lay["level_rows"]

    w = out["panel_width"]
    m = {f"build.{k}": v for k, v in out["build"].items()}
    m.update({
        "graph.vertices": n,
        "graph.edges": out["graph"]["edges"],
        "graph.gen_s": out["gen_s"],
        "build.levels": info["levels"],
        "build.split_edges": info["split_edges"],
        "build.stored_entries": info["stored_entries"],
        "build.stored_bytes": stored_bytes,
        "apply.bytes_computed": apply_bytes(1),
        "apply.ns_per_row_w1": lay["apply_w1_s"] * 1e9 / n,
        "apply.ns_per_row_w8": lay["apply_wk_s"] * 1e9 / (n * w),
        "apply.gbps_w1": apply_bytes(1) / lay["apply_w1_s"] / 1e9,
        "apply.gbps_w8": apply_bytes(w) / lay["apply_wk_s"] / 1e9,
        "apply.speedup_4t_w1": lay["apply_w1_1t_s"] / lay["apply_w1_s"],
        "apply.speedup_4t_w8": lay["apply_wk_1t_s"] / lay["apply_wk_s"],
        "op.ns_per_edge": lay["op_s"] * 1e9 / max(1, out["graph"]["edges"]),
        "richardson.iterations": out["first_iterations"],
    })
    m["apply.peak_frac_w8"] = m["apply.gbps_w8"] / host["triad_gbps"]
    if out["repeat_s"]:
        warm = median(out["repeat_s"])
        m["richardson.step_estimate_s"] = out["first_solve_s"] - warm
        m["richardson.apply_share"] = median(out["repeat_apply_s"]) / warm
    return m


def precisions(names):
    """The storage precisions the solver resolved, as one string."""
    return ",".join(sorted(set(names)))


def repeat_counts(out):
    """The deterministic counts of one perfbench_inproc run (exact-repeat check)."""
    return {"iterations": out["first_iterations"],
            "levels": out["info"]["levels"],
            "split_edges": out["info"]["split_edges"],
            "stored_entries": out["info"]["stored_entries"],
            "hash": out["first_hash"]}


def same_work(p, counts):
    """Every process of a run repeats the same work, so its deterministic
    counts must match the first process's exactly."""
    if not p.repeat:
        p.repeat = counts
    elif not same(p.repeat, counts):
        p.fail("processes of one run gave different results")


def check_inproc(p, out, code, what):
    p.attempted += out["checks"]["solves"]
    p.failed += out["checks"]["failed"]
    p.errors += [f"{what}: {e}" for e in out["checks"]["errors"]]
    if code != 0 and out["checks"]["failed"] == 0:
        p.fail(f"{what}: perfbench_inproc exited {code}")


# ---------------------------------------------------------------------------
# cold_rmat: fresh processes, each generating, factoring and solving
# ---------------------------------------------------------------------------
def run_cold(seed, seconds, traced, plan, host, trace_dir):
    p = Pass()
    outs, req_s = [], []
    t_phase = time.perf_counter()
    j = 0
    while True:
        if plan is not None:
            if j >= plan:
                break
        elif j >= COLD_MIN_PROCESSES and time.perf_counter() - t_phase >= seconds:
            break
        args = ["solve", "--spec", COLD_SPEC, "--seed", str(GRAPH_SEED),
                "--rhs-seed", str(seed), "--threads", str(THREADS),
                "--repeat-solves", str(COLD_WARM_SOLVES)]
        if traced:
            args += ["--trace-out", os.path.join(trace_dir, f"cold-{j}.json")]
        t0 = time.perf_counter()
        out, wall, code = run_inproc(args)
        t1 = time.perf_counter()
        check_inproc(p, out, code, f"cold solve {j}")
        outs.append(out)
        req_s.append(wall)
        same_work(p, repeat_counts(out))
        if traced:
            p.spans.append(span("cold.process", "workload", t0, t1, process=j))
            p.spans += [dict(e, pid=j + 1, ts=e["ts"] + t0 * 1e6)
                        for e in load_trace(os.path.join(trace_dir,
                                                         f"cold-{j}.json"))]
        j += 1
    p.wall = time.perf_counter() - t_phase
    p.plan = j

    warm = median([t for o in outs for t in o["repeat_s"]])
    limit = SLO_LIMIT_S["cold_rmat"]
    ok = sum(1 for o, w in zip(outs, req_s)
             if o["checks"]["failed"] == 0 and w <= limit)
    p.e2e = {
        "setup_s": median([o["factor_s"] for o in outs]),
        "cold_solve_s": median([o["cold_s"] for o in outs]),
        "warm_rhs_per_s": 1.0 / warm,
        "warm_solve_s_p50": warm,
        "req_ms_p50": median(req_s) * 1e3,
        "req_ms_p99": pct(req_s, 0.99) * 1e3,
        "slo_ok_frac": ok / len(outs),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
    }
    if traced:
        # The layer probe runs after the measured work.
        out, _, code = run_inproc(["solve", "--spec", COLD_SPEC, "--seed",
                                   str(GRAPH_SEED), "--rhs-seed", str(seed),
                                   "--threads", str(THREADS),
                                   "--repeat-solves", "1", "--layers"])
        check_inproc(p, out, code, "cold layer probe")
        p.layers = chain_layers(out, host)
        p.layers["richardson.step_estimate_s"] = median(
            [o["first_solve_s"] - o["repeat_s"][0] for o in outs])
    p.meta = {"processes": len(outs), "request_samples": len(req_s),
              "precision": precisions(o["info"]["precision"] for o in outs)}
    return p


# ---------------------------------------------------------------------------
# warm_mesh: fresh processes each factor the mesh once, warm it, then solve
# width-8 panels and width-1 right-hand sides
# ---------------------------------------------------------------------------
def run_warm(seed, seconds, traced, plan, host, trace_dir):
    p = Pass()
    outs, counts = [], []
    for j in range(MESH_PROCESSES):
        args = ["solve", "--spec", MESH_SPEC, "--seed", str(GRAPH_SEED),
                "--rhs-seed", str(seed), "--threads", str(THREADS)]
        if plan is None:
            share = seconds / (2 * MESH_PROCESSES)
            args += ["--panel-seconds", str(share), "--min-panels", "1",
                     "--single-seconds", str(share), "--min-singles", "2"]
        else:
            args += ["--min-panels", str(plan[j][0]),
                     "--min-singles", str(plan[j][1])]
        if traced:
            args += ["--trace-out", os.path.join(trace_dir, f"warm-{j}.json")]
        t0 = time.perf_counter()
        out, _, code = run_inproc(args)
        t1 = time.perf_counter()
        check_inproc(p, out, code, f"warm mesh process {j}")
        outs.append(out)
        counts.append((len(out["panel_s"]), len(out["single_s"])))
        same_work(p, dict(repeat_counts(out), rhs_hash=out["rhs_hash"]))
        if traced:
            p.spans.append(span("warm.process", "workload", t0, t1, process=j))
            p.spans += [dict(e, pid=j + 1, ts=e["ts"] + t0 * 1e6)
                        for e in load_trace(os.path.join(trace_dir,
                                                         f"warm-{j}.json"))]
    panels = [t for o in outs for t in o["panel_s"]]
    singles = [t for o in outs for t in o["single_s"]]
    p.wall = sum(panels) + sum(singles)
    p.plan = counts
    limit = SLO_LIMIT_S["warm_mesh"]
    calls = panels + singles
    p.e2e = {
        "setup_s": median([o["factor_s"] for o in outs]),
        "cold_solve_s": median([o["cold_s"] for o in outs]),
        "warm_rhs_per_s": outs[0]["panel_width"] / median(panels),
        "warm_solve_s_p50": median(singles),
        "req_ms_p50": median(singles) * 1e3,
        # A process makes a few width-1 calls, so its p99 is its slowest
        # one; the median over the processes keeps one host stall from
        # setting the run's tail.
        "req_ms_p99": median([pct(o["single_s"], 0.99) for o in outs]) * 1e3,
        "slo_ok_frac": (sum(1 for c in calls if c <= limit) / len(calls)
                        if p.failed == 0 else 0.0),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in outs]),
    }
    if traced:
        # The layer probe runs after the measured work.
        out, _, code = run_inproc(["solve", "--spec", MESH_SPEC, "--seed",
                                   str(GRAPH_SEED), "--rhs-seed", str(seed),
                                   "--threads", str(THREADS),
                                   "--repeat-solves", "1", "--layers"])
        check_inproc(p, out, code, "warm layer probe")
        p.layers = chain_layers(out, host)
    p.meta = {"processes": len(outs), "panels": len(panels),
              "singles": len(singles),
              "precision": precisions(o["info"]["precision"] for o in outs)}
    return p


# ---------------------------------------------------------------------------
# serve_mix: parlap_serve under an open-loop Poisson stream
# ---------------------------------------------------------------------------
class Daemon:
    """One parlap_serve process on a unix socket under .bench_build."""

    def __init__(self, sock_path, workers, budget):
        self.path = sock_path
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        cmd = [SERVE, "--socket", sock_path, "--workers", str(workers),
               "--cache-budget", str(budget), "--queue-limit", "4096"]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=sys.stderr)
        self.rusage = None

    def connect(self):
        until = time.perf_counter() + remaining(30.0)
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.path)
                return s
            except OSError:
                s.close()
                if self.proc.poll() is not None:
                    raise ProgramFault("parlap_serve exited at start-up")
                if time.perf_counter() > until:
                    raise ProgramFault("parlap_serve did not start listening")
                time.sleep(0.002)

    def request(self, obj):
        """One request/response exchange on a fresh connection."""
        with self.connect() as s:
            buf = b""
            try:
                s.sendall((json.dumps(obj) + "\n").encode())
                while b"\n" not in buf:
                    chunk = s.recv(1 << 16)
                    if not chunk:
                        break
                    buf += chunk
            except OSError as e:
                raise ProgramFault(f"parlap_serve connection failed: {e}") from e
            if b"\n" not in buf:
                raise ProgramFault("parlap_serve closed the connection")
        return parse_response(buf.split(b"\n", 1)[0])

    def stop(self):
        """Drains the daemon and waits for it; returns its exit code."""
        if self.proc.poll() is None:
            try:
                self.request({"type": "shutdown"})
            except (OSError, ProgramFault):
                self.proc.terminate()
        return self._reap()

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap()

    def _reap(self):
        """Waits for the daemon, keeping its resource usage (peak RSS)."""
        try:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            self.proc.wait()
        return self.proc.returncode


def parse_response(line):
    try:
        return json.loads(line)
    except ValueError as e:
        raise ProgramFault(f"parlap_serve sent malformed JSON: {line[:200]!r}") from e


class Client:
    """Open-loop client: sends each request at its due time over a few
    connections and matches responses by id."""

    def __init__(self, daemon, connections):
        self.sel = selectors.DefaultSelector()
        self.conns = []
        for _ in range(connections):
            s = daemon.connect()
            s.setblocking(False)
            self.sel.register(s, selectors.EVENT_READ, {"buf": b""})
            self.conns.append(s)

    def close(self):
        for s in self.conns:
            self.sel.unregister(s)
            s.close()
        self.sel.close()

    def run(self, schedule, deadline_s):
        """schedule: list of (due offset seconds, request dict). Returns
        the start time and {id: (due, sent, received, response)}, offsets
        from the start; unanswered ids are absent."""
        deadline_s = remaining(deadline_s)
        t0 = time.perf_counter()
        sent, done = {}, {}
        i = 0
        while len(done) < len(schedule):
            now = time.perf_counter() - t0
            if now > deadline_s:
                break
            while i < len(schedule) and schedule[i][0] <= now:
                due, req = schedule[i]
                s = self.conns[i % len(self.conns)]
                data = (json.dumps(req) + "\n").encode()
                s.setblocking(True)
                try:
                    s.sendall(data)
                except OSError as e:
                    raise ProgramFault(f"parlap_serve connection failed: {e}") from e
                s.setblocking(False)
                sent[req["id"]] = (due, time.perf_counter() - t0)
                i += 1
            wait = 0.05 if i >= len(schedule) else max(
                0.0, schedule[i][0] - (time.perf_counter() - t0))
            for key, _ in self.sel.select(min(wait, 0.05)):
                st = key.data
                try:
                    chunk = key.fileobj.recv(1 << 20)
                except BlockingIOError:
                    continue
                except OSError as e:
                    raise ProgramFault(f"parlap_serve connection failed: {e}") from e
                if not chunk:
                    raise ProgramFault("parlap_serve closed a client connection")
                st["buf"] += chunk
                *lines, st["buf"] = st["buf"].split(b"\n")
                got = time.perf_counter() - t0
                for line in lines:
                    if not line.strip():
                        continue
                    r = parse_response(line)
                    rid = r.get("id")
                    if rid in sent:
                        done[rid] = sent[rid] + (got, r)
        return t0, done


def hot_jobs():
    return [{"graph": spec, "seed": seed} for spec, seed in HOT_SET]


def serve_schedule(seed, seconds):
    """Seeded Poisson arrivals (conditioned on their count) over `seconds`.
    A random MISS_SHARE of them name a (graph, seed) pair never seen
    before, taking the hot-set families in turn, so every run has the same
    number of misses of each family and the latency tail they form keeps
    its make-up from seed to seed."""
    rng = random.Random(f"serve_mix/{seed}")
    count = max(1, round(SERVE_RATE * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    misses = set(rng.sample(range(count), round(MISS_SHARE * count)))
    hot = hot_jobs()
    schedule, missed = [], 0
    for i, due in enumerate(dues):
        if i in misses:
            spec = HOT_SET[missed % len(HOT_SET)][0]
            missed += 1
            job = {"graph": spec, "seed": seed * 100000 + 1000 + i}
            kind = "miss"
        else:
            job = dict(hot[rng.randrange(len(hot))])
            kind = "hit"
        job.update({"type": "solve", "id": f"{kind}-{i}", "eps": EPS})
        schedule.append((due, job))
    return schedule


def serve_workers():
    return max(1, min(3, (os.cpu_count() or 2) - 1))


def serve_connections():
    return max(1, min(4, os.cpu_count() or 1))


def hot_set_budget(traced, host):
    """The cache budget that holds the hot set plus two miss-sized
    entries, in the cache's fp64-equivalent entries; builds each hot graph
    in process to size it. The traced run also probes layers on the
    first hot graph."""
    costs, layers = [], {}
    for k, job in enumerate(hot_jobs()):
        probe = traced and k == 0
        args = ["solve", "--spec", job["graph"], "--seed", str(job["seed"]),
                "--rhs-seed", str(job["seed"]), "--threads",
                str(THREADS if probe else 1)]
        if probe:
            args += ["--repeat-solves", "1", "--layers"]
        out, _, code = run_inproc(args)
        if code != 0:
            raise ProgramFault(f"sizing {job['graph']} failed: "
                               f"{out['checks']['errors']}")
        costs.append(math.ceil(out["info"]["stored_value_bytes"] / 8))
        if probe:
            layers = chain_layers(out, host)
    return sum(costs) + 2 * max(costs), layers


def serve_segments(seed, seconds):
    """The run's stream cut into SERVE_DAEMONS equal time windows, each
    re-timed to start at 0."""
    width = seconds / SERVE_DAEMONS
    segments = [[] for _ in range(SERVE_DAEMONS)]
    for due, req in serve_schedule(seed, seconds):
        k = min(SERVE_DAEMONS - 1, int(due / width))
        segments[k].append((due - k * width, req))
    return segments


CACHE_COUNTERS = ("hits", "misses", "evictions", "single_flight_waits")


def serve_segment(sock, workers, conns, budget, segment):
    """Spawns a daemon, warms it with the hot set and serves one segment.
    Returns (setup seconds, peak RSS MiB, stream start, stream seconds,
    responses, cache counter deltas)."""
    warm = [(0.0, dict(j, type="solve", id=f"warm-{k}", eps=EPS))
            for k, j in enumerate(hot_jobs())]
    daemon = None
    try:
        t0 = time.perf_counter()
        daemon = Daemon(sock, workers, budget)
        client = Client(daemon, conns)
        _, got = client.run(warm, 120.0)
        setup = time.perf_counter() - t0
        for _, req in warm:
            r = got.get(req["id"], (0, 0, 0, {}))[3]
            if r.get("status") != "ok" or not r.get("converged"):
                raise ProgramFault(f"hot-set warm-up failed: {r}")
        before = daemon.request({"type": "stats"})["cache"]
        start, done = client.run(segment, segment[-1][0] + 60.0
                                 if segment else 0.0)
        wall = time.perf_counter() - start
        after = daemon.request({"type": "stats"})["cache"]
        client.close()
        code = daemon.stop()
        if code != 0 or daemon.rusage is None:
            raise ProgramFault(f"parlap_serve exited {code}")
        rss_mb = daemon.rusage.ru_maxrss / 1024.0
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
    deltas = {k: after[k] - before[k] for k in CACHE_COUNTERS}
    return setup, rss_mb, start, wall, done, deltas


def run_serve(seed, seconds, traced, plan, host, trace_dir):
    p = Pass()
    workers, conns = serve_workers(), serve_connections()
    budget, probe_layers = hot_set_budget(traced, host)
    sock = os.path.join(".bench_build", "run", f"serve-{os.getpid()}.sock")
    os.makedirs(os.path.dirname(sock), exist_ok=True)
    segments = plan if plan is not None else serve_segments(seed, seconds)
    p.plan = segments
    schedule = [(k, due, req) for k, seg in enumerate(segments)
                for due, req in seg]

    setups, rss, starts, done = [], [], [], {}
    cache = dict.fromkeys(CACHE_COUNTERS, 0)
    for segment in segments:
        setup, rss_mb, start, wall, got, deltas = serve_segment(
            sock, workers, conns, budget, segment)
        p.wall += wall
        setups.append(setup)
        rss.append(rss_mb)
        starts.append(start)
        done.update(got)
        for c in CACHE_COUNTERS:
            cache[c] += deltas[c]

    limit = SLO_LIMIT_S["serve_mix"]
    lat, lag, queue, solve, overhead = [], [], [], [], []
    hit_solve, miss_lat, miss_build, precision = [], [], [], set()
    slo_ok = hot_evicted = 0
    for k, due, req in schedule:
        p.attempted += 1
        rid = req["id"]
        if rid not in done:
            p.fail(f"{rid}: no response")
            continue
        _, sent_at, got_at, r = done[rid]
        latency = got_at - due
        lag.append(sent_at - due)
        residual = r.get("relative_residual", math.inf)
        if (r.get("status") != "ok" or not r.get("converged")
                or not residual <= EPS):
            p.fail(f"{rid}: status {r.get('status')} converged "
                   f"{r.get('converged')} residual {residual}")
            continue
        t = r["timings"]
        lat.append(latency)
        queue.append(t["queue_wait_ms"])
        solve.append(t["solve_ms"])
        overhead.append(latency * 1e3 - t["queue_wait_ms"] - t["build_ms"]
                        - t["solve_ms"])
        precision.add(r["precision"])
        if latency <= limit:
            slo_ok += 1
        if t["cache"] == "hit":
            hit_solve.append(t["solve_ms"] / 1e3)
        else:
            miss_build.append(t["build_ms"])
            if rid.startswith("miss-"):
                miss_lat.append(latency)
            else:
                hot_evicted += 1
        p.repeat[rid] = [r["iterations"], r["solution_hash"]]
        if traced:
            p.spans.append(span("serve.solve", "serve", starts[k] + due,
                                starts[k] + got_at, pid=k,
                                request_id=r["request_id"], id=rid,
                                cache=t["cache"]))
    if not lat:
        raise ProgramFault("no served request succeeded",
                           attempted=p.attempted, failed=p.failed)
    hit_p50 = median(hit_solve) if hit_solve else math.nan
    p.e2e = {
        "setup_s": median(setups),
        "cold_solve_s": median(miss_lat) if miss_lat else math.nan,
        "warm_rhs_per_s": 1.0 / hit_p50,
        "warm_solve_s_p50": hit_p50,
        "req_ms_p50": median(lat) * 1e3,
        "req_ms_p99": pct(lat, 0.99) * 1e3,
        "slo_ok_frac": slo_ok / len(schedule),
        "peak_rss_mb": median(rss),
    }
    if traced:
        lookups = cache["hits"] + cache["misses"]
        p.layers = dict(probe_layers)
        p.layers.update({
            "cache.hit_rate": cache["hits"] / max(1, lookups),
            "cache.miss_build_ms_p50": median(miss_build) if miss_build else 0.0,
            "cache.evictions": cache["evictions"],
            "cache.single_flight_waits": cache["single_flight_waits"],
            "serve.queue_wait_ms_p50": pct(queue, 0.5),
            "serve.queue_wait_ms_p99": pct(queue, 0.99),
            "serve.solve_ms_p50": pct(solve, 0.5),
            "serve.overhead_ms_p50": pct(overhead, 0.5),
            "load.lag_ms_p99": pct(lag, 0.99) * 1e3,
        })
    p.meta = {"daemon_workers": workers, "client_connections": conns,
              "daemons": len(segments), "cache_budget_entries": budget,
              "requests": len(schedule), "request_samples": len(lat),
              "p99_tail_samples": len(lat) - math.ceil(0.99 * len(lat)),
              "misses": len(miss_lat), "hot_set_misses": hot_evicted,
              "rate_per_s": SERVE_RATE, "slo_limit_ms": limit * 1e3,
              "precision": precisions(precision)}
    return p


RUNNERS = {"cold_rmat": run_cold, "warm_mesh": run_warm,
           "serve_mix": run_serve}


# ---------------------------------------------------------------------------
# Exact-repeat check and main
# ---------------------------------------------------------------------------
def check_repeat(workload, seed, seconds, tree, counts):
    """Deterministic counts must repeat exactly across runs of one seed and
    run length on one source tree. Returns the mismatching keys."""
    d = os.path.join(".bench_build", "repeat", tree)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{seed}-{seconds:g}.json")
    if os.path.isfile(path):
        with open(path) as fh:
            prev = json.load(fh)
        bad = [k for k in counts if k in prev and not same(prev[k], counts[k])]
        merged = dict(prev, **counts)
    else:
        bad, merged = [], counts
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(merged, fh)
    os.replace(tmp, path)
    return bad


def same(a, b):
    """Equal, comparing lists of hashes only over their common prefix
    (time-bound phases solve a varying number of right-hand sides)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return all(same(a[k], b[k]) for k in a if k in b)
    if isinstance(a, list) and isinstance(b, list) and a and isinstance(a[0], str):
        k = min(len(a), len(b))
        return a[:k] == b[:k]
    return a == b


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or not a.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    load_at_start = os.getloadavg()[0]
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        build()
        deadline = time.perf_counter() + 170.0
        tree = tree_hash()
        host = probe_host()
        trace_dir = os.path.join(".bench_build", "traces",
                                 f"{a.workload}-{a.seed}-{os.getpid()}")
        if a.trace:
            os.makedirs(trace_dir, exist_ok=True)
        runner = RUNNERS[a.workload]
        main_pass = runner(a.seed, a.seconds, False, None, host, trace_dir)
        traced = None
        if a.trace:
            traced = runner(a.seed, a.seconds, True, main_pass.plan, host,
                            trace_dir)
    except ProgramFault as e:
        log(f"FAILED {e}")
        units = layer_units if a.trace else e2e_units
        print(json.dumps({"correct": False, "attempted": max(1, e.attempted),
                          "failed": max(1, e.failed),
                          "metrics": {k: {"value": 0.0, "unit": u}
                                      for k, u in units.items()}}))
        return 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    passes = [main_pass] + ([traced] if traced else [])
    attempted = sum(x.attempted for x in passes)
    failed = sum(x.failed for x in passes)
    errors = [e for x in passes for e in x.errors]
    for x in passes[1:]:
        if not same(main_pass.repeat, x.repeat):
            failed += 1
            errors.append("traced pass did not repeat the untraced pass")
    bad = check_repeat(a.workload, a.seed, a.seconds, tree, main_pass.repeat)
    if bad:
        failed += 1
        errors.append("exact-repeat check failed for " + ", ".join(bad[:5]))
    for e in errors[:20]:
        log(f"FAILED {e}")

    if a.trace:
        # A layer the workload does not exercise reports 0.
        values = dict.fromkeys(layer_units, 0.0)
        values.update(traced.layers)
        values["trace.overhead_s"] = traced.wall - main_pass.wall
        units = layer_units
        trace_file = os.path.join(".bench_build", "traces",
                                  f"{a.workload}-{a.seed}.trace.json")
        with open(trace_file, "w") as fh:
            json.dump({"traceEvents": traced.spans}, fh)
        shutil.rmtree(trace_dir, ignore_errors=True)
    else:
        values, units = main_pass.e2e, e2e_units
        trace_file = None
    metrics = {}
    for k, u in units.items():
        v = values.get(k)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            failed += 1
            log(f"FAILED metric {k} is {v}")
            v = 0.0
        metrics[k] = {"value": v, "unit": u}

    meta = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "commit": git_commit(), "tree": tree,
        "nproc": os.cpu_count(), "omp_threads": THREADS,
        "daemon_workers": 0, "client_connections": 0,
        "simd": host["simd"], "simd_detected": host["simd_detected"],
        "compiler": host["compiler"],
        "hostname": host["hostname"], "numa_nodes": host["numa_nodes"],
        "llc_mb": host["llc_mb"],
        "host.triad_gbps": host["triad_gbps"],
        "host.triad_array_mb": host["triad_array_mb"],
        "host.scalar_ns": host["scalar_ns"],
        "loadavg_at_start": load_at_start,
        "failed_frac": failed / max(1, attempted),
        "trace_file": trace_file,
    }
    meta.update(main_pass.meta)
    print(json.dumps({"metadata": meta}))
    for k, v in metrics.items():
        log(f"{k:28s} {v['value']:.6g} {v['unit']}")
    log(f"failed_frac {meta['failed_frac']:.6g} ratio "
        f"({failed} of {attempted})")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
