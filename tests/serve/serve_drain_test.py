"""Graceful-drain + trace suite for parlap_serve.

argv: <parlap_serve binary> <scripts dir>

SIGTERM mid-burst must behave like a polite landlord: every job already
admitted (queued or in flight) finishes and its result line is flushed,
NEW solve requests are rejected with a structured response, and the
process exits 0. The daemon's --trace-out file must then pass
scripts/check_trace.py with the serve.* span categories present and a
request_id on every serve-cat span (the drain span excepted), and its
--metrics-out snapshot must be a parseable JSON registry dump whose
counts reconcile with the burst.
"""

import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from serve_client import Checker, ServeDaemon, fast_job, loads_strict, slow_job


def test_sigterm_mid_burst(c, binary, trace_path, metrics_path):
    with ServeDaemon(binary, workers=2,
                     extra_args=["--trace-out", trace_path,
                                 "--metrics-out", metrics_path]) as d:
        with d.connect() as cl:
            n = 8
            for i in range(n):
                # Distinct seeds/weights -> eight separate factorizations:
                # the burst outlives the drain handshake by a wide margin.
                cl.send(slow_job("burst%d" % i, seed=i, n=64))
            # Let the daemon admit the burst, then pull the plug.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if d.stats()["counters"]["admitted"] >= n:
                    break
                time.sleep(0.02)
            d.sigterm()
            # Drain starts by closing the listeners: poll until a fresh
            # connect is refused, so the probe below deterministically
            # lands on a draining server.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    d.connect(timeout=1.0).close()
                    time.sleep(0.01)
                except OSError:
                    break

            # New work is rejected while the burst drains...
            cl.send(fast_job("late"))
            # ...and every admitted job still completes.
            got = {}
            for _ in range(n + 1):
                r = cl.recv(timeout=300.0)
                got[r["id"]] = r
            burst_ok = ["burst%d" % i for i in range(n)
                        if got.get("burst%d" % i, {}).get("status") == "ok"]
            c.check(len(burst_ok) == n,
                    "all %d in-flight/queued jobs completed through the "
                    "drain (got %d)" % (n, len(burst_ok)))
            c.check(got.get("late", {}).get("status") == "rejected",
                    "post-SIGTERM solve rejected: %r" % got.get("late"))
            c.check(cl.recv_eof(timeout=60.0),
                    "server closed the connection after flushing")
        rc = d.wait(timeout=120.0)
        c.check(rc == 0, "daemon exited 0 after graceful drain (rc=%s)" % rc)


def test_shutdown_request(c, binary):
    """The in-band {"type":"shutdown"} request drains the same way."""
    with ServeDaemon(binary, workers=1) as d:
        with d.connect() as cl:
            cl.send(fast_job("pre"))
            cl.send({"type": "shutdown"})
            got = [cl.recv(timeout=120.0) for _ in range(2)]
            by_type = {r["type"]: r for r in got}
            c.check(by_type.get("result", {}).get("status") == "ok",
                    "job admitted before shutdown completed")
            c.check(by_type.get("shutdown", {}).get("status") == "ok",
                    "shutdown request acknowledged")
        rc = d.wait(timeout=120.0)
        c.check(rc == 0, "daemon exited 0 after shutdown request (rc=%s)" % rc)


def test_trace_file(c, trace_path, scripts_dir):
    c.check(os.path.exists(trace_path), "daemon wrote the trace file")
    check = subprocess.run(
        [sys.executable, os.path.join(scripts_dir, "check_trace.py"),
         trace_path, "--require-cats", "serve", "--min-events", "8",
         "--require-request-ids", "serve"],
        capture_output=True, text=True)
    c.check(check.returncode == 0,
            "check_trace.py accepts the serve trace (request ids on "
            "every serve span): %s%s" % (check.stdout, check.stderr))
    with open(trace_path) as f:
        blob = f.read()
    for span in ("serve.request", "serve.solve", "serve.drain"):
        c.check(span in blob, "trace contains %s spans" % span)


def test_metrics_snapshot(c, metrics_path, n_burst):
    """The post-drain --metrics-out snapshot is quiescent and exact."""
    c.check(os.path.exists(metrics_path), "daemon wrote the metrics file")
    try:
        with open(metrics_path) as f:
            doc = loads_strict(f.read())
    except (OSError, ValueError) as e:
        c.check(False, "metrics snapshot parses as JSON: %s" % e)
        return
    c.check(doc.get("schema") == "parlap-metrics-v1",
            "snapshot schema tag: %r" % doc.get("schema"))
    by_name = {m["name"]: m for m in doc.get("metrics", [])}
    completed = by_name.get("parlap.serve.completed", {})
    c.check(completed.get("value") == n_burst,
            "snapshot completed (%r) == %d admitted burst jobs"
            % (completed.get("value"), n_burst))
    solve = by_name.get("parlap.serve.solve_seconds", {})
    c.check(solve.get("kind") == "histogram"
            and solve.get("count") == n_burst and solve.get("p99", 0) > 0,
            "snapshot solve histogram counts the burst: %r" % solve)
    c.check(by_name.get("parlap.serve.rejected", {}).get("value") == 1,
            "snapshot counts the one post-SIGTERM rejection")


def main():
    binary, scripts_dir = sys.argv[1], sys.argv[2]
    c = Checker()
    with tempfile.TemporaryDirectory(prefix="pls_drain_") as tmp:
        trace_path = os.path.join(tmp, "serve_trace.json")
        metrics_path = os.path.join(tmp, "serve_metrics.json")
        test_sigterm_mid_burst(c, binary, trace_path, metrics_path)
        test_trace_file(c, trace_path, scripts_dir)
        test_metrics_snapshot(c, metrics_path, n_burst=8)
    test_shutdown_request(c, binary)
    c.finish("serve_drain_test")


if __name__ == "__main__":
    main()
