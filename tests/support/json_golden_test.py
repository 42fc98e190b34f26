#!/usr/bin/env python3
"""Golden schema test for every JSON surface parlap emits (ctest
`support.json_golden`).

Produces the documented JSON documents and lines from the real binaries
on the checked-in fixtures:

  cli-solve-v1.json   parlap_cli solve --json   (grid5x5.mtx, parlap)
  cli-info-v1.json    parlap_cli info --json    (grid5x5.mtx)
  cli-batch-v3.json   parlap_cli batch --json   (batch_jobs.jsonl, 1 worker)
  serve-lines.jsonl   parlap_serve result, error, pong and stats lines
  event-log.jsonl     parlap_serve --event-log lines
  metrics-v1.json     parlap_serve --metrics-out snapshot

then masks only the volatile values (wall times, timestamps, uptime,
host and build facts, thread counts, socket paths) and compares the
rest byte for byte with tests/data/json/: key order, literals,
escapes, number formatting, iterations, residuals and hashes.

Usage:
  json_golden_test.py <parlap_cli> <parlap_serve> <tests/data-dir>
                      [--record]

--record rewrites the golden files instead of comparing.
"""

import difflib
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MASK = '"~"'

# Keys whose scalar value depends on the clock, the host, the build or
# the checkout location rather than on the computation.
VOLATILE_KEYS = {
    "ts", "timestamp_utc", "hostname", "commit", "compiler", "build_type",
    "threads", "socket", "event_log", "simd_detected", "simd_active",
    "numa", "numa_policy", "numa_nodes", "solves_per_second",
}
# *_ms keys that echo configuration, not a measurement.
CONFIG_MS_KEYS = {"idle_timeout_ms", "retry_after_ms", "slow_ms"}
DIGEST_KEYS = {"value", "mean", "p50", "p95", "p99"}


def timing_key(key):
    if key == "window_seconds":
        return False
    if key.endswith("seconds"):
        return True
    return key.endswith("_ms") and key not in CONFIG_MS_KEYS


def is_volatile(key, frame):
    if key in VOLATILE_KEYS or timing_key(key):
        return True
    # Digest members of a timing object ({"solve_seconds":{"p50":...}})
    # and of a timing metric in a parlap-metrics-v1 snapshot.
    if key in DIGEST_KEYS:
        return timing_key(frame["key_in_parent"]) or frame["name"].endswith(
            "seconds")
    return False


def mask(text):
    """Returns `text` with every volatile scalar replaced by "~"; every
    other byte is kept as is."""
    out = []
    stack = []  # frames: {"kind", "key", "key_in_parent", "name", "want_key"}
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in "{[":
            parent_key = stack[-1]["key"] if stack and stack[-1]["kind"] == "{" else ""
            stack.append({"kind": c, "key": "", "key_in_parent": parent_key or "",
                          "name": "", "want_key": c == "{"})
            out.append(c)
            i += 1
        elif c in "}]":
            stack.pop()
            out.append(c)
            i += 1
        elif c == ",":
            if stack and stack[-1]["kind"] == "{":
                stack[-1]["want_key"] = True
            out.append(c)
            i += 1
        elif c == ":":
            stack[-1]["want_key"] = False
            out.append(c)
            i += 1
        elif c == '"':
            j = i + 1
            while text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            token = text[i:j + 1]
            i = j + 1
            frame = stack[-1] if stack else None
            if frame is not None and frame["kind"] == "{" and frame["want_key"]:
                frame["key"] = token[1:-1]
                out.append(token)
                continue
            if frame is not None and frame["kind"] == "{":
                if frame["key"] == "name":
                    frame["name"] = token[1:-1]
                if is_volatile(frame["key"], frame):
                    token = MASK
            out.append(token)
        elif c in " \t\r\n":
            out.append(c)
            i += 1
        else:
            j = i
            while j < n and text[j] not in ",}] \t\r\n":
                j += 1
            token = text[i:j]
            i = j
            frame = stack[-1] if stack else None
            if (frame is not None and frame["kind"] == "{"
                    and is_volatile(frame["key"], frame)):
                token = MASK
            out.append(token)
    return "".join(out)


def mask_lines(text):
    return "".join(mask(line) + "\n" for line in text.splitlines())


def run_cli(cli, data, tmp, *args):
    out = tmp / "out.json"
    p = subprocess.run([str(cli), *args, "--json", str(out)], cwd=data,
                       capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"parlap_cli {' '.join(args)} exited "
                           f"{p.returncode}: {p.stderr}")
    return out.read_text(encoding="utf-8")


class LineClient:
    def __init__(self, path, proc):
        deadline = time.monotonic() + 30.0
        while True:
            if proc.poll() is not None:
                raise RuntimeError("parlap_serve exited during start-up: "
                                   + proc.stderr.read())
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                break
            except OSError:
                sock.close()
                if time.monotonic() > deadline:
                    raise RuntimeError("parlap_serve never accepted")
                time.sleep(0.05)
        sock.settimeout(120.0)
        self.sock = sock
        self.buf = b""

    def request(self, line):
        self.sock.sendall(line + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError(f"connection closed after {line!r}")
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return reply.decode("ascii")


SERVE_REQUESTS = [
    b'{"type":"solve","id":"g1","graph":"grid2d:24,24","eps":1e-8,"seed":3}',
    b'{"type":"solve","id":"g2","graph":"grid2d:24,24","eps":1e-8,"seed":3,'
    b'"rhs":"random:1"}',
    b'{"type":"solve","id":"g3","graph":"grid2d:4","method":"no-such"}',
    b'{"type":',
    b'{"type":"bogus\xc3\xa9\x7f"}',
    b'{"type":"solve","id":"bad id!","graph":"grid2d:4"}',
    b'{"type":"ping"}',
    b'{"type":"stats"}',
]


def run_serve(serve, tmp):
    sock_path = str(tmp / "s")
    log_path = tmp / "events.jsonl"
    metrics_path = tmp / "metrics.json"
    proc = subprocess.Popen(
        [str(serve), "--socket", sock_path, "--workers", "1",
         "--cache-budget", "1000000", "--event-log", str(log_path),
         "--metrics-out", str(metrics_path)],
        stderr=subprocess.PIPE, text=True)
    try:
        client = LineClient(sock_path, proc)
        lines = [client.request(r) for r in SERVE_REQUESTS]
        client.request(b'{"type":"shutdown"}')
        rc = proc.wait(timeout=120)
        if rc != 0:
            raise RuntimeError(f"parlap_serve exited {rc}: "
                               + proc.stderr.read())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ("".join(line + "\n" for line in lines),
            log_path.read_text(encoding="utf-8"),
            metrics_path.read_text(encoding="utf-8"))


def main():
    args = [a for a in sys.argv[1:] if a != "--record"]
    record = "--record" in sys.argv[1:]
    if len(args) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, serve, data = (Path(a).resolve() for a in args)
    golden_dir = data / "json"

    with tempfile.TemporaryDirectory(prefix="plg_", dir="/tmp") as tmpdir:
        tmp = Path(tmpdir)
        serve_lines, events, metrics = run_serve(serve, tmp)
        produced = {
            "cli-solve-v1.json": mask_lines(run_cli(
                cli, data, tmp, "solve", "--input", "grid5x5.mtx",
                "--method", "parlap")),
            "cli-info-v1.json": mask_lines(run_cli(
                cli, data, tmp, "info", "--input", "grid5x5.mtx")),
            "cli-batch-v3.json": mask_lines(run_cli(
                cli, data, tmp, "batch", "--jobs", "batch_jobs.jsonl",
                "--workers", "1")),
            "serve-lines.jsonl": mask_lines(serve_lines),
            "event-log.jsonl": mask_lines(events),
            "metrics-v1.json": mask_lines(metrics),
        }

    failures = 0
    for name, text in produced.items():
        path = golden_dir / name
        if record:
            golden_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"recorded {path}")
            continue
        want = path.read_text(encoding="utf-8") if path.exists() else ""
        if text == want:
            print(f"ok   {name}")
            continue
        failures += 1
        print(f"FAIL {name}: differs from {path}")
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), text.splitlines(keepends=True),
            "golden", "produced"))
    if failures:
        print(f"\n{failures} golden file(s) differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
