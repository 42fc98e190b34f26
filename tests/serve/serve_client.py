"""Client library for the parlap_serve black-box suites.

Speaks the newline-delimited JSON protocol of docs/SERVING.md over a
unix-domain or loopback TCP socket, and manages daemon lifecycles for
tests: spawn, wait-until-accepting, SIGTERM, wait-with-timeout.

No third-party dependencies — stdlib only, so the suites run wherever
ctest finds a python3.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


def reject_constant(name):
    """json parse_constant hook: the daemon must never emit NaN or
    Infinity (JSON has neither; non-finite numbers go out as null)."""
    raise ValueError("non-standard JSON constant %s" % name)


def loads_strict(text):
    """json.loads that rejects NaN/Infinity instead of accepting them."""
    return json.loads(text, parse_constant=reject_constant)


class ServeClient:
    """One connection to a running daemon."""

    def __init__(self, target, timeout=60.0):
        """target: unix socket path (str) or ("127.0.0.1", port) tuple."""
        if isinstance(target, str):
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(target)
        self._buf = b""

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def send(self, obj):
        """Send one request object (no response read)."""
        self.raw_send(json.dumps(obj).encode() + b"\n")

    def raw_send(self, data):
        """Send raw bytes — fault-injection hook (truncated/garbage lines)."""
        self.sock.sendall(data)

    def recv(self, timeout=60.0):
        """Next response line as a dict; None on EOF, raises on timeout."""
        self.sock.settimeout(timeout)
        while b"\n" not in self._buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return loads_strict(line)

    def recv_eof(self, timeout=30.0):
        """True if the server closes the connection without another line."""
        try:
            return self.recv(timeout) is None
        except socket.timeout:
            return False

    def request(self, obj, timeout=60.0):
        """send + recv. Only valid when no other responses are pending."""
        self.send(obj)
        return self.recv(timeout)


class ServeDaemon:
    """Context manager spawning a parlap_serve process for one test."""

    def __init__(self, binary, workers=2, extra_args=(), socket_dir=None):
        self.binary = binary
        # Socket paths must fit sockaddr_un; keep them short and unique.
        self._dir = tempfile.mkdtemp(prefix="pls_", dir=socket_dir or "/tmp")
        self.socket_path = os.path.join(self._dir, "s")
        self.args = [
            binary,
            "--socket", self.socket_path,
            "--workers", str(workers),
            "--cache-budget", "1000000",
        ] + list(extra_args)
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            self.args, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited during startup (rc=%d): %s"
                    % (self.proc.returncode, self.proc.stderr.read()))
            try:
                ServeClient(self.socket_path, timeout=1.0).close()
                return self
            except OSError:
                time.sleep(0.05)
        raise RuntimeError("daemon never started accepting connections")

    def __exit__(self, *exc):
        if self.proc and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        try:
            os.rmdir(self._dir)
        except OSError:
            pass

    def connect(self, timeout=60.0):
        return ServeClient(self.socket_path, timeout=timeout)

    def stats(self):
        with self.connect() as c:
            return c.request({"type": "stats"})

    def sigterm(self):
        self.proc.send_signal(signal.SIGTERM)

    def wait(self, timeout=120.0):
        """Waits for exit; returns the return code."""
        return self.proc.wait(timeout=timeout)


class Checker:
    """Accumulates named pass/fail checks; exit(1) if any failed."""

    def __init__(self):
        self.failures = []
        self.passed = 0

    def check(self, cond, what):
        if cond:
            self.passed += 1
        else:
            self.failures.append(what)
            print("FAIL: %s" % what, file=sys.stderr)
        return cond

    def finish(self, name):
        if self.failures:
            print("%s: %d check(s) FAILED, %d passed"
                  % (name, len(self.failures), self.passed), file=sys.stderr)
            sys.exit(1)
        print("%s: all %d checks passed" % (name, self.passed))
        sys.exit(0)


def slow_job(job_id, seed, n=48, eps=1e-10):
    """A solve request distinct per seed (cache miss) and slow enough to
    keep workers busy while a test floods the queue."""
    return {
        "type": "solve",
        "id": job_id,
        "graph": "grid2d:%d,%d" % (n, n),
        "method": "parlap",
        "eps": eps,
        "seed": seed,
        "weights": "uniform:1,%d" % (2 + seed % 7),
    }


def fast_job(job_id, seed=7, n=12, eps=1e-6):
    """A small cache-friendly solve request."""
    return {
        "type": "solve",
        "id": job_id,
        "graph": "grid2d:%d,%d" % (n, n),
        "method": "parlap",
        "eps": eps,
        "seed": seed,
    }
