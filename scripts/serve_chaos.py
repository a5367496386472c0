#!/usr/bin/env python3
"""Chaos test of the simulation service (eqserved) under deterministic
fault injection.

The daemon is started with --faults, which arms the serving layer's
seeded FaultInjector (torn response writes, dropped connections,
worker-side exceptions, forced program-build failures), and then
hammered by a retrying client. Three guarantees are asserted, per
seed, across several seeds:

  zero hangs     every socket carries a hard timeout; a recv that
                 blocks past it fails the run (the daemon must always
                 answer, drop the connection, or shed — never wedge);
  zero crashes   after a clean shutdown request the daemon process
                 must exit 0, every round, no matter what was injected;
  determinism    every request that eventually succeeds must byte-match
                 the fault-free reference (reports modulo wall_s, sweep
                 CSV exactly) — retries are safe because served results
                 are deterministic, which is the idempotence the whole
                 retry design rests on.

Failed requests must carry a structured error code from the taxonomy
(never free text), and the fault budget (max=N) guarantees the
injector eventually goes quiescent, so a bounded-retry client always
converges.  A dedicated round checks deadline_ms end-to-end: with
every request stalled past its deadline, the answer must be
deadline_exceeded.  Another runs the daemon under a 1 GiB address-space
limit: a request too large for it must answer resource_exhausted, and
the same connection must then get a valid report (skipped for
sanitized builds, whose shadow memory alone passes the limit).  Sweep recovery is driven through the C++ client
(`eqsweep <spec> --connect HOST:PORT --retries N`), which must deliver
the byte-identical merged table through the same fault storm; the
reference table is the in-process `eqsweep <spec>`.

Inherits EQ_SIM_BACKEND, so CI runs it once per backend.

Usage: serve_chaos.py [BUILD_DIR] [ROUNDS]   (default: build, 5)
"""

import json
import os
import resource
import socket
import subprocess
import sys
import tempfile
import time

SOCKET_TIMEOUT = 30  # seconds; hitting it means the daemon hung
RETRYABLE = {"backpressure", "build_failed", "internal"}
TAXONOMY = {"malformed_request", "frame_too_large", "bad_request",
            "backpressure", "deadline_exceeded", "cancelled",
            "build_failed", "internal", "shutting_down",
            "resource_exhausted"}

CONFIGS = [{"ah": 2, "aw": 2}, {"ah": 4, "aw": 4}, {"ah": 2, "aw": 8}]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class Transport(Exception):
    """Connection died mid-conversation (torn/dropped by a fault)."""


class Daemon:
    """eqserved on an ephemeral port; __exit__ asserts exit code 0."""

    def __init__(self, build_dir, workers, faults=None, limit_as=None):
        self.binary = os.path.join(build_dir, "src", "eqserved")
        self.argv = [self.binary, "--workers", str(workers),
                     "--cache-entries", "8"]
        if faults:
            self.argv += ["--faults", faults]
        self.limit_as = limit_as
        self.proc = None
        self.port = None

    def __enter__(self):
        fd, self.port_file = tempfile.mkstemp(prefix="eqserved-port-")
        os.close(fd)
        os.unlink(self.port_file)
        def limit():
            if self.limit_as:
                resource.setrlimit(resource.RLIMIT_AS,
                                   (self.limit_as, self.limit_as))
        self.proc = subprocess.Popen(
            self.argv + ["--port-file", self.port_file],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            preexec_fn=limit)
        deadline = time.time() + 20
        while time.time() < deadline:
            if os.path.exists(self.port_file):
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
                    return self
            if self.proc.poll() is not None:
                out = self.proc.stdout.read().decode()
                fail(f"eqserved exited early ({self.proc.returncode}):"
                     f" {out}")
            time.sleep(0.05)
        fail("eqserved did not write its port file in time")

    def __exit__(self, *exc):
        if any(exc):
            # A check already failed; don't mask it with shutdown
            # diagnostics — just reap the process.
            self.proc.kill()
            self.proc.wait()
            return False
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            fail("eqserved did not exit after shutdown (hang)")
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        if code != 0:
            out = self.proc.stdout.read().decode()
            fail(f"eqserved exited {code} (crash): {out}")
        return False


class Lines:
    """Newline-framed JSON with a hard timeout; raises Transport on a
    killed connection, fails the whole run on a hang."""

    def __init__(self, port):
        try:
            self.sock = socket.create_connection(
                ("127.0.0.1", port), timeout=SOCKET_TIMEOUT)
        except OSError as e:
            raise Transport(f"connect: {e}")
        self.buf = b""

    def request(self, obj):
        try:
            self.sock.sendall(json.dumps(obj).encode() + b"\n")
        except OSError as e:
            raise Transport(f"send: {e}")
        return self.next()

    def next(self):
        while b"\n" not in self.buf:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                fail("recv timed out: the daemon hung")
            except OSError as e:
                raise Transport(f"recv: {e}")
            if not chunk:
                raise Transport("connection closed mid-conversation")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            # A torn write is a fault, not a protocol bug: the frame is
            # half a line followed by EOF/close, never a full bad line.
            raise Transport(f"torn frame: {line[:80]!r}")

    def close(self):
        self.sock.close()


def without_wall(report):
    return {k: v for k, v in report.items() if k != "wall_s"}


def simulate_with_retry(port, config, deadline_ms=None, attempts=20):
    # attempts must exceed the round's fault budget (max=18): every
    # failed attempt is caused by at least one injected fault, so the
    # injector is quiescent before the attempts run out.
    """One logical simulate through the fault storm: (report, None) on
    success, (None, code) on a structured non-retryable refusal."""
    delay = 0.01
    last = "no attempt"
    for _ in range(attempts):
        req = {"op": "simulate", "id": 1, "model": "systolic",
               "config": config}
        if deadline_ms is not None:
            req["deadline_ms"] = deadline_ms
        try:
            conn = Lines(port)
            resp = conn.request(req)
            conn.close()
        except Transport as e:
            last = str(e)
            time.sleep(delay)
            delay = min(delay * 2, 0.2)
            continue
        if resp.get("ok"):
            return resp, None
        err = resp.get("error") or {}
        code = err.get("code")
        if code not in TAXONOMY:
            fail(f"error outside the taxonomy: {resp}")
        if code in RETRYABLE:
            last = code
            time.sleep(max(delay, err.get("retry_after_ms", 0) / 1000))
            delay = min(delay * 2, 0.2)
            continue
        return None, code
    fail(f"request did not converge in {attempts} attempts ({last})")


def request_shutdown(port):
    """Ask the daemon to stop. The ack itself may be torn or the
    connection refused once it is already stopping — both fine; the
    real assertion is the exit code in Daemon.__exit__."""
    try:
        conn = Lines(port)
        bye = conn.request({"op": "shutdown", "id": 99})
        conn.close()
        if not bye.get("ok"):
            code = (bye.get("error") or {}).get("code")
            if code != "shutting_down":
                fail(f"shutdown refused oddly: {bye}")
    except Transport:
        pass


def sweep_args():
    return ["--model", "systolic", "--axis", "ah=2,4",
            "--axis", "aw=2,4,8"]


def reference_phase(build_dir):
    """Fault-free reference: per-config reports and the local CSV."""
    eqsweep = os.path.join(build_dir, "src", "eqsweep")
    local_csv = subprocess.run([eqsweep] + sweep_args(),
                               check=True,
                               stdout=subprocess.PIPE).stdout
    if not local_csv:
        fail("local reference sweep produced no CSV")
    reports = {}
    with Daemon(build_dir, workers=2) as daemon:
        for config in CONFIGS:
            resp, code = simulate_with_retry(daemon.port, config)
            if code is not None:
                fail(f"fault-free simulate refused: {code}")
            reports[json.dumps(config)] = without_wall(resp["report"])
        request_shutdown(daemon.port)
    print("  reference phase ok")
    return reports, local_csv


def deadline_round(build_dir):
    """Every request stalls 80 ms; a 10 ms deadline must be exceeded,
    and the same request without a deadline must still succeed."""
    with Daemon(build_dir, workers=1,
                faults="stall=1,stall_ms=80") as daemon:
        resp, code = simulate_with_retry(daemon.port, CONFIGS[0],
                                         deadline_ms=10)
        if code != "deadline_exceeded":
            fail(f"expected deadline_exceeded, got {code or resp}")
        resp, code = simulate_with_retry(daemon.port, CONFIGS[0])
        if code is not None:
            fail(f"stalled-but-deadline-free simulate refused: {code}")
        request_shutdown(daemon.port)
    print("  deadline round ok (deadline_exceeded end-to-end)")


def sanitized(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            return "-fsanitize" in f.read()
    except OSError:
        return False


def memory_round(build_dir, reports):
    """Under a 1 GiB address-space limit a 200,000-batch pipeline runs
    out of memory: it must answer resource_exhausted, and the next
    request on the same connection must get the reference report."""
    if sanitized(build_dir):
        print("  memory round skipped (sanitized build)")
        return
    with Daemon(build_dir, workers=1, limit_as=1 << 30) as daemon:
        conn = Lines(daemon.port)
        resp = conn.request({"op": "simulate", "id": 1,
                             "model": "pipeline",
                             "config": {"batches": 200000}})
        code = (resp.get("error") or {}).get("code")
        if code != "resource_exhausted":
            fail(f"expected resource_exhausted, got {resp}")
        resp = conn.request({"op": "simulate", "id": 2,
                             "model": "systolic", "config": CONFIGS[0]})
        if not resp.get("ok") or without_wall(resp["report"]) != \
                reports[json.dumps(CONFIGS[0])]:
            fail(f"request after running out of memory: {resp}")
        conn.close()
        request_shutdown(daemon.port)
    print("  memory round ok (resource_exhausted, then a valid report)")


def chaos_round(build_dir, seed, reports, local_csv):
    spec = f"torn=0.12,drop=0.08,werr=0.25,build=0.25,max=18:{seed}"
    eqsweep = os.path.join(build_dir, "src", "eqsweep")
    with Daemon(build_dir, workers=2, faults=spec) as daemon:
        successes = 0
        for i in range(12):
            config = CONFIGS[i % len(CONFIGS)]
            resp, code = simulate_with_retry(daemon.port, config)
            if code is not None:
                fail(f"non-retryable refusal under chaos: {code}")
            if without_wall(resp["report"]) != \
                    reports[json.dumps(config)]:
                fail(f"seed {seed}: report differs from fault-free "
                     f"reference for {config}")
            successes += 1

        # Sweep recovery through the C++ client's retry/backoff: the
        # merged table must come out byte-identical to the local CSV
        # even though rows, connections, and builds keep failing.
        served = subprocess.run(
            [eqsweep, "--connect", f"127.0.0.1:{daemon.port}",
             "--retries", "20"] + sweep_args(),
            stdout=subprocess.PIPE, timeout=120)
        if served.returncode != 0:
            fail(f"seed {seed}: retrying sweep client exited "
                 f"{served.returncode}")
        if served.stdout != local_csv:
            fail(f"seed {seed}: recovered sweep differs from local CSV")

        stats, code = None, None
        try:
            conn = Lines(daemon.port)
            stats = conn.request({"op": "stats", "id": 7})
            conn.close()
        except Transport:
            pass  # stats reply itself may be torn; not the assertion
        injected = (stats or {}).get("faults", {}).get("injected", "?")
        request_shutdown(daemon.port)
    print(f"  seed {seed}: {successes} simulates byte-identical, "
          f"sweep recovered, {injected} faults injected, exit 0")


def main():
    build_dir = sys.argv[1] if len(sys.argv) > 1 else "build"
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    reports, local_csv = reference_phase(build_dir)
    deadline_round(build_dir)
    memory_round(build_dir, reports)
    for seed in range(1, rounds + 1):
        chaos_round(build_dir, seed, reports, local_csv)
    print(f"serve chaos: {rounds} seeded rounds passed "
          "(zero hangs, zero crashes, byte-identical results)")


if __name__ == "__main__":
    main()
