#!/usr/bin/env python3
"""End-to-end smoke test of the simulation service (eqserved).

Starts the daemon on an ephemeral port (via --port-file), then drives
the NDJSON protocol over a raw socket with no client-library help:

  1. simulate twice — the first answer must be cold ("cached": false),
     the second warm, and both reports identical apart from wall_s;
  2. malformed and unknown requests — answered with "ok": false on a
     connection that stays usable;
  3. stats — cache counters must show the cross-request reuse, and
     server.backend must name the backend the entries run: the one
     EQ_SIM_BACKEND selects, "compiled" when it is unset;
  4. out-of-range configs (zero stages, an ah past int range, no
     accelerators) — each answered bad_request naming the field, and
     a valid simulate on the same connection still succeeds;
  5. a served sweep — `eqsweep <spec> --connect HOST:PORT` re-merges
     the streamed rows by their dense point index, and its CSV must
     byte-match the in-process `eqsweep <spec>`, at every daemon
     worker count tried (1 and 3);
  6. shutdown — acknowledged with "bye", after which the daemon
     process must exit 0 by itself;
  7. closed connections release their fds — a daemon started with
     RLIMIT_NOFILE 64 must answer 200 sequential connections;
  8. numeric flags are strict — a --workers value past unsigned
     range (or with trailing junk) is a usage error (exit 2), never a
     silently wrapped worker count;
  9. failures are structured — a bad --port prints one
     `eqserved: error: {"code":"usage",...}` line naming the flag.

Inherits EQ_SIM_BACKEND, so CI runs it once per backend and the
byte-identical guarantee is checked on both.

Usage: serve_smoke.py [BUILD_DIR]   (default: build)
"""

import json
import os
import resource
import socket
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class Daemon:
    """eqserved on an ephemeral port, shut down on context exit."""

    def __init__(self, build_dir, workers, preexec_fn=None):
        self.binary = os.path.join(build_dir, "src", "eqserved")
        self.workers = workers
        self.preexec_fn = preexec_fn
        self.proc = None
        self.port = None

    def __enter__(self):
        fd, self.port_file = tempfile.mkstemp(prefix="eqserved-port-")
        os.close(fd)
        os.unlink(self.port_file)
        self.proc = subprocess.Popen(
            [self.binary, "--port-file", self.port_file,
             "--workers", str(self.workers), "--cache-entries", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            preexec_fn=self.preexec_fn)
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
                fail(f"eqserved exited early ({self.proc.returncode}): "
                     f"{out}")
            time.sleep(0.05)
        fail("eqserved did not write its port file in time")

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.terminate()
        code = self.proc.wait(timeout=20)
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        if not any(exc) and code != 0:
            fail(f"eqserved exited {code}")
        return False


class Lines:
    """Newline-framed JSON over a client socket."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=30)
        self.buf = b""

    def request(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")
        return self.next()

    def next(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                fail("server closed the connection mid-conversation")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


def without_wall(report):
    return {k: v for k, v in report.items() if k != "wall_s"}


def check_simulate_and_stats(port):
    conn = Lines(port)
    req = {"op": "simulate", "id": 1, "model": "systolic",
           "config": {"ah": 4, "aw": 4}}
    cold = conn.request(req)
    if not cold.get("ok") or cold.get("cached") is not False:
        fail(f"cold simulate wrong: {cold}")
    if cold["report"]["cycles"] <= 0:
        fail(f"implausible report: {cold}")

    warm = conn.request(dict(req, id=2))
    if not warm.get("ok") or warm.get("cached") is not True:
        fail(f"warm simulate wrong: {warm}")
    if without_wall(warm["report"]) != without_wall(cold["report"]):
        fail("warm report differs from cold report")

    # Protocol errors answer with the structured taxonomy and keep the
    # connection alive.
    bad = conn.request({"op": "simulate", "model": "systolic",
                        "config": {"ahh": 4}})
    bad_err = bad.get("error") or {}
    if bad.get("ok") or bad_err.get("code") != "bad_request" \
            or "ahh" not in bad_err.get("message", ""):
        fail(f"typo config not rejected: {bad}")
    unknown = conn.request({"op": "frobnicate", "id": 9})
    unknown_err = unknown.get("error") or {}
    if unknown.get("ok") or unknown.get("id") != 9 \
            or unknown_err.get("code") != "bad_request":
        fail(f"unknown op mishandled: {unknown}")

    stats = conn.request({"op": "stats", "id": 3})
    cache = stats.get("cache", {})
    if cache.get("misses") != 1 or cache.get("hits") != 1 \
            or cache.get("runs") != 2:
        fail(f"stats counters wrong: {stats}")
    backend = os.environ.get("EQ_SIM_BACKEND") or "compiled"
    if stats.get("server", {}).get("backend") != backend:
        fail(f"stats backend is not {backend!r}: {stats}")
    conn.close()
    print(f"  simulate/stats ok (port {port})")


def check_out_of_range(port):
    conn = Lines(port)
    for model, config, field in (("pipeline", {"stages": 0}, "stages"),
                                 ("systolic", {"ah": 4294967298}, "ah"),
                                 ("soc", {"accels": []}, "accels")):
        resp = conn.request({"op": "simulate", "model": model,
                             "config": config})
        err = resp.get("error") or {}
        if resp.get("ok") or err.get("code") != "bad_request" \
                or field not in err.get("message", ""):
            fail(f"out-of-range {model} {config} not rejected: {resp}")
    good = conn.request({"op": "simulate", "id": 4, "model": "pipeline"})
    if not good.get("ok") or good["report"]["cycles"] <= 0:
        fail(f"simulate after rejected configs failed: {good}")
    conn.close()
    print(f"  out-of-range configs rejected (port {port})")


def sweep_args():
    return ["--model", "systolic", "--axis", "ah=2,4",
            "--axis", "aw=2,4,8"]


def check_sweep_matches_local(build_dir, port, local_csv):
    eqsweep = os.path.join(build_dir, "src", "eqsweep")
    served = subprocess.run(
        [eqsweep, "--connect", f"127.0.0.1:{port}"] + sweep_args(),
        check=True, stdout=subprocess.PIPE).stdout
    if served != local_csv:
        sys.stderr.write("--- served ---\n" + served.decode())
        sys.stderr.write("--- local ---\n" + local_csv.decode())
        fail("served sweep differs from in-process SweepRunner CSV")
    print(f"  sweep byte-identical to local (port {port})")


def check_shutdown(port):
    conn = Lines(port)
    bye = conn.request({"op": "shutdown", "id": 99})
    if not bye.get("ok") or bye.get("type") != "bye":
        fail(f"shutdown not acknowledged: {bye}")
    conn.close()


def check_fd_limit(build_dir):
    """A closed connection frees its socket and reader at once, and
    the accept loop outlives EMFILE: with RLIMIT_NOFILE 64, far fewer
    fds than connections, every one of 200 sequential connections is
    answered."""
    def limit_fds():
        _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))

    with Daemon(build_dir, 1, preexec_fn=limit_fds) as daemon:
        for i in range(200):
            try:
                conn = Lines(daemon.port)
                stats = conn.request({"op": "stats", "id": i})
                conn.close()
            except OSError as e:
                fail(f"connection {i} under RLIMIT_NOFILE 64 not "
                     f"answered: {e}")
            if not stats.get("ok"):
                fail(f"connection {i}: stats refused: {stats}")
        check_shutdown(daemon.port)
    print("  200 sequential connections answered under "
          "RLIMIT_NOFILE 64")


def check_strict_flags(build_dir):
    binary = os.path.join(build_dir, "src", "eqserved")
    for flag, value in (("--workers", "4294967297"), ("--workers", "2x"),
                        ("--cache-entries", "99999999999999999999")):
        try:
            proc = subprocess.run([binary, flag, value],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=10)
        except subprocess.TimeoutExpired:
            fail(f"eqserved {flag} {value} started serving instead of "
                 f"exiting 2 (usage)")
        if proc.returncode != 2:
            fail(f"eqserved {flag} {value} exited {proc.returncode}, "
                 f"want 2 (usage): {proc.stdout.decode()}")


def check_structured_failure(build_dir):
    binary = os.path.join(build_dir, "src", "eqserved")
    proc = subprocess.run([binary, "--port", "99999999"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=10)
    line = proc.stderr.decode().strip()
    prefix = "eqserved: error: "
    if proc.returncode != 2 or not line.startswith(prefix):
        fail(f"bad --port: exit {proc.returncode}, stderr {line!r}; want "
             f"exit 2 and one structured error line")
    err = json.loads(line[len(prefix):])
    if err.get("code") != "usage" or "--port" not in err.get("message", ""):
        fail(f"bad --port error names the wrong code or flag: {err}")
    print("  bad --port answered with a structured usage error")


def main():
    build_dir = sys.argv[1] if len(sys.argv) > 1 else "build"
    eqsweep = os.path.join(build_dir, "src", "eqsweep")
    local_csv = subprocess.run(
        [eqsweep] + sweep_args(),
        check=True, stdout=subprocess.PIPE).stdout
    if not local_csv:
        fail("local reference sweep produced no CSV")

    for workers in (1, 3):
        with Daemon(build_dir, workers) as daemon:
            if workers == 1:
                check_simulate_and_stats(daemon.port)
                check_out_of_range(daemon.port)
            check_sweep_matches_local(build_dir, daemon.port,
                                      local_csv)
            check_shutdown(daemon.port)
    check_fd_limit(build_dir)
    check_strict_flags(build_dir)
    check_structured_failure(build_dir)
    print("serve smoke: all checks passed")


if __name__ == "__main__":
    main()
