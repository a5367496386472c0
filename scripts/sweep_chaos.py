#!/usr/bin/env python3
"""Chaos test of crash-safe sweeps: SIGKILL a journaled eqsweep
mid-run, corrupt journal tails and result caches, and resume a journal
under another sweep — then assert the sweep still converges to the
byte-identical fault-free answer.

Four rounds, each against a reference CSV from one undisturbed
eqsweep run without a journal, then the failure exits:

  kill-rerun          one `eqsweep --threads 3 --journal J` is
                      SIGKILLed at seeded moments (after a seeded
                      number of newly journaled points, several kills
                      per round) and the same command is rerun until it
                      exits 0; each rerun replays what the journal kept
                      from before the kill, and the final CSV must
                      equal the reference byte for byte — a
                      killed-and-rerun sweep is indistinguishable from
                      an undisturbed one;
  corrupted tail      a completed journal gets its final record torn
                      (truncated mid-record) or bit-flipped; the rerun
                      must truncate the bad tail, recompute only the
                      lost points (visible in its "# resume:" stats),
                      and still print the reference CSV;
  header mismatch     a journal is resumed under a spec with another
                      axis or with --backend flipped; each must refuse
                      with exit 3 and a structured
                      {"code":"journal_header_mismatch"} error line,
                      and a refused run leaves the journal
                      byte-identical — there is no fresh-journal mode
                      that could overwrite it, and nothing is ever
                      journaled under another identity;
  damaged cache       a --cache file filled by a whole-grid run gets a
                      torn tail, a bit flip mid-file, or a header
                      naming the other backend; the cache discards
                      rather than refuses, so every re-run must exit 0,
                      emit the reference CSV, and replay exactly the
                      rows that survived (its "cache=" count);
  failure exits       the removed --shard and --merge flags exit 2
                      (usage), and --connect to a closed port exits 1
                      (io_error).

The byte-identity assertions all lean on the determinism guarantee:
results do not depend on worker count, kill timing, or how many times
a point was recomputed — which is exactly what makes kill-and-rerun
sound.

Inherits EQ_SIM_BACKEND, so CI runs it once per backend (every
journal's header pins the resolved backend, and a rerun under another
one is refused).

Usage: sweep_chaos.py [BUILD_DIR] [ROUNDS]   (default: build, 3)
"""

import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

# eqsweep's exit codes (the failure table, src/base/failure.hh).
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_HEADER_MISMATCH = 3

# 72 points: long enough on either backend for kills to land mid-run.
SPEC_ARGS = ["--model", "systolic", "--axis", "ah=2,4,8",
             "--axis", "aw=2,4,8", "--axis", "n=1,2,4,8,16,32,64,128"]
NUM_POINTS = 72


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def log(msg):
    print(f"  {msg}", file=sys.stderr)


def reference_csv(eqsweep):
    """The fault-free single-process answer every round must match."""
    proc = subprocess.run([eqsweep] + SPEC_ARGS,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)
    if proc.returncode != 0:
        fail(f"reference sweep exited {proc.returncode}: "
             f"{proc.stderr.decode()}")
    if not proc.stdout:
        fail("reference sweep produced no CSV")
    return proc.stdout


def journal_records(path):
    """Records in a journal: every line after the header. A record is
    one O_APPEND write, so growth is progress."""
    try:
        with open(path, "rb") as f:
            return max(0, f.read().count(b"\n") - 1)
    except OSError:
        return 0


def journaled_argv(eqsweep, journal):
    """The journaled sweep command every round reruns."""
    return [eqsweep] + SPEC_ARGS + ["--threads", "3", "--journal", journal]


def run_journaled(eqsweep, journal):
    """The journaled sweep command, run to completion."""
    return subprocess.run(journaled_argv(eqsweep, journal),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)


def kill_rerun_round(eqsweep, seed, kills=3):
    """SIGKILL one journaled eqsweep after a seeded number of newly
    journaled points, up to @kills times, rerunning the same command
    until it exits 0; its CSV must be the reference."""
    rng = random.Random(seed)
    work_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-kill-")
    journal = os.path.join(work_dir, "journal.ndjson")
    killed = launches = 0
    try:
        while True:
            launches += 1
            before = journal_records(journal)
            target = before + rng.randint(
                1, max(1, (NUM_POINTS - before) // 2))
            proc = subprocess.Popen(journaled_argv(eqsweep, journal),
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            deadline = time.time() + 600
            while killed < kills and proc.poll() is None:
                if journal_records(journal) >= target:
                    proc.send_signal(signal.SIGKILL)
                    break
                if time.time() > deadline:
                    proc.kill()
                    fail(f"seed {seed}: launch #{launches} stalled")
                time.sleep(0.0005)
            out, err = proc.communicate(timeout=600)
            if proc.returncode == -signal.SIGKILL:
                killed += 1
                log(f"chaos: SIGKILL launch #{launches} at "
                    f"{journal_records(journal)} journaled points")
                continue
            if proc.returncode != 0:
                fail(f"seed {seed}: launch #{launches} exited "
                     f"{proc.returncode}: {err.decode()}")
            break
        if killed == 0:
            fail(f"seed {seed}: every kill came too late")
        computed, replayed, _, truncated = resume_stats(err.decode())
        if replayed == 0 or computed + replayed != NUM_POINTS:
            fail(f"seed {seed}: last launch replayed {replayed} and "
                 f"computed {computed} of {NUM_POINTS} points")
        if out != REFERENCE:
            fail(f"seed {seed}: CSV differs from the reference after "
                 f"{killed} kills")
        log(f"seed {seed}: {killed} kills, last launch replayed "
            f"{replayed} (truncated {truncated} bytes) and computed "
            f"{computed}, CSV byte-identical")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def resume_stats(stderr_text):
    """Parse eqsweep's '# resume: computed=X journal=Y cache=Z
    truncated_bytes=B' line."""
    m = re.search(r"# resume: computed=(\d+) journal=(\d+) "
                  r"cache=(\d+) truncated_bytes=(\d+)", stderr_text)
    if not m:
        fail(f"no resume stats in eqsweep stderr: {stderr_text!r}")
    return tuple(int(g) for g in m.groups())


def corrupt_tail_round(eqsweep, flavor):
    """Complete a journaled run, damage its journal tail (torn or
    bit-flip), rerun: the tail must be truncated and recomputed, and the
    rerun must still print the reference CSV."""
    work_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-tail-")
    journal = os.path.join(work_dir, "journal.ndjson")
    try:
        if run_journaled(eqsweep, journal).returncode != 0:
            fail(f"{flavor} tail: the first run failed")
        with open(journal, "rb") as f:
            data = f.read()
        if flavor == "torn":
            damaged = data[:-9]  # mid-record: no trailing newline
        else:
            damaged = data[:-10] + bytes([data[-10] ^ 0x20]) + \
                data[-9:]
        with open(journal, "wb") as f:
            f.write(damaged)

        proc = run_journaled(eqsweep, journal)
        if proc.returncode != 0:
            fail(f"{flavor}-tail rerun exited {proc.returncode}: "
                 f"{proc.stderr.decode()}")
        computed, journaled, _, truncated = \
            resume_stats(proc.stderr.decode())
        if truncated == 0:
            fail(f"{flavor} tail: nothing truncated — the damaged "
                 f"record was served as a result")
        if computed == 0:
            fail(f"{flavor} tail: nothing recomputed")
        if proc.stdout != REFERENCE:
            fail(f"{flavor} tail: CSV differs from reference")
        log(f"{flavor} tail: truncated {truncated} bytes, replayed "
            f"{journaled}, recomputed {computed}, CSV byte-identical")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def expect_refusal(argv, what, exit_code, code):
    """Run eqsweep, which must fail with @exit_code and a structured
    error line of @code; returns the error object."""
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=600)
    if proc.returncode == 0:
        fail(f"{what}: eqsweep ran")
    if proc.returncode != exit_code:
        fail(f"{what}: expected exit {exit_code}, got "
             f"{proc.returncode}: {proc.stderr.decode()}")
    line = next((l for l in proc.stderr.decode().splitlines()
                 if l.startswith("eqsweep: error: ")), None)
    if line is None:
        fail(f"{what}: no structured error line: "
             f"{proc.stderr.decode()!r}")
    err = json.loads(line[len("eqsweep: error: "):])
    if err.get("code") != code:
        fail(f"{what}: wrong error code: {err}")
    log(f"{what}: exit {exit_code}, code={err['code']!r}")
    return err


def expect_header_refusal(argv, what):
    """A journal of another sweep: exit 3, journal_header_mismatch."""
    return expect_refusal(argv, what, EXIT_HEADER_MISMATCH,
                          "journal_header_mismatch")


def header_mismatch_round(eqsweep):
    """A journal resumed under a spec with another axis or with
    --backend flipped: each must refuse with exit 3 and a structured
    journal_header_mismatch error before any point runs, and a refused
    run must leave the journal byte-identical."""
    work_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-hdr-")
    journal = os.path.join(work_dir, "journal.ndjson")
    other_spec = ["--model", "systolic",
                  "--axis", "ah=2,4", "--axis", "aw=2,4"]
    try:
        if run_journaled(eqsweep, journal).returncode != 0:
            fail("header mismatch: the first run failed")
        with open(journal, "rb") as f:
            before = f.read()
        backend = json.loads(before.split(b"\n", 1)[0])["backend"]
        flipped = "interp" if backend == "compiled" else "compiled"

        resume = ["--journal", journal, "--threads", "1"]
        for argv, what in (
                (other_spec + resume,
                 "resume under a spec with another axis"),
                (SPEC_ARGS + ["--backend", flipped] + resume,
                 f"resume of a {backend} journal with --backend "
                 f"{flipped}")):
            expect_header_refusal([eqsweep] + argv, what)
            with open(journal, "rb") as f:
                if f.read() != before:
                    fail(f"{what}: the refused run changed the "
                         f"journal")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def closed_port():
    """A loopback port nothing listens on: bound, then released."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def exit_contract_round(eqsweep):
    """The failure exits no other round reaches: the removed --shard
    and --merge flags are unknown options (exit 2, usage), and
    --connect to a port nothing listens on exits 1 with io_error."""
    for flag, value in (("--shard", "0/2"), ("--merge", "j.ndjson")):
        expect_refusal([eqsweep] + SPEC_ARGS + [flag, value],
                       f"{flag} {value}", EXIT_USAGE, "usage")
    expect_refusal(
        [eqsweep] + SPEC_ARGS + ["--connect", f"127.0.0.1:{closed_port()}"],
        "--connect to a closed port", EXIT_IO, "io_error")


def damage_cache(data, flavor):
    """Return (damaged bytes, rows a discarding reader keeps)."""
    lines = data.splitlines(keepends=True)
    header, records = lines[0], lines[1:]
    if flavor == "torn":
        return data[:-9], len(records) - 1
    if flavor == "bitflip":
        # Flip a CRC digit of the middle record: it and everything
        # after it are dropped, the records before it survive.
        mid = len(records) // 2
        line = bytearray(records[mid])
        at = line.index(b'"crc":') + len(b'"crc":')
        line[at] ^= 0x01
        return (header + b"".join(records[:mid]) + bytes(line) +
                b"".join(records[mid + 1:])), mid
    h = json.loads(header)
    h["backend"] = "interp" if h["backend"] == "compiled" else "compiled"
    return (json.dumps(h, separators=(",", ":")).encode() + b"\n" +
            b"".join(records)), 0


def damaged_cache_round(eqsweep):
    """Fill a result cache with a whole-grid run, damage it three ways,
    and re-run after each: exit 0, the reference CSV byte for byte, and
    a replay of exactly the surviving rows."""
    cache_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-cache-")
    cache = os.path.join(cache_dir, "cache.ndjson")

    def run_cached(what):
        proc = subprocess.run(
            [eqsweep] + SPEC_ARGS + ["--threads", "2", "--cache", cache],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
        if proc.returncode != 0:
            fail(f"{what}: cached sweep exited {proc.returncode}: "
                 f"{proc.stderr.decode()}")
        if proc.stdout != REFERENCE:
            fail(f"{what}: cached sweep CSV differs from reference")
        computed, _, cached, _ = resume_stats(proc.stderr.decode())
        return computed, cached

    try:
        rows, cached = run_cached("fill")
        if cached != 0:
            fail(f"fill: a fresh cache served {cached} rows")
        for flavor in ("torn", "bitflip", "backend"):
            with open(cache, "rb") as f:
                data = f.read()
            if data.count(b"\n") != rows + 1:
                fail(f"{flavor}: cache does not hold every row before "
                     f"the damage")
            damaged, survivors = damage_cache(data, flavor)
            with open(cache, "wb") as f:
                f.write(damaged)
            computed, cached = run_cached(f"{flavor} cache")
            if cached != survivors or computed != rows - survivors:
                fail(f"{flavor} cache: replayed {cached} and computed "
                     f"{computed}, expected {survivors} and "
                     f"{rows - survivors}")
            log(f"{flavor} cache: replayed {cached}, recomputed "
                f"{computed}, CSV byte-identical")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main():
    global REFERENCE
    build_dir = sys.argv[1] if len(sys.argv) > 1 else "build"
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    eqsweep = os.path.join(build_dir, "src", "eqsweep")

    REFERENCE = reference_csv(eqsweep)
    log("reference CSV captured "
        f"({len(REFERENCE.splitlines()) - 1} rows)")
    for seed in range(1, rounds + 1):
        kill_rerun_round(eqsweep, seed)
    corrupt_tail_round(eqsweep, "torn")
    corrupt_tail_round(eqsweep, "bitflip")
    header_mismatch_round(eqsweep)
    damaged_cache_round(eqsweep)
    exit_contract_round(eqsweep)
    print(f"sweep chaos: {rounds} kill rounds + 2 tail-corruption "
          "rounds + 2 header refusals + 3 cache-damage rounds + "
          "3 exit-contract checks passed (outputs byte-identical)")


if __name__ == "__main__":
    main()
