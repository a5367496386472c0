#!/usr/bin/env python3
"""Chaos test of crash-safe sweeps: SIGKILL shards mid-run, corrupt
journal tails and result caches, and resume or merge shard journals
under another sweep — then assert the sweep still converges to the
byte-identical fault-free answer.

Four rounds, each against a single-process reference CSV, then the
failure exits:

  kill-resume-merge   shards are dispatched as separate processes and
                      SIGKILLed mid-flight (seeded, several per
                      round); the dispatcher relaunches them, each
                      relaunch replays what its journal kept from
                      before the kill, and the merged CSV must equal the
                      reference byte for byte — a killed-and-resumed
                      sweep is indistinguishable from an undisturbed
                      one;
  corrupted tail      a completed shard journal gets its final record
                      torn (truncated mid-record) or bit-flipped; the
                      relaunched shard must truncate the bad tail,
                      recompute only the lost points (visible in its
                      "# resume:" stats), and the merge must still be
                      byte-identical;
  header mismatch     a shard journal is resumed under a spec with a
                      different axis or with --backend flipped, is
                      named as the --journal of a whole-grid run of
                      another spec, or is merged into another sweep;
                      each must refuse with exit 3 and a structured
                      {"code":"journal_header_mismatch"} error line,
                      and a refused run leaves the journal
                      byte-identical — there is no fresh-journal mode
                      that could overwrite it, and nothing is ever
                      journaled or merged under another identity;
  damaged cache       a --cache file filled by a whole-grid run gets a
                      torn tail, a bit flip mid-file, or a header
                      naming the other backend; the cache discards
                      rather than refuses, so every re-run must exit 0,
                      emit the reference CSV, and replay exactly the
                      rows that survived (its "cache=" count);
  failure exits       a merge missing a shard exits 5
                      (incomplete_merge), --connect to a closed port
                      exits 1 (io_error), and a shard that exits 6
                      (point_failed) stops the dispatch without a
                      relaunch: the point would throw again.

The byte-identity assertions all lean on the determinism guarantee:
results do not depend on worker count, process count, kill timing, or
how many times a point was recomputed — which is exactly what makes
resume/retry/merge sound.

Inherits EQ_SIM_BACKEND, so CI runs it once per backend (every shard
journal's header pins the resolved backend, and a relaunch under
another one is refused).

Usage: sweep_chaos.py [BUILD_DIR] [ROUNDS]   (default: build, 3)
"""

import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import tempfile

from sweep_dispatch import (Dispatcher, DispatchError, EXIT_HEADER_MISMATCH,
                            EXIT_INCOMPLETE, EXIT_IO, EXIT_POINT_FAILED)

SPEC_ARGS = ["--model", "systolic",
             "--axis", "ah=2,4,8", "--axis", "aw=2,4,8"]
NUM_SHARDS = 3


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


class ChaosKiller:
    """SIGKILLs running shards at seeded moments. Budgeted so the
    dispatch always converges within the retry bound."""

    def __init__(self, seed, kills=4):
        self.rng = random.Random(seed)
        self.remaining = kills
        self.killed = 0
        self.first = True

    def _kill(self, dispatcher, shard):
        dispatcher.kill(shard)
        self.remaining -= 1
        self.killed += 1
        log(f"chaos: SIGKILL shard {shard.index} "
            f"(launch #{shard.launches})")

    def __call__(self, dispatcher):
        if self.remaining <= 0:
            return
        running = [s for s in dispatcher.shards if s.running()]
        if self.first and running:
            # Guarantee the round exercises kill-resume even when the
            # shards would otherwise outrun the probabilistic kills.
            self.first = False
            self._kill(dispatcher, self.rng.choice(running))
            return
        for shard in running:
            if self.remaining <= 0:
                break
            # ~20% per tick per shard: later kills land at different
            # points of different launches across seeds.
            if self.rng.random() < 0.20:
                self._kill(dispatcher, shard)


def run_dispatch(eqsweep, shard_dir, spec_args=SPEC_ARGS,
                 chaos_kill=None, max_retries=8):
    # run() always terminates: a wedged shard trips the stall timeout
    # and is killed; a shard that keeps dying exhausts max_retries and
    # raises DispatchError.
    d = Dispatcher(eqsweep, spec_args, NUM_SHARDS, shard_dir,
                   threads=1, max_retries=max_retries,
                   stall_timeout=120.0, chaos_kill=chaos_kill)
    d.run()
    return d


def kill_resume_merge_round(eqsweep, seed):
    shard_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-kill-")
    try:
        killer = ChaosKiller(seed)
        d = run_dispatch(eqsweep, shard_dir, chaos_kill=killer)
        merged = d.merge()
        if merged != REFERENCE:
            fail(f"seed {seed}: merged CSV differs from the "
             f"single-process reference after {killer.killed} kills")
        log(f"seed {seed}: {killer.killed} kills, "
            f"{d.relaunches} relaunches, merge byte-identical")
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)


def resume_stats(stderr_text):
    """Parse eqsweep's '# resume: computed=X journal=Y cache=Z
    truncated_bytes=B' line."""
    m = re.search(r"# resume: computed=(\d+) journal=(\d+) "
                  r"cache=(\d+) truncated_bytes=(\d+)", stderr_text)
    if not m:
        fail(f"no resume stats in shard stderr: {stderr_text!r}")
    return tuple(int(g) for g in m.groups())


def corrupt_tail_round(eqsweep, flavor):
    """Complete shard 0, damage its journal tail (torn or bit-flip),
    relaunch: the tail must be truncated and recomputed, and the merge
    must still match the reference."""
    shard_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-tail-")
    try:
        d = run_dispatch(eqsweep, shard_dir)

        journal = d.shards[0].journal_path
        with open(journal, "rb") as f:
            data = f.read()
        if flavor == "torn":
            damaged = data[:-9]  # mid-record: no trailing newline
        else:
            damaged = data[:-10] + bytes([data[-10] ^ 0x20]) + \
                data[-9:]
        with open(journal, "wb") as f:
            f.write(damaged)

        proc = subprocess.run(
            d.shard_argv(d.shards[0]),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=600)
        if proc.returncode != 0:
            fail(f"{flavor}-tail relaunch exited {proc.returncode}: "
                 f"{proc.stderr.decode()}")
        computed, journaled, _, truncated = \
            resume_stats(proc.stderr.decode())
        if truncated == 0:
            fail(f"{flavor} tail: nothing truncated — the damaged "
                 f"record was served as a result")
        if computed == 0:
            fail(f"{flavor} tail: nothing recomputed")
        merged = d.merge()
        if merged != REFERENCE:
            fail(f"{flavor} tail: merged CSV differs from reference")
        log(f"{flavor} tail: truncated {truncated} bytes, replayed "
            f"{journaled}, recomputed {computed}, merge "
            f"byte-identical")
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)


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
    """A shard journal resumed under a spec with another axis or with
    --backend flipped, the same journal named by a whole-grid run of
    another spec, and a journal from another sweep given to --merge:
    each must refuse with exit 3 and a structured
    journal_header_mismatch error before any point runs, and a refused
    run must leave the journal byte-identical."""
    shard_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-hdr-")
    other_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-hdr2-")
    other_spec = ["--model", "systolic",
                  "--axis", "ah=2,4", "--axis", "aw=2,4"]
    try:
        d = run_dispatch(eqsweep, shard_dir)
        shard = d.shards[0]
        with open(shard.journal_path, "rb") as f:
            before = f.read()
        backend = json.loads(before.split(b"\n", 1)[0])["backend"]
        flipped = "interp" if backend == "compiled" else "compiled"

        journal = ["--journal", shard.journal_path, "--threads", "1"]
        resume = ["--shard", f"0/{NUM_SHARDS}"] + journal
        for argv, what in (
                (other_spec + resume,
                 "resume under a spec with another axis"),
                (SPEC_ARGS + ["--backend", flipped] + resume,
                 f"resume of a {backend} journal with --backend "
                 f"{flipped}"),
                (other_spec + journal,
                 "whole-grid run of another spec over the journal")):
            expect_header_refusal([eqsweep] + argv, what)
            with open(shard.journal_path, "rb") as f:
                if f.read() != before:
                    fail(f"{what}: the refused run changed the "
                         f"journal")

        other = run_dispatch(eqsweep, other_dir, spec_args=other_spec)
        journals = [s.journal_path for s in d.shards]
        journals.append(other.shards[0].journal_path)
        argv = [eqsweep] + SPEC_ARGS
        for path in journals:
            argv += ["--merge", path]
        expect_header_refusal(argv, "merge of another sweep's journal")
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)
        shutil.rmtree(other_dir, ignore_errors=True)


def closed_port():
    """A loopback port nothing listens on: bound, then released."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def exit_contract_round(eqsweep):
    """The two failure exits no other round reaches: a merge of a shard
    set that misses points exits 5 with incomplete_merge, and --connect
    to a port nothing listens on exits 1 with io_error."""
    shard_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-exit-")
    try:
        d = run_dispatch(eqsweep, shard_dir)
        argv = [eqsweep] + SPEC_ARGS
        for shard in d.shards[:-1]:
            argv += ["--merge", shard.journal_path]
        expect_refusal(argv, "merge without the last shard",
                       EXIT_INCOMPLETE, "incomplete_merge")
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)
    expect_refusal(
        [eqsweep] + SPEC_ARGS + ["--connect", f"127.0.0.1:{closed_port()}"],
        "--connect to a closed port", EXIT_IO, "io_error")


def point_failed_round():
    """A shard whose point throws fails the same way on every launch,
    so the dispatcher stops at its first exit 6 instead of relaunching
    it. A stub stands in for eqsweep: it prints the point_failed line
    and exits 6 without running anything."""
    stub_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-stub-")
    stub = os.path.join(stub_dir, "eqsweep")
    with open(stub, "w") as f:
        f.write("#!/bin/sh\n"
                "echo 'eqsweep: error: {\"code\":\"point_failed\","
                "\"message\":\"point 0: boom\"}' >&2\n"
                f"exit {EXIT_POINT_FAILED}\n")
    os.chmod(stub, 0o755)
    try:
        d = Dispatcher(stub, SPEC_ARGS, NUM_SHARDS, stub_dir,
                       threads=1, max_retries=3, stall_timeout=120.0)
        try:
            d.run()
            fail("point_failed: the dispatch succeeded")
        except DispatchError as e:
            if e.exit_code != EXIT_POINT_FAILED:
                fail(f"point_failed: dispatch stopped with exit "
                     f"{e.exit_code}: {e}")
        if d.relaunches != 0:
            fail(f"point_failed: {d.relaunches} relaunches of a shard "
                 f"that fails deterministically")
        log("point_failed shard: exit 6, no relaunch")
    finally:
        shutil.rmtree(stub_dir, ignore_errors=True)


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
        kill_resume_merge_round(eqsweep, seed)
    corrupt_tail_round(eqsweep, "torn")
    corrupt_tail_round(eqsweep, "bitflip")
    header_mismatch_round(eqsweep)
    damaged_cache_round(eqsweep)
    exit_contract_round(eqsweep)
    point_failed_round()
    print(f"sweep chaos: {rounds} kill rounds + 2 tail-corruption "
          "rounds + 4 header refusals + 3 cache-damage rounds + "
          "2 exit-contract checks + 1 point_failed dispatch passed "
          "(outputs byte-identical)")


if __name__ == "__main__":
    main()
