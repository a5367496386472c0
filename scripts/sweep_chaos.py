#!/usr/bin/env python3
"""Chaos test of crash-safe sweeps: SIGKILL shards mid-run, corrupt
journal tails and result caches, and swap specs out from under
manifests — then assert the sweep still converges to the
byte-identical fault-free answer.

Four rounds, each against a single-process reference CSV:

  kill-resume-merge   shards are dispatched as separate processes and
                      SIGKILLed mid-flight (seeded, several per
                      round); the dispatcher relaunches them with
                      --resume, the journal replays what survived the
                      kill, and the merged CSV must equal the
                      reference byte for byte — a killed-and-resumed
                      sweep is indistinguishable from an undisturbed
                      one;
  corrupted tail      a completed shard journal gets its final record
                      torn (truncated mid-record) or bit-flipped; the
                      relaunched shard must truncate the bad tail,
                      recompute only the lost points (visible in its
                      "# resume:" stats), and the merge must still be
                      byte-identical;
  header mismatch     spec.json is swapped after the manifests were
                      emitted, or a manifest names a backend no
                      engine has ("fused", the removed unfused mode);
                      the shard must refuse with exit 3 and a
                      structured {"code":"journal_header_mismatch"}
                      error line before any point runs — never
                      silently journal under the old identity;
  damaged cache       a --cache file filled by a whole-grid run gets a
                      torn tail, a bit flip mid-file, or a header
                      naming the other backend; the cache discards
                      rather than refuses, so every re-run must exit 0,
                      emit the reference CSV, and replay exactly the
                      rows that survived (its "cache=" count).

The byte-identity assertions all lean on the determinism guarantee:
results do not depend on worker count, process count, kill timing, or
how many times a point was recomputed — which is exactly what makes
resume/retry/merge sound.

Inherits EQ_SIM_BACKEND, so CI runs it once per backend (the emitted
manifests pin the resolved backend; every relaunch obeys the manifest,
not its own environment).

Usage: sweep_chaos.py [BUILD_DIR] [ROUNDS]   (default: build, 3)
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

from sweep_dispatch import (DispatchError, Dispatcher,
                            EXIT_HEADER_MISMATCH, emit_shards)

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


def run_dispatch(eqsweep, manifests, chaos_kill=None, max_retries=8):
    # run() always terminates: a wedged shard trips the stall timeout
    # and is killed; a shard that keeps dying exhausts max_retries and
    # raises DispatchError.
    d = Dispatcher(eqsweep, manifests, threads=1,
                   max_retries=max_retries, stall_timeout=120.0,
                   chaos_kill=chaos_kill)
    d.run()
    return d


def kill_resume_merge_round(eqsweep, seed):
    shard_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-kill-")
    try:
        manifests = emit_shards(eqsweep, SPEC_ARGS, NUM_SHARDS,
                                shard_dir)
        killer = ChaosKiller(seed)
        d = run_dispatch(eqsweep, manifests, chaos_kill=killer)
        merged = d.merge(shard_dir)
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
        manifests = emit_shards(eqsweep, SPEC_ARGS, NUM_SHARDS,
                                shard_dir)
        d = run_dispatch(eqsweep, manifests)

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
            [eqsweep, "--shard", d.shards[0].manifest_path,
             "--threads", "1"],
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
        merged = d.merge(shard_dir)
        if merged != REFERENCE:
            fail(f"{flavor} tail: merged CSV differs from reference")
        log(f"{flavor} tail: truncated {truncated} bytes, replayed "
            f"{journaled}, recomputed {computed}, merge "
            f"byte-identical")
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)


def expect_header_refusal(eqsweep, manifest, what):
    """Run one shard that must refuse with exit 3 and a structured
    journal_header_mismatch error line; returns the error object."""
    proc = subprocess.run(
        [eqsweep, "--shard", manifest, "--threads", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=600)
    if proc.returncode == 0:
        fail(f"{what}: the shard ran")
    if proc.returncode != EXIT_HEADER_MISMATCH:
        fail(f"{what}: expected exit {EXIT_HEADER_MISMATCH}, got "
             f"{proc.returncode}: {proc.stderr.decode()}")
    line = next((l for l in proc.stderr.decode().splitlines()
                 if l.startswith("eqsweep: error: ")), None)
    if line is None:
        fail(f"{what}: no structured error line: "
             f"{proc.stderr.decode()!r}")
    err = json.loads(line[len("eqsweep: error: "):])
    if err.get("code") != "journal_header_mismatch":
        fail(f"{what}: wrong error code: {err}")
    return err


def header_mismatch_round(eqsweep):
    """Swap spec.json out from under the manifests, or name a backend
    no engine has in one: the shard must refuse with exit 3 and a
    structured journal_header_mismatch error before any point runs,
    never silently journal under the old identity or another
    backend."""
    shard_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-hdr-")
    other_dir = tempfile.mkdtemp(prefix="eqsweep-chaos-hdr2-")
    try:
        manifests = emit_shards(eqsweep, SPEC_ARGS, NUM_SHARDS,
                                shard_dir)
        # A manifest naming an unknown backend ("fused", or the removed
        # unfused compiled mode) is refused by name.
        with open(manifests[1]) as f:
            original = json.load(f)
        for fields, named in (({"backend": "fused"}, "fused"),
                              ({"backend": "compiled", "fuse": "off"},
                               "compiled (unfused)")):
            m = json.loads(json.dumps(original))
            m["header"].update(fields)
            with open(manifests[1], "w") as f:
                json.dump(m, f)
            err = expect_header_refusal(eqsweep, manifests[1],
                                        f"backend {named!r}")
            if f"unknown backend '{named}'" not in err.get("message",
                                                           ""):
                fail(f"backend {named!r}: message does not name the "
                     f"manifest's backend: {err}")
            if os.path.exists(m["journal"]):
                fail(f"backend {named!r}: a journal was written")
            log(f"manifest backend {named!r}: exit 3, "
                f"code={err['code']!r}")

        # A different sweep's spec, dropped where the manifests expect
        # theirs (emitting into other_dir leaves the manifests alone).
        emit_shards(eqsweep,
                    ["--model", "systolic",
                     "--axis", "ah=2,4", "--axis", "aw=2,4"],
                    1, other_dir)
        shutil.copyfile(os.path.join(other_dir, "spec.json"),
                        os.path.join(shard_dir, "spec.json"))
        err = expect_header_refusal(eqsweep, manifests[0],
                                    "stale manifest on a swapped spec")
        log(f"header mismatch: exit 3, code={err['code']!r}")
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)
        shutil.rmtree(other_dir, ignore_errors=True)


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
    print(f"sweep chaos: {rounds} kill rounds + 2 tail-corruption "
          "rounds + header refusal + 3 cache-damage rounds passed "
          "(outputs byte-identical)")


if __name__ == "__main__":
    main()
