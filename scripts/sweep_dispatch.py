#!/usr/bin/env python3
"""Fault-tolerant cross-process sweep dispatch over eqsweep shards.

A shard is a journal: `eqsweep <spec> --shard K/N --journal J` runs
stripe K of N of the grid's dense points into J, always resuming what
J already holds. This driver launches every stripe as its own process
with the same spec arguments (at most one shard per grid point: a
--shards count past the point count is clamped to it) and babysits
the fleet:

  liveness    a shard appends one journal record per computed point,
              so the journal's size is its progress; the monitor
              treats a live process whose journal has not grown
              within --stall-timeout as a straggler and kills it;
  retry       a dead shard (crashed, killed, stuck, or an I/O
              failure: exit 1) is relaunched up to --max-retries times;
              relaunch is always safe because a shard recomputes only
              what its journal does not already hold;
  refusal     exit codes 2 (usage), 3 (header mismatch), 4 (corrupt
              journal) and 6 (a point threw) are structured refusals,
              not transient faults, and are never retried — they mean
              the arguments or the on-disk state do not describe this
              sweep, or a point fails deterministically and would throw
              again, and a human has to look;
  merge       once every shard has finished, `eqsweep <spec> --merge J
              ...` folds the shard journals into one table,
              byte-identical to a single-process run (the determinism
              guarantee is what makes kill/relaunch invisible in the
              output).

The journal headers pin the sweep (grid, spec, resolved backend), so a
shard resumed or merged under other spec arguments or another backend
is refused with exit 3.

Importable: sweep_chaos.py drives the same Dispatcher with a
chaos_kill hook to SIGKILL shards mid-flight and then asserts the
merged CSV anyway matches the fault-free reference.

Usage: sweep_dispatch.py [--build DIR] [--shards N] [--out CSV]
                         [--stall-timeout S] [--max-retries N]
                         [eqsweep spec args: --model/--config/--axis
                          or --spec FILE, and --backend]
"""

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

# eqsweep's exit-code vocabulary (the failure table, src/base/failure.hh).
EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_HEADER_MISMATCH = 3
EXIT_CORRUPT = 4
EXIT_INCOMPLETE = 5
EXIT_POINT_FAILED = 6
NON_RETRYABLE = {EXIT_USAGE, EXIT_HEADER_MISMATCH, EXIT_CORRUPT,
                 EXIT_POINT_FAILED}


class DispatchError(RuntimeError):
    """The dispatch cannot make progress; carries the shard's exit
    code when a structured refusal stopped it."""

    def __init__(self, message, exit_code=None):
        super().__init__(message)
        self.exit_code = exit_code


def journal_size(path):
    """Bytes in a shard's journal, or None before the shard creates
    it. The journal only grows while its shard runs (one O_APPEND
    record per computed point), so growth is progress."""
    try:
        return os.stat(path).st_size
    except OSError:
        return None


class Shard:
    """One stripe's lifecycle across launches."""

    def __init__(self, index, journal_path):
        self.index = index
        self.journal_path = journal_path
        self.proc = None
        self.launches = 0
        self.done = False
        self.last_size = None
        self.last_progress = None  # wall time the journal last grew

    def running(self):
        return self.proc is not None and self.proc.poll() is None


def grid_points(spec_args):
    """Points in the grid the eqsweep spec arguments describe, or None
    when a --spec file cannot be read (eqsweep then reports it). A
    SweepSpec grid has no filters, so the count is the product of the
    axes' value counts: the --axis lists, or the "axes" of --spec."""
    counts = []
    for flag, value in zip(spec_args, spec_args[1:]):
        if flag == "--axis":
            counts.append(len(value.split("=", 1)[-1].split(",")))
        elif flag == "--spec":
            try:
                with open(value) as f:
                    axes = json.load(f).get("axes", [])
                counts += [len(a.get("values", [])) for a in axes]
            except (OSError, ValueError, AttributeError):
                return None
    return math.prod(counts)


class Dispatcher:
    """Launch every shard, keep the fleet alive, then merge."""

    def __init__(self, eqsweep, spec_args, num_shards, shard_dir,
                 threads=1, max_retries=3, stall_timeout=60.0,
                 poll=0.05, chaos_kill=None, log=None):
        self.eqsweep = eqsweep
        self.spec_args = list(spec_args)
        # A shard past the point count would only write a header.
        points = grid_points(self.spec_args)
        if points is not None:
            num_shards = max(1, min(num_shards, points))
        self.shards = [
            Shard(k, os.path.join(shard_dir,
                                  f"shard-{k}.journal.ndjson"))
            for k in range(num_shards)]
        self.threads = threads
        self.max_retries = max_retries
        self.stall_timeout = stall_timeout
        self.poll = poll
        # chaos_kill(dispatcher) runs once per monitor tick; the chaos
        # harness uses it to SIGKILL shards mid-flight.
        self.chaos_kill = chaos_kill
        self.log = log or (lambda msg: None)
        self.relaunches = 0

    def shard_argv(self, shard):
        """The command line that runs (or resumes) `shard`."""
        return ([self.eqsweep] + self.spec_args +
                ["--shard", f"{shard.index}/{len(self.shards)}",
                 "--journal", shard.journal_path,
                 "--threads", str(self.threads)])

    def launch(self, shard):
        shard.launches += 1
        shard.proc = subprocess.Popen(
            self.shard_argv(shard),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        shard.last_progress = time.time()
        self.log(f"shard {shard.index}: launch #{shard.launches} "
                 f"(pid {shard.proc.pid})")

    def kill(self, shard):
        if shard.running():
            shard.proc.send_signal(signal.SIGKILL)
            shard.proc.wait()

    def _reap(self, shard):
        """Shard process exited: finished, refused, or died."""
        code = shard.proc.returncode
        stderr = shard.proc.stderr.read().decode()
        if code == EXIT_OK:
            shard.done = True
            self.log(f"shard {shard.index}: done "
                     f"(launch #{shard.launches})")
            return
        if code in NON_RETRYABLE:
            raise DispatchError(
                f"shard {shard.index} refused (exit {code}): "
                f"{stderr.strip()}", code)
        if shard.launches > self.max_retries:
            raise DispatchError(
                f"shard {shard.index} failed {shard.launches} times "
                f"(last exit {code}): {stderr.strip()}", code)
        self.relaunches += 1
        self.log(f"shard {shard.index}: exit {code}, relaunching "
                 f"with resume")
        self.launch(shard)

    def _check_stall(self, shard, now):
        """A live process whose journal stopped growing is a
        straggler: kill it and let the reap path relaunch it."""
        size = journal_size(shard.journal_path)
        if size is not None and size != shard.last_size:
            shard.last_size = size
            shard.last_progress = now
            return
        if now - shard.last_progress > self.stall_timeout:
            self.log(f"shard {shard.index}: journal stalled "
                     f"{self.stall_timeout:.0f}s, killing straggler")
            self.kill(shard)

    def run(self):
        """Drive every shard to completion. Raises DispatchError when
        a shard refuses or exhausts its retries."""
        try:
            for shard in self.shards:
                self.launch(shard)
            while not all(s.done for s in self.shards):
                if self.chaos_kill:
                    self.chaos_kill(self)
                now = time.time()
                for shard in self.shards:
                    if shard.done:
                        continue
                    if shard.running():
                        self._check_stall(shard, now)
                    else:
                        self._reap(shard)
                time.sleep(self.poll)
        finally:
            for shard in self.shards:
                self.kill(shard)

    def merge(self, csv_path=None):
        """Fold the shard journals into the final table."""
        argv = [self.eqsweep] + self.spec_args
        for shard in self.shards:
            argv += ["--merge", shard.journal_path]
        if csv_path:
            argv += ["--csv", csv_path]
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise DispatchError(
                f"--merge exited {proc.returncode}: "
                f"{proc.stderr.decode().strip()}", proc.returncode)
        return proc.stdout


def dispatch_sweep(eqsweep, spec_args, shard_dir, num_shards,
                   csv_path=None, threads=1, max_retries=3,
                   stall_timeout=60.0, chaos_kill=None, log=None):
    """dispatch -> merge; returns the merged CSV bytes (empty when
    csv_path routed the table to a file)."""
    d = Dispatcher(eqsweep, spec_args, num_shards, shard_dir,
                   threads=threads, max_retries=max_retries,
                   stall_timeout=stall_timeout, chaos_kill=chaos_kill,
                   log=log)
    d.run()
    return d.merge(csv_path)


def main():
    argv = sys.argv[1:]
    build_dir, shards, out_csv = "build", 4, None
    stall_timeout, max_retries = 60.0, 3
    spec_args = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--build":
            build_dir = argv[i + 1]; i += 2
        elif arg == "--shards":
            shards = int(argv[i + 1]); i += 2
        elif arg == "--out":
            out_csv = argv[i + 1]; i += 2
        elif arg == "--stall-timeout":
            stall_timeout = float(argv[i + 1]); i += 2
        elif arg == "--max-retries":
            max_retries = int(argv[i + 1]); i += 2
        else:
            spec_args.append(arg); i += 1
    if not spec_args:
        spec_args = ["--model", "systolic",
                     "--axis", "ah=2,4,8", "--axis", "aw=2,4,8"]
    eqsweep = os.path.join(build_dir, "src", "eqsweep")
    shard_dir = tempfile.mkdtemp(prefix="eqsweep-dispatch-")
    try:
        csv = dispatch_sweep(
            eqsweep, spec_args, shard_dir, shards, csv_path=out_csv,
            max_retries=max_retries, stall_timeout=stall_timeout,
            log=lambda m: print(f"# {m}", file=sys.stderr))
        if not out_csv:
            sys.stdout.write(csv.decode())
    except DispatchError as e:
        print(f"sweep_dispatch: {e}", file=sys.stderr)
        sys.exit(e.exit_code or 1)
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
