#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py                        # every workload
    python3 perfbench/run.py --workload sweep-cold --seed 3 --seconds 10
    python3 perfbench/run.py --workload serve-mixed --trace 1
    python3 perfbench/run.py --selftest             # self-tests + backend matrix

Builds a Release tree of the simulator and the perfbench driver under
.bench_build/ (from src/ and perfbench/), times each workload's set-up
as whole cold starts, runs it for --seconds, and checks every simulated
statistic against an in-process reference. Each workload prints its
end-to-end metrics as "name value unit" lines and, last, one JSON line
{"correct", "attempted", "failed", "metrics"}. --trace 1 runs the
workload untraced and then traced, and reports the per-layer split and
the tracing overhead instead. Exits nonzero on any wrong result.
See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench-release")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ["sweep-cold", "serve-mixed", "lower-stages"]
# Set-up-only launches per measured run; setup_s is the median of these
# and the measured run's own.
SETUP_TRIALS = 10


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build


def build():
    """Configure and build the Release tree; refuse any other build type."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        os.makedirs(BUILD, exist_ok=True)
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "2",
                    "--target", "perfbench", "eqserved"],
                   check=True, stdout=sys.stderr)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise BenchError("refusing to report numbers from a %r tree"
                         % build_type)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "eqsim", "eqserved"))


# ---------------------------------------------------------------------------
# Processes


def wait_rusage(proc, timeout):
    """Wait for proc and return its rusage (peak RSS of that process)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError("%s timed out" % proc.args[0])
        time.sleep(0.005)


def read_until_ready(proc, t0):
    """Seconds from t0 until proc prints its "ready" line."""
    for line in proc.stdout:
        if line.strip() == "ready":
            return time.perf_counter() - t0
        sys.stderr.write(line)
    raise BenchError("%s exited before it was ready" % proc.args[0])


class Daemon:
    """An eqserved with 2 workers and the default cache, on an
    ephemeral loopback port."""

    def __init__(self, eqserved, env):
        self.dir = tempfile.mkdtemp(dir=OUT)
        port_file = os.path.join(self.dir, "port")
        self.proc = subprocess.Popen(
            [eqserved, "--workers", "2", "--port", "0",
             "--port-file", port_file],
            stdout=subprocess.DEVNULL, env=env)
        deadline = time.monotonic() + 30
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("eqserved did not start")
            time.sleep(0.001)
        with open(port_file) as f:
            self.port = int(f.read())

    def stop(self):
        """Shut down and return the daemon's rusage."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            usage = wait_rusage(self.proc, 30)
        else:
            usage = None
        shutil.rmtree(self.dir, ignore_errors=True)
        return usage


def workload_cmd(perfbench, name, args, extra):
    return [perfbench, name, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + extra


def run_once(bins, name, args, setup_only, trace_path=None,
             items=0, env=None):
    """One cold start of a workload. Returns (setup_s, result, rusage of
    the simulating process); result is None for a set-up trial."""
    perfbench, eqserved = bins
    env = env or os.environ.copy()
    extra = ["--setup-only"] if setup_only else []
    if trace_path:
        extra += ["--trace", trace_path]
    if items:
        extra += ["--items", str(items)]
    daemon = None
    t0 = time.perf_counter()
    try:
        if name == "serve-mixed":
            daemon = Daemon(eqserved, env)
            extra += ["--port", str(daemon.port)]
        proc = subprocess.Popen(workload_cmd(perfbench, name, args, extra),
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            setup_s = read_until_ready(proc, t0)
            lines = proc.stdout.read().splitlines()
        finally:
            usage = wait_rusage(proc, 170)
        if daemon:
            usage = daemon.stop()
            daemon = None
    finally:
        if daemon:
            daemon.stop()
    if setup_only:
        return setup_s, None, None
    for line in lines[:-1]:
        print(line)
    if not lines:
        raise BenchError("%s printed no result" % name)
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return setup_s, result, usage


# ---------------------------------------------------------------------------
# Workloads


def measure(bins, name, args, trace_path=None):
    """Set-up trials plus one measured run; the e2e metric values."""
    setups = [run_once(bins, name, args, True)[0]
              for _ in range(SETUP_TRIALS)]
    setup_s, result, usage = run_once(bins, name, args, False, trace_path)
    setups.append(setup_s)
    m = result["metrics"]
    values = {
        "points_per_s": m["points_per_s"],
        "setup_s": statistics.median(setups),
        # The simulating process: eqserved, else the workload itself
        # (measured there before its reference check).
        "peak_rss_mb": (usage.ru_maxrss / 1024.0 if name == "serve-mixed"
                        else m["peak_rss_mb"]),
    }
    return values, result


def correct_of(result):
    return (result["returncode"] == 0 and result["failed"] == 0
            and result["mismatched"] == 0)


def run_workload(bins, name, args, bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    values, result = measure(bins, name, args)
    stamp = dict(result["stamp"], seed=args.seed, workload=name)
    print("# %s" % json.dumps(stamp, sort_keys=True))
    m = result["metrics"]
    if args.trace:
        return trace_workload(bins, name, args, bench, values, result)
    for key in units:
        print("%-17s %14.6f %s" % (key, values[key], units[key]))
    # Printed, not bounded: see perfbench/README.md.
    for key, unit in (("wall_points_per_s", "1/s"), ("p50_ms", "ms"),
                      ("p90_ms", "ms"), ("p99_ms", "ms"),
                      ("cycle_err_pct", "%")):
        print("%-17s %14.6f %s" % (key, m[key], unit))
    print("%-17s %14.6f %s   (%d of %d)" % (
        "error_frac", m["error_frac"], "ratio", result["failed"],
        result["attempted"]))
    print("# percentiles over %d samples; digest %s"
          % (m["latency_samples"], result["digest"]))
    if name == "serve-mixed":
        print("# points_per_s here is the closed loop's capacity_rps")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return correct_of(result), result, metrics


def trace_workload(bins, name, args, bench, untraced, plain):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.json" % (name, args.seed))
    traced, result = measure(bins, name, args, trace_path=path)
    layers = result["layers"]
    print("# tracing overhead (traced - untraced):")
    for key in ("points_per_s", "wall_points_per_s", "p50_ms", "p90_ms"):
        before = plain["metrics"][key]
        after = result["metrics"][key]
        if before > 0:
            print("#   %-17s %12.4f -> %12.4f  (%+.1f%%)" % (
                key, before, after, 100.0 * (after - before) / before))
    layers["trace.overhead_pct"] = 100.0 * (
        untraced["points_per_s"] - traced["points_per_s"]) \
        / untraced["points_per_s"]
    print("# span self times sum to %.3f ms of %.3f ms measured wall; "
          "trace %s" % (layers.get("trace.self_sum_ms", 0),
                        layers.get("trace.wall_ms", 0), path))
    metrics = {}
    for m in bench["per_layer"]:
        # A layer this workload never calls reports 0.
        value = layers.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-26s %16.6f %s" % (m["name"], value, m["unit"]))
    ok = correct_of(plain) and correct_of(result)
    return ok, result, metrics


# ---------------------------------------------------------------------------
# Self-test: unit checks plus the backend matrix


def selftest(bins):
    perfbench = bins[0]
    if subprocess.run([perfbench, "selftest"]).returncode != 0:
        return False
    args = argparse.Namespace(seed=11, seconds=1)
    modes = [("interp", {"EQ_SIM_BACKEND": "interp"}),
             ("interp (repeat)", {"EQ_SIM_BACKEND": "interp"}),
             ("compiled", {"EQ_SIM_BACKEND": "compiled", "EQ_SIM_FUSE": "0"}),
             ("compiled+fused", {"EQ_SIM_BACKEND": "compiled",
                                 "EQ_SIM_FUSE": "1"})]
    items = {"sweep-cold": 96, "serve-mixed": 400, "lower-stages": 120}
    ok = True
    for name in WORKLOADS:
        digests = {}
        for label, overrides in modes:
            env = dict(os.environ, **overrides)
            _, result, _ = run_once(bins, name, args, False,
                                    items=items[name], env=env)
            digests[label] = (result["digest"], result["stamp"]["backend"],
                              result["stamp"]["fusion"], correct_of(result))
        same = len({d[0] for d in digests.values()}) == 1
        good = all(d[3] for d in digests.values())
        ok = ok and same and good
        for label, (digest, backend, fusion, correct) in digests.items():
            print("%-4s %-12s %-16s digest %s (backend=%s fusion=%s%s)" % (
                "ok" if same and correct else "FAIL", name, label, digest,
                backend, fusion, "" if correct else ", WRONG RESULT"))
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return ok


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        os.makedirs(OUT, exist_ok=True)
        bins = build()
        if args.selftest:
            return 0 if selftest(bins) else 1
        names = [args.workload] if args.workload else WORKLOADS
        all_ok, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            print("## %s" % name)
            ok, result, wl_metrics = run_workload(bins, name, args, bench)
            all_ok = all_ok and ok
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = wl_metrics if len(names) == 1 else dict(
                metrics, **{"%s/%s" % (name, k): v
                            for k, v in wl_metrics.items()})
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    print(json.dumps({"correct": all_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
