#!/usr/bin/env python3
"""Benchmark trend gate: fail when tracked benchmarks regress.

Compares two google-benchmark JSON outputs (the uploaded
BENCH_engine.json baseline vs the current run) and exits nonzero when
any tracked benchmark's cpu_time regressed by more than the threshold
(ROADMAP "Perf trajectory tracking").

Usage:
    check_bench_trend.py BASELINE.json CURRENT.json \
        [--threshold 0.20] [--track PREFIX ...]

Benchmarks are matched by exact name ("BM_SimulateSystolic/compiled/8");
the --track prefixes select which families gate the build (default:
BM_SimulateSystolic, BM_EventDispatch, BM_CompiledVsInterp,
BM_FusedVsCompiled, BM_SoCContention, BM_LaunchIssue, the pinned
warm-run path BM_BatchSessionReuse, the serving layer's
BM_ServeWarmVsCold cache legs, the sweep durability layer's
BM_SweepResume warm/cold legs, the IR storage path's
BM_ModuleBuildTeardown (a rebuild in a reused Context) and
BM_BuildSystolicModule (a build in a fresh Context each time, as
lower-stages builds), the compile path's BM_CompileModule, and the
loop fast-forward's BM_SystolicRun).
CI passes no --track, so this default is the one list of gated
families. Every engine benchmark carries its backend in its name, so a
change of the default backend shows up as new series rather than as a
silent jump in an old one. Untracked
benchmarks are reported informationally. Stdlib only.

Build-type guard: timings from a debug build are meaningless to gate
on (and a debug baseline would make every release run look like a
huge win), so when either file was recorded from a non-release build
the gate loudly warns and skips the comparison. The binary's own
eqsim_build_type context stamp is authoritative; library_build_type
(which records how the *benchmark library* was compiled, typically
"debug" for distro packages) is only a fallback for old files.

First-run friendliness: a missing/unreadable/invalid baseline file
exits 0 with a clear "no baseline yet" message (new branches and
expired artifacts must not fail CI), and benchmarks absent from the
baseline — e.g. ones introduced by the current change — are reported
as "new" rather than gating anything. Tracked benchmarks present in
the baseline but absent from the current run are loudly warned about
(a rename must not silently drop trend coverage), without failing the
build.
"""

import argparse
import json
import sys


def load_benchmarks(path, metric):
    """Return (rows-by-name, library_build_type) for one JSON file."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions) and
        # malformed rows without a name or the compared metric.
        if b.get("run_type") == "aggregate":
            continue
        if "name" not in b or metric not in b:
            continue
        out[b["name"]] = b
    # Prefer the binary's own stamp (microbench_engine's
    # eqsim_build_type custom context); library_build_type describes
    # the installed benchmark library and is only a fallback.
    ctxt = data.get("context", {})
    build_type = ctxt.get("eqsim_build_type",
                          ctxt.get("library_build_type"))
    return out, build_type


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="max tolerated fractional regression (0.20 = +20%%)")
    ap.add_argument("--track", nargs="*",
                    default=["BM_SimulateSystolic", "BM_EventDispatch",
                             "BM_CompiledVsInterp", "BM_FusedVsCompiled",
                             "BM_SoCContention", "BM_LaunchIssue",
                             "BM_BatchSessionReuse",
                             "BM_ServeWarmVsCold", "BM_SweepResume",
                             "BM_ModuleBuildTeardown",
                             "BM_BuildSystolicModule",
                             "BM_CompileModule", "BM_SystolicRun"],
                    help="benchmark-name prefixes that gate the build")
    ap.add_argument("--metric", default="cpu_time",
                    choices=["cpu_time", "real_time"])
    args = ap.parse_args()

    # A baseline that is absent or unparseable is not a regression: the
    # branch simply has nothing to compare against yet (first run on a
    # branch, expired CI artifact, truncated download).
    try:
        base, base_build = load_benchmarks(args.baseline, args.metric)
    except (OSError, ValueError) as e:
        print(f"no baseline yet ({args.baseline}: {e}); "
              f"nothing to compare against -- skipping trend check")
        return 0

    try:
        curr, curr_build = load_benchmarks(args.current, args.metric)
    except (OSError, ValueError) as e:
        # The current results come from this very run; not having them
        # is a real CI failure, reported readably instead of a
        # traceback.
        print(f"error: cannot read current results {args.current}: {e}",
              file=sys.stderr)
        return 2

    if not base:
        print(f"baseline {args.baseline} contains no benchmark rows; "
              f"nothing to compare against -- skipping trend check")
        return 0

    # Gate only release-vs-release: debug timings are dominated by
    # unoptimized library code and assertion overhead, so any delta
    # against (or from) them is noise. Warn loudly rather than fail --
    # a developer running this locally against a debug build should see
    # why nothing was gated, not a red build.
    wrong = [(label, bt)
             for label, bt in [("baseline", base_build),
                               ("current", curr_build)]
             if bt != "release"]
    if wrong:
        for label, bt in wrong:
            print(f"WARNING: {label} results were recorded from a "
                  f"{bt!r} build (need 'release')", file=sys.stderr)
        print("WARNING: refusing to gate on non-release timings -- "
              "skipping trend check", file=sys.stderr)
        return 0

    failures = []
    rows = []
    for name in sorted(curr):
        if name not in base:
            rows.append((name, None, curr[name][args.metric], None, "new"))
            continue
        b = base[name][args.metric]
        c = curr[name][args.metric]
        delta = (c - b) / b if b else 0.0
        tracked = any(name.startswith(p) for p in args.track)
        status = "ok"
        if tracked and delta > args.threshold:
            status = "REGRESSION"
            failures.append((name, delta))
        elif not tracked:
            status = "untracked"
        rows.append((name, b, c, delta, status))

    # A tracked benchmark that was in the baseline but vanished from
    # the current run means the gate lost coverage (most likely a
    # rename). Don't fail — the successor is gated as "new" next run —
    # but never let it pass silently either.
    missing = [name for name in sorted(base)
               if name not in curr
               and any(name.startswith(p) for p in args.track)]
    for name in missing:
        rows.append((name, base[name][args.metric], None, None, "MISSING"))

    namew = max((len(r[0]) for r in rows), default=4)
    print(f"{'benchmark':<{namew}} {'baseline':>12} {'current':>12} "
          f"{'delta':>8}  status")
    for name, b, c, delta, status in rows:
        bs = f"{b:12.1f}" if b is not None else f"{'-':>12}"
        cs = f"{c:12.1f}" if c is not None else f"{'-':>12}"
        ds = f"{delta:+7.1%}" if delta is not None else f"{'-':>8}"
        print(f"{name:<{namew}} {bs} {cs} {ds}  {status}")

    if missing:
        print(f"\nWARNING: {len(missing)} tracked benchmark(s) from the "
              f"baseline are missing from the current run (renamed or "
              f"removed?):", file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)

    if failures:
        print(f"\nFAIL: {len(failures)} tracked benchmark(s) regressed "
              f"more than {args.threshold:.0%}:", file=sys.stderr)
        for name, delta in failures:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nOK: no tracked benchmark regressed more than "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
