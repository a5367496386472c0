#!/usr/bin/env python3
"""A/B a performance claim: alternating benchmark pairs of two revisions.

Usage:
    ab.py BASE [REV] [--workload W ...] [--pairs N] [--seconds S]

Exports BASE (and REV, when given) with `git archive` into
.bench_build/ab/<sha>/; without REV the other side is the working tree
itself, uncommitted changes included. Each side builds its own Release
tree there through its own perfbench/run.py, and one discarded warm-up
run per side does the build. Then, per workload, N pairs of
`perfbench/run.py --workload W --seconds S` alternate the
order (BASE first in even pairs, REV first in odd ones), so a drift of
the host's speed lands on both sides.

Prints one JSON object. For every workload and every end-to-end metric
of BENCHMARK.json it gives each side's median and interquartile range,
the change of the median, the pairs REV won, and two verdicts:
  - "significant": REV is better (or worse) in at least 9 of every 10
    pairs, and its median moved by more than BASE's interquartile
    range. A self-A/B (BASE == REV) must read false everywhere;
  - "bound": "exceeded" when REV's median is worse than BASE's by more
    than the metric's bound, else "within".
Exit status: 0, or 1 when a run failed, was wrong, or a bound was
exceeded; 2 on a usage or git error. Progress goes to stderr. Stdlib
only.

Example (this change against its parent, sweep-cold only):
    python3 scripts/ab.py HEAD~1 --workload sweep-cold --pairs 10 \\
        --seconds 6
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev):
    """The commit of @p rev and a directory holding its tree."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(AB_DIR, sha[:12])
    if not os.path.isdir(tree):
        # Extract beside it and rename once complete, so an interrupted
        # export is never mistaken for a tree.
        part = tree + ".part"
        shutil.rmtree(part, ignore_errors=True)
        os.makedirs(part)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", part], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode,
                                                "git archive")
        os.rename(part, tree)
    return {"rev": rev, "sha": sha, "tree": tree}


def run(side, workload, seconds, quiet=False):
    """One perfbench run: {metric: value}, or None when it failed."""
    cmd = [sys.executable, os.path.join(side["tree"], "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run failed (%s, exit %d): %s" % (side["rev"], proc.returncode,
                                              proc.stderr.strip()[-500:]))
        return None
    if proc.returncode != 0 or not result.get("correct"):
        if not quiet:
            log("run incorrect (%s, exit %d)" % (side["rev"],
                                                 proc.returncode))
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    """Median and interquartile range of @p values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q3 - q1


def compare(pairs, metric):
    """The verdicts for one metric over (base, rev) value pairs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    base = [b for b, _ in pairs]
    rev = [r for _, r in pairs]
    base_med, base_iqr = spread(base)
    rev_med, rev_iqr = spread(rev)
    wins = sum(1 for b, r in pairs if sign * (r - b) > 0)
    losses = sum(1 for b, r in pairs if sign * (r - b) < 0)
    need = math.ceil(0.9 * len(pairs))
    gain = sign * (rev_med - base_med)
    significant = ((wins >= need and gain > base_iqr) or
                   (losses >= need and -gain > base_iqr))
    worse = -gain / abs(base_med) if base_med else 0.0
    return {
        "base": {"median": base_med, "iqr": base_iqr},
        "rev": {"median": rev_med, "iqr": rev_iqr},
        "change_pct": 100.0 * (rev_med - base_med) / base_med
        if base_med else 0.0,
        "better": metric["better"],
        "wins": wins,
        "pairs": len(pairs),
        "significant": significant,
        "bound": "exceeded" if worse > metric["bound"] else "within",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("rev", nargs="?")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=6.0)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    for w in workloads:
        if w not in known:
            ap.error("unknown workload %r (one of %s)" % (w, known))
    try:
        base = export(args.base)
        rev = (export(args.rev) if args.rev else
               {"rev": "working tree", "sha": git("rev-parse", "HEAD"),
                "tree": ROOT})
    except (subprocess.CalledProcessError, OSError) as e:
        log("ab: cannot export a revision: %s" % e)
        return 2

    ok = True
    out = {"base": {k: base[k] for k in ("rev", "sha")},
           "rev": {k: rev[k] for k in ("rev", "sha")},
           "pairs": args.pairs, "seconds": args.seconds,
           "workloads": {}}
    for side in (base, rev):
        # Too short to be checked (a thin latency tail reads as wrong),
        # so only the build counts.
        log("building and warming up %s" % side["rev"])
        run(side, workloads[0], 1, quiet=True)
    for w in workloads:
        pairs, failed = [], 0
        for i in range(args.pairs):
            order = (base, rev) if i % 2 == 0 else (rev, base)
            got = {id(s): run(s, w, args.seconds) for s in order}
            b, r = got[id(base)], got[id(rev)]
            if b is None or r is None:
                failed += 1
                continue
            pairs.append((b, r))
            log("%s pair %d/%d: %s" % (
                w, i + 1, args.pairs,
                " ".join("%s %.4g->%.4g" % (m, b[m], r[m]) for m in b)))
        entry = {"failed_pairs": failed, "metrics": {}}
        if pairs:
            for metric in bench["end_to_end"]:
                name = metric["name"]
                v = compare([(b[name], r[name]) for b, r in pairs], metric)
                entry["metrics"][name] = v
                ok = ok and v["bound"] == "within"
        ok = ok and failed == 0
        out["workloads"][w] = entry
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
