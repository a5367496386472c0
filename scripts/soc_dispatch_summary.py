#!/usr/bin/env python3
"""Emit a markdown table of interp-vs-compiled SoC dispatch counts.

Reads one google-benchmark JSON output holding both backend legs of
BM_SoCContention (BM_SoCContention/interp/N and
BM_SoCContention/compiled/N) and prints a GitHub-flavored markdown
table of the per-arg dispatchCount delta, for the CI job summary.
Cycles and ops must be identical between the legs (the compiled
backend may only change how many dispatches execute the same work), and
the compiled leg must dispatch strictly fewer times (superinstruction
fusion, connection-carrying reads/writes included). Either failure
exits nonzero.

Usage:
    soc_dispatch_summary.py SOC.json
"""

import json
import sys

PREFIX = "BM_SoCContention/"


def load_legs(path):
    """Return {backend: {arg: row}} for the BM_SoCContention rows."""
    with open(path) as f:
        data = json.load(f)
    legs = {}
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") == "aggregate" or not name.startswith(PREFIX):
            continue
        backend, _, arg = name[len(PREFIX):].partition("/")
        legs.setdefault(backend, {})[arg] = b
    return legs


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    legs = load_legs(sys.argv[1])
    interp, compiled = legs.get("interp", {}), legs.get("compiled", {})
    args = sorted(set(interp) & set(compiled), key=int)
    if not args:
        print("error: no BM_SoCContention arg has both an interp and a "
              "compiled row", file=sys.stderr)
        return 2

    print("### SoC shared-bus dispatch counts (interp vs compiled)\n")
    print("| bus bytes/cycle | cycles | ops | interp dispatches "
          "| compiled dispatches | reduction |")
    print("|---|---|---|---|---|---|")
    divergent, not_fewer = [], []
    for arg in args:
        i, c = interp[arg], compiled[arg]
        if (i.get("cycles") != c.get("cycles")
                or i.get("ops") != c.get("ops")):
            divergent.append(arg)
        idisp, cdisp = i.get("dispatches", 0), c.get("dispatches", 0)
        if not cdisp < idisp:
            not_fewer.append(arg)
        ratio = f"{idisp / cdisp:.2f}x" if cdisp else "-"
        print(f"| {arg} | {i.get('cycles', 0):.0f} "
              f"| {i.get('ops', 0):.0f} | {idisp:.0f} | {cdisp:.0f} "
              f"| {ratio} |")

    status = 0
    if divergent:
        print(f"\nerror: cycles/ops differ between the interp and "
              f"compiled legs for arg(s) {', '.join(divergent)} -- the "
              f"compiled backend changed observable behaviour",
              file=sys.stderr)
        status = 1
    if not_fewer:
        print(f"\nerror: the compiled leg did not dispatch strictly fewer "
              f"times for arg(s) {', '.join(not_fewer)} -- fusion no "
              f"longer covers the SoC bodies", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
