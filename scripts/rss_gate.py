#!/usr/bin/env python3
"""Run a command and fail when its peak resident set exceeds a limit.

The limit applies to the largest resident set of the command (and of
any process it waited for), as getrusage(RUSAGE_CHILDREN) reports it.
Exit status: the command's own when it fails, 1 when it exceeds the
limit, 0 otherwise. The peak is printed either way.

Usage: rss_gate.py LIMIT_MB COMMAND [ARG...]

Example (a long systolic run must stay within 100 MB):
    rss_gate.py 100 build/src/eqsweep --model systolic \\
        --axis ah=4 --axis aw=4 --axis n=20000
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    limit_mb = float(argv[1])
    rc = subprocess.run(argv[2:], stdout=subprocess.DEVNULL).returncode
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB)")
    if rc != 0:
        print(f"command failed with exit status {rc}", file=sys.stderr)
        return rc
    if peak_mb > limit_mb:
        print(f"peak RSS {peak_mb:.1f} MB exceeds {limit_mb:g} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
