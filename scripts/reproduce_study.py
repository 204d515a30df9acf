"""Run the built-in reverberant study end to end and print the summary.

Equivalent to `sfsplace reproduce-paper`; takes 0.3 to 0.5 seconds on two cores.
The JSON summary goes to stdout; the wall time and the process's peak
resident memory (ru_maxrss) go to stderr.

Usage: python scripts/reproduce_study.py [--out DIR]
"""

import argparse
import json
import resource
import sys
from time import perf_counter

from sfsplace import run_reproduce


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="paper_out")
    args = ap.parse_args()
    start = perf_counter()
    summary = run_reproduce(out_dir=args.out)
    wall = perf_counter() - start
    print(json.dumps(summary, indent=2, sort_keys=True))
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("wall %.2f s, peak RSS %.1f MB" % (wall, peak_mb), file=sys.stderr)


if __name__ == "__main__":
    main()
