"""Run the built-in reverberant study end to end and print the summary.

Equivalent to `sfsplace reproduce-paper`; takes under 10 seconds on two cores.

Usage: python scripts/reproduce_study.py [--out DIR]
"""

import argparse
import json

from sfsplace import run_reproduce


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="paper_out")
    args = ap.parse_args()
    summary = run_reproduce(out_dir=args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
