"""Run every workload, each in its own fresh process, and print their reports.

    python3 bench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload goes through run.py exactly as a single run does; this
script prints each run's report (every metric with its unit and sample
count) without the run record, and its gate result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    status = 0
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=BENCH.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit %d\n%s" % (w["name"], proc.returncode, proc.stderr), file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        status |= not res["correct"]
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        print("%s: %s\n" % (w["name"], "correct" if res["correct"] else "INCORRECT"))
    return status


if __name__ == "__main__":
    sys.exit(main())
