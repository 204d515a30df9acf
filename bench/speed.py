"""Machine-speed calibration for the end-to-end timings.

The shared 2-core VM the benchmark was defined on changes speed by up to
a factor of three, for seconds or for minutes at a time, and every
timing moves with it: interpreter start, imports, Python and numpy work
alike. There is no steal time to show it, and no hardware counters.

A run therefore times a fixed job once at its start and again after
each operation and each setup sample. The job runs a pure-Python loop
and streams two 64 MB arrays, so it feels both the interpreter's speed
and the memory bandwidth and last-level cache that other tenants share.
`factor(times)` turns the run's measured seconds into reference seconds:
the time they would take when the job takes REFERENCE_S. It uses the
median over the whole run, because one job is short and can catch a
blip that the much longer operations around it do not feel.

The job runs in a child process, so its arrays stay out of the run's
peak memory, and it runs no sfsplace code, so a change to sfsplace
cannot move it.

    python3 bench/speed.py      # serve: one job per line read, seconds written back
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

ITERATIONS = 1_250_000
STREAM_DOUBLES = 8_000_000
STREAM_PASSES = 4
# A typical time of one job on the reference VM (Intel Xeon, 2 vCPU,
# 105 MB shared last-level cache, Python 3.11, numpy 2.4), where it ranged
# from about 0.12 to 0.25 s.
REFERENCE_S = 0.17
JOB_TIMEOUT_S = 60


def job(a, b) -> float:
    """Seconds for one calibration job; `a` and `b` are the streamed arrays."""
    import numpy as np

    t0 = perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    for _ in range(STREAM_PASSES):
        np.multiply(a, 1.0001, out=b)
    return perf_counter() - t0


def factor(times) -> float:
    """Multiplier from a run's measured seconds to reference seconds."""
    return REFERENCE_S / statistics.median(times)


class Calibrator:
    """Runs the job in a child process on each call; keeps every time measured."""

    def __init__(self):
        self.times: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process exited with %s" % self._proc.poll())
        self.times.append(float(line))
        return self.times[-1]

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve():
    import numpy as np

    a = np.ones(STREAM_DOUBLES)
    b = np.empty_like(a)
    job(a, b)  # the first job also pays for page faults and warm-up
    for _ in sys.stdin:
        sys.stdout.write("%r\n" % job(a, b))
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
