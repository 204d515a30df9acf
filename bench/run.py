"""sfsplace benchmark: one workload in one fresh process, closed loop.

    python3 bench/run.py --workload paper-nb --seed 1 --seconds 20 --trace 0

Operations run back to back, one at a time, until --seconds have passed
(at least one). An operation is what a user runs: `run_place`, then
`run_evaluate` on the picks where the workload evaluates. Each one is
checked against the recorded reference outside the timed region; one
that raises or fails the check counts as failed. A machine-speed
calibration (speed.py) runs before the first operation and after each
operation and setup sample; the end-to-end times are in its reference
seconds.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 runs one untraced warm-up operation, then alternates traced
and untraced ones, and reports per-layer totals, self times, counts,
numerical-health readouts and the tracing overhead. The last line of
stdout is the result as one JSON object; the lines above it are for
people.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checkout
import speed
from tracer import Tracer, summarize

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60


@dataclass
class Op:
    wall_s: float
    gate: object = None  # gate.GateResult, None when the operation raised
    spans: list | None = None
    bytes_written: int = 0
    sizes: dict | None = None

    @property
    def ok(self) -> bool:
        return self.gate is not None and self.gate.ok


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# measurement


def measure_setup(name: str, seed: int, samples: int, calibrate) -> list[float]:
    """Spawn-to-ready times of fresh processes that import and build the config.

    Runs a speed calibration after each sample.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    out = []
    for _ in range(samples):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(probe), name, str(seed)],
            cwd=checkout.ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError("setup probe for %s exited with %s" % (name, code))
        out.append(t1 - t0)
        calibrate()
    return out


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def run_one(workloads, gate, workload, config, reference, out_dir, tracer=None) -> Op:
    """One gated operation; a tracer's wrappers are in place for this operation only."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if tracer is not None:
        tracer.install()
        tracer.start()
    placed = None
    t0 = perf_counter()
    try:
        placed, evaluated = workloads.run_op(workload, config, out_dir)
    except Exception:  # a raising operation is a failed one; keep measuring
        traceback.print_exc()
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()
    if placed is None:
        return Op(wall)
    op = Op(wall, spans=None if tracer is None else tracer.spans,
            bytes_written=_dir_bytes(out_dir))
    try:
        op.gate = gate.check(config, placed, evaluated, out_dir, reference)
        op.sizes = workloads.run_sizes(config, placed["problems"])
    except Exception:  # outputs the gate cannot read make a failed operation
        traceback.print_exc()
        op.gate = gate.GateResult(failures=["the gate could not read the outputs"])
    for failure in op.gate.failures:
        print("gate: %s" % failure, file=sys.stderr)
    return op


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# ---------------------------------------------------------------------------
# run record


def blas_info() -> dict:
    """BLAS build and thread count as the loaded numpy reports them."""
    import numpy as np

    build = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    info = {"name": build.get("name"), "version": build.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                break
    info["env"] = {
        k: os.environ[k]
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return info


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((checkout.SRC / "sfsplace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (checkout.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout.ROOT, capture_output=True,
            text=True, timeout=30,
        )
        rev = proc.stdout.strip() or None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def run_record(args, ops, cal, setup, absent) -> dict:
    import numpy
    import scipy

    last = next((op for op in reversed(ops) if op.gate is not None), None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": "closed, one operation at a time, threads=1",
        **source_identity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": blas_info(),
        "sizes": None if last is None else last.sizes,
        "ops": len(ops),
        "failed": sum(not op.ok for op in ops),
        "wall_s": [op.wall_s for op in ops],
        "setup_s": setup,
        "calibration_s": cal,
        "speed_factor": speed.factor(cal),
        "absent_targets": absent,
        "gate": None if last is None else {
            "picks_changed": last.gate.picks_changed,
            "trace_drift_rel": last.gate.trace_drift_rel,
            "sdr_err_db": last.gate.sdr_err_db,
            "sdr_rows_checked": last.gate.sdr_rows_checked,
        },
    }


# ---------------------------------------------------------------------------
# metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_db"):
        return "dB"
    if name.endswith("_rel"):
        return "rel"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, setup, cal) -> dict:
    """Times in reference seconds (speed.py).

    wall_s leaves out the first operation, which pays one-off costs, when
    the run has more than one.
    """
    k = speed.factor(cal)
    warm = ops[1:] or ops
    walls = [k * op.wall_s for op in warm if op.ok] or [k * op.wall_s for op in warm]
    setup = [k * t for t in setup]
    q1, q3 = quartiles(walls)
    sq1, sq3 = quartiles(setup)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("speed factor %.4f  (reference / measured seconds, %d calibrations)" % (k, len(cal)))
    print("wall_s       median %.4f s  q1 %.4f  q3 %.4f  n=%d" % (
        statistics.median(walls), q1, q3, len(walls)))
    print("setup_s      median %.4f s  q1 %.4f  q3 %.4f  n=%d" % (
        statistics.median(setup), sq1, sq3, len(setup)))
    print("peak_rss_mb  %.1f MB  (whole process, n=1)" % peak)
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak, "MB"),
    }


def per_layer(workload, traced, untraced, config_layers) -> dict:
    """Medians over the traced operations; `untraced` gives the overhead's base."""
    layers = [summarize(op.spans) for op in traced]
    keys = list(layers[0])
    values = {k: statistics.median(x[k] + config_layers[k] for x in layers) for k in keys}
    last = traced[-1]
    values["experiment.bytes_written"] = statistics.median(op.bytes_written for op in traced)
    untraced_wall = statistics.median(op.wall_s for op in untraced)
    values["trace.overhead_s"] = statistics.median(op.wall_s for op in traced) - untraced_wall
    values["placement.trace_drift_rel"] = last.gate.trace_drift_rel
    values["placement.picks_changed"] = last.gate.picks_changed
    values["synthesis.sdr_err_db"] = last.gate.sdr_err_db

    print("traced ops %d, untraced ops %d (median wall %.4f s), overhead %.4f s" % (
        len(traced), len(untraced), untraced_wall, values["trace.overhead_s"]))
    print("%-28s %12s %12s" % ("layer metric", "total", "self"))
    for k in keys:
        if k.endswith("_self_s") or not k.endswith("_s") or k.startswith("layer."):
            continue
        base = k[: -len("_s")]
        print("%-28s %12.4f %12.4f" % (base, values[k], values[base + "_self_s"]))
    for k in keys:
        if k.startswith("layer."):
            print("%-28s %12s %12.4f" % (k[: -len(".self_s")], "", values[k]))
    spans = [(values[k], k[: -len("_self_s")]) for k in keys if k.endswith("_self_s")]
    top = max(spans)[1]
    verdict = "matches" if top in workload.dominant else "MISMATCH, expected one of %s" % (
        ", ".join(workload.dominant))
    print("dominant self time: %s (%s)" % (top, verdict))
    return {k: _metric(v, unit_of(k)) for k, v in values.items()}


# ---------------------------------------------------------------------------


def measure(args, workload, config, reference, op_dir, tracer, config_layers, calibrate):
    """Operations until the deadline; returns (ops, setup times, metrics or None)."""
    import gate
    import workloads

    ops = []

    def step(op_tracer=None) -> Op:
        op = run_one(workloads, gate, workload, config, reference, op_dir, op_tracer)
        calibrate()
        ops.append(op)
        return op

    calibrate()
    if not args.trace:
        # Setup samples go half before and half after the operations, so
        # the run's calibrations sit on both sides of the operations.
        before = SETUP_SAMPLES // 2
        setup = measure_setup(workload.name, args.seed, before, calibrate)
        deadline = perf_counter() + args.seconds
        step()
        while perf_counter() < deadline:
            step()
        setup += measure_setup(workload.name, args.seed, SETUP_SAMPLES - before, calibrate)
        return ops, setup, end_to_end(ops, setup, calibrate.times)
    deadline = perf_counter() + args.seconds
    step()
    # The first operation is a cold warm-up here. Traced and untraced
    # operations then alternate, so trace.overhead_s compares warm ones.
    traced, untraced = [], []
    while not untraced or perf_counter() < deadline:
        turn = traced if len(traced) <= len(untraced) else untraced
        turn.append(step(tracer if turn is traced else None))
    traced = [op for op in traced if op.gate is not None]
    untraced = [op for op in untraced if op.gate is not None]
    if not traced or not untraced:
        return ops, [], None
    return ops, [], per_layer(workload, traced, untraced, config_layers)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        checkout.use_checkout_source()
    except checkout.CheckoutError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    import gate
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    try:
        reference = gate.load_reference(workload.name)
    except OSError as exc:
        print("error: no reference for %s: %s" % (workload.name, exc), file=sys.stderr)
        return 2

    out_dir = checkout.OUT / workload.name
    op_dir = str(out_dir / "op")
    tracer = Tracer()
    tracer.start()
    with tracer.span("config_load"):
        config = workload.make_config(args.seed, op_dir)
    config_layers = summarize(tracer.stop())

    print("workload %s  seed %d  trace %d  seconds %g  (closed loop, 1 job)" % (
        workload.name, args.seed, args.trace, args.seconds))
    with speed.Calibrator() as calibrate:
        ops, setup, metrics = measure(
            args, workload, config, reference, op_dir, tracer, config_layers, calibrate)
    if metrics is None:
        print("error: every traced or every untraced operation raised", file=sys.stderr)
        return 1
    if tracer.absent:
        print("absent targets (metrics read 0): %s" % ", ".join(tracer.absent))

    failed = sum(not op.ok for op in ops)
    record = run_record(args, ops, calibrate.times, setup, tracer.absent)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ("run_record_trace%d.json" % args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("record " + json.dumps(record, sort_keys=True))
    print("gate: %d of %d operations passed" % (len(ops) - failed, len(ops)))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
