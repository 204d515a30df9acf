"""Layer spans recorded from outside the program.

The tracer wraps public entry points of sfsplace's modules, records one
span (name, start, end, parent) per call while recording is on, and turns
an operation's spans into per-layer totals, self times and work counts.
Nothing in sfsplace knows about it.

`experiment` and `synthesis` import names with `from .x import`, so a
wrapper is rebound in every sfsplace module namespace that holds the
same function object, not only in the defining module. A target that the
code no longer has is reported as absent and its metric reads 0.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

LAYERS = ("config", "specfun", "wavefield", "room", "synthesis", "placement", "experiment")


# Counts read the result only, so a changed call signature cannot break them.
def _orders_values(result):
    # an order block is (orders + 1, *args.shape): Sigma args x (orders + 1)
    return int(np.size(result))


def _greedy_steps(result):
    return len(result.indices)


@dataclass(frozen=True)
class Target:
    """A wrapped entry point: `attr` may be `Class.method` for a classmethod."""

    key: str
    module: str
    attr: str
    count: Callable | None = None


@dataclass(frozen=True)
class SpanMetric:
    """Spans of `targets` give `<name>_s` (total) and `<name>_self_s`.

    A span whose parent is one of `skip_under` belongs to that parent's
    metric instead (J orders computed inside a Hankel call are Hankel work).
    `count_name` reports the call count, or the targets' own count when
    they have one.
    """

    name: str
    targets: tuple[str, ...]
    count_name: str | None = None
    skip_under: tuple[str, ...] = ()


TARGETS = (
    Target("hankel1_orders", "specfun", "hankel1_orders", _orders_values),
    Target("bessel_j_orders", "specfun", "bessel_j_orders", _orders_values),
    Target("green2d_many", "wavefield", "green2d_many"),
    Target("image_sources", "room", "image_sources"),
    Target("room_transfer_many", "room", "room_transfer_many"),
    Target("source_coeff_matrix", "synthesis", "source_coeff_matrix"),
    Target("weight_matrix_circle", "synthesis", "weight_matrix_circle"),
    Target("synthesis_lambda", "synthesis", "synthesis_lambda"),
    Target("solve_wmm", "synthesis", "solve_wmm"),
    Target("sdr", "synthesis", "sdr"),
    Target("prior_from_direction_range", "placement", "prior_from_direction_range"),
    Target("from_problem", "placement", "SelectionState.from_problem"),
    Target("greedy_place_broadband", "placement", "greedy_place_broadband", _greedy_steps),
    Target("build_problems", "experiment", "build_problems"),
    Target("evaluate_placements", "experiment", "evaluate_placements"),
    Target("write_placement_csv", "experiment", "write_placement_csv"),
    Target("write_trace_csv", "experiment", "write_trace_csv"),
    Target("write_sdr_csv", "experiment", "write_sdr_csv"),
    Target("echo_config", "experiment", "_echo_config"),
    Target("run_place", "experiment", "run_place"),
    Target("run_evaluate", "experiment", "run_evaluate"),
)

SPAN_METRICS = (
    SpanMetric("specfun.hankel", ("hankel1_orders",), "specfun.hankel_values"),
    SpanMetric(
        "specfun.bessel_j",
        ("bessel_j_orders",),
        "specfun.bessel_j_values",
        skip_under=("hankel1_orders",),
    ),
    SpanMetric("wavefield.green", ("green2d_many",)),
    SpanMetric("room.image_table", ("image_sources",), "room.image_table_calls"),
    SpanMetric("room.transfer", ("room_transfer_many",), "room.transfer_calls"),
    SpanMetric("synthesis.coeff_matrix", ("source_coeff_matrix",)),
    SpanMetric("synthesis.weight", ("weight_matrix_circle",)),
    SpanMetric("synthesis.lambda", ("synthesis_lambda",)),
    SpanMetric("synthesis.solve", ("solve_wmm",), "synthesis.solves"),
    SpanMetric("synthesis.sdr", ("sdr",)),
    SpanMetric("placement.prior", ("prior_from_direction_range",)),
    SpanMetric("placement.state_build", ("from_problem",)),
    SpanMetric("placement.greedy", ("greedy_place_broadband",), "placement.greedy_steps"),
    SpanMetric("experiment.build", ("build_problems",)),
    SpanMetric("experiment.evaluate", ("evaluate_placements",)),
    SpanMetric(
        "experiment.write",
        ("write_placement_csv", "write_trace_csv", "write_sdr_csv", "echo_config"),
    ),
    SpanMetric("experiment.run", ("run_place", "run_evaluate")),
    # recorded by the benchmark itself around building the config
    SpanMetric("config.load", ("config_load",)),
)

_MODULE_OF = {t.key: t.module for t in TARGETS}
_MODULE_OF["config_load"] = "config"
_COUNTED = {t.key for t in TARGETS if t.count is not None}


class Tracer:
    """Installs wrappers on sfsplace and keeps the spans of one operation."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.absent: list[str] = []
        self.spans: list[list] = []  # [key, start, end, parent, count]
        self._stack: list[int] = []
        self._recording = False
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        self.absent = []
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sfsplace" or name.startswith("sfsplace."))
        ]
        for target in self.targets:
            mod = sys.modules.get("sfsplace." + target.module)
            owner_name, _, leaf = target.attr.rpartition(".")
            owner = mod if not owner_name else getattr(mod, owner_name, None)
            if owner is None or leaf not in vars(owner):
                self.absent.append(target.key)
                continue
            raw = vars(owner)[leaf]
            if owner_name:
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(target, fn)
                setattr(owner, leaf, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                self._restore.append((owner, leaf, raw))
                continue
            wrapped = self._wrap(target, raw)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, name, wrapped)
                        self._restore.append((m, name, raw))

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            return tracer._call(target, fn, args, kwargs)

        return wrapper

    def _call(self, target, fn, args, kwargs):
        with self.span(target.key) as record:
            result = fn(*args, **kwargs)
        if target.count is not None:
            record[4] = target.count(result)
        return result

    # -- recording ---------------------------------------------------------

    def start(self):
        self.spans = []
        self._stack = []
        self._recording = True

    def stop(self) -> list[list]:
        self._recording = False
        return self.spans

    @contextlib.contextmanager
    def span(self, key):
        """Record one span around the block; yields [key, start, end, parent, count]."""
        record = [key, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()


def summarize(spans) -> dict:
    """Per-layer metrics of one operation's spans, by metric name."""
    child = [0.0] * len(spans)
    for key, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for metric in SPAN_METRICS:
        total = self_time = 0.0
        calls = counted = 0
        for i, (key, start, end, parent, count) in enumerate(spans):
            if key not in metric.targets:
                continue
            if parent >= 0 and spans[parent][0] in metric.skip_under:
                continue
            self_time += end - start - child[i]
            calls += 1
            counted += count
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] not in metric.targets:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total += end - start
        out[metric.name + "_s"] = total
        out[metric.name + "_self_s"] = self_time
        if metric.count_name:
            out[metric.count_name] = counted if _COUNTED & set(metric.targets) else calls
    for layer in LAYERS:
        out["layer.%s.self_s" % layer] = 0.0
    for i, (key, start, end, _, _) in enumerate(spans):
        out["layer.%s.self_s" % _MODULE_OF[key]] += end - start - child[i]
    return out
