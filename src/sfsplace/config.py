"""Experiment configuration: JSON schema, validation, env overrides.

A config is a single JSON document. All physical quantities are SI;
angles are degrees in the file and converted to radians at the library
boundary. Sweep shorthands (frequency start/stop/step, angle sweeps,
scalar gamma) are resolved to explicit lists at parse time so the
re-emitted document is a complete record of the run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .placement import DirectionRangePrior
from .room import RoomModel
from .wavefield import CircularRegion, Point2

ENV_PREFIX = "SFSPLACE_"

_METHODS = ("wmm", "mode-matching", "pressure-matching")
_BASELINES = ("regular_a", "regular_b")


def _finite(x) -> float:
    try:
        v = float(x)
    except TypeError:
        raise ValueError("config numbers must be numbers, got %r" % (x,)) from None
    if not math.isfinite(v):
        raise ValueError("config numbers must be finite")
    return v


def _integer(x, name) -> int:
    """x as an int; booleans and non-integral values are rejected, not truncated."""
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if isinstance(x, bool) or v is None or v != x:
        raise ValueError("%s must be an integer, got %r" % (name, x))
    return v


def _point(x) -> tuple[float, float]:
    try:
        seq = tuple(_finite(v) for v in x)
    except TypeError:
        raise ValueError("points are [x, y] pairs") from None
    if len(seq) != 2:
        raise ValueError("points are [x, y] pairs")
    return seq


def _section(doc, name, known, required=()):
    """The JSON object doc at config key name, with its keys checked."""
    if not isinstance(doc, dict):
        raise ValueError("%s must be a JSON object" % name)
    unknown = set(doc) - set(known)
    if unknown:
        raise ValueError("unknown %s keys: %s" % (name, sorted(unknown)))
    for key in required:
        if key not in doc:
            raise ValueError("%s is missing required key %r" % (name, key))
    return doc


def _spec(cls, doc, name):
    """cls built from the JSON object doc, its keys checked against cls's fields."""
    known = [f.name for f in fields(cls)]
    required = [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]
    return cls(**_section(doc, name, known, required))


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room, centered on the origin."""

    size_x: float
    size_y: float
    reflection: tuple[float, float, float, float]
    max_reflection_order: int = 10

    def __post_init__(self):
        refl = self.reflection
        if isinstance(refl, (int, float)):
            refl = (float(refl),) * 4
        if not isinstance(refl, (list, tuple)):
            raise ValueError("reflection is a scalar or [left, right, bottom, top]")
        refl = tuple(_finite(b) for b in refl)
        if len(refl) != 4:
            raise ValueError("reflection is a scalar or [left, right, bottom, top]")
        object.__setattr__(self, "reflection", refl)
        object.__setattr__(self, "size_x", _finite(self.size_x))
        object.__setattr__(self, "size_y", _finite(self.size_y))
        object.__setattr__(
            self,
            "max_reflection_order",
            _integer(self.max_reflection_order, "room.max_reflection_order"),
        )

    def to_model(self) -> RoomModel:
        return RoomModel(
            self.size_x,
            self.size_y,
            self.reflection,
            max_reflection_order=self.max_reflection_order,
        )

    def to_dict(self) -> dict:
        return {
            "size_x": self.size_x,
            "size_y": self.size_y,
            "reflection": list(self.reflection),
            "max_reflection_order": self.max_reflection_order,
        }


@dataclass(frozen=True)
class CandidateSpec:
    """Either a square boundary loop or an explicit position list."""

    square_size: float | None = None
    square_count: int | None = None
    square_center: tuple[float, float] = (0.0, 0.0)
    positions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        has_square = self.square_size is not None or self.square_count is not None
        has_explicit = self.positions is not None
        if has_square == has_explicit:
            raise ValueError("candidates: give either a square generator or positions")
        if has_square:
            if self.square_size is None or self.square_count is None:
                raise ValueError("square candidates need both size and count")
            size = _finite(self.square_size)
            count = _integer(self.square_count, "candidates.square.count")
            if size <= 0.0 or count < 1:
                raise ValueError("square candidates need size > 0 and count >= 1")
            object.__setattr__(self, "square_size", size)
            object.__setattr__(self, "square_count", count)
            object.__setattr__(self, "square_center", _point(self.square_center))
        else:
            pts = tuple(_point(p) for p in self.positions)
            if not pts:
                raise ValueError("explicit candidate list is empty")
            object.__setattr__(self, "positions", pts)

    @property
    def count(self) -> int:
        if self.positions is not None:
            return len(self.positions)
        return self.square_count

    def resolve(self) -> np.ndarray:
        """Candidate positions as an (N, 2) array."""
        if self.positions is not None:
            return np.asarray(self.positions, dtype=np.float64)
        return square_loop(self.square_size, self.square_count, self.square_center)

    def to_dict(self) -> dict:
        if self.positions is not None:
            return {"positions": [list(p) for p in self.positions]}
        return {
            "square": {
                "size": self.square_size,
                "count": self.square_count,
                "center": list(self.square_center),
            }
        }


def square_loop(size: float, count: int, center=(0.0, 0.0)) -> np.ndarray:
    """Equally spaced points tracing a square boundary counterclockwise.

    Starts at the lower-left corner; spacing is perimeter/count, so a
    count divisible by 4 puts count/4 points on each side.
    """
    if size <= 0.0 or count < 1:
        raise ValueError("need size > 0 and count >= 1")
    s = float(size)
    t = (4.0 * s / count) * np.arange(count)
    side = np.minimum((t // s).astype(int), 3)
    u = t - side * s
    x = np.choose(side, [u, np.full_like(u, s), s - u, np.zeros_like(u)])
    y = np.choose(side, [np.zeros_like(u), u, np.full_like(u, s), s - u])
    out = np.c_[x - 0.5 * s + center[0], y - 0.5 * s + center[1]]
    return out


@dataclass(frozen=True)
class PriorSpec:
    """Uniform plane-wave direction range, degrees."""

    angle_min_deg: float
    angle_max_deg: float
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "angle_min_deg", _finite(self.angle_min_deg))
        object.__setattr__(self, "angle_max_deg", _finite(self.angle_max_deg))
        object.__setattr__(self, "amplitude", _finite(self.amplitude))
        if not self.angle_min_deg < self.angle_max_deg:
            raise ValueError("prior needs angle_min_deg < angle_max_deg")
        if self.amplitude <= 0.0:
            raise ValueError("prior amplitude must be positive")

    def to_range(self) -> DirectionRangePrior:
        return DirectionRangePrior(
            math.radians(self.angle_min_deg),
            math.radians(self.angle_max_deg),
            amplitude=self.amplitude,
        )

    def to_dict(self) -> dict:
        return {
            "angle_min_deg": self.angle_min_deg,
            "angle_max_deg": self.angle_max_deg,
            "amplitude": self.amplitude,
        }


@dataclass(frozen=True)
class EvalSpec:
    """Evaluation sweep: plane-wave angles, grid, optional field dumps."""

    angles_deg: tuple[float, ...] = ()
    grid_spacing: float = 0.01
    write_fields: bool = False
    desired: str = "plane_wave"
    desired_position: tuple[float, float] | None = None
    placement: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "angles_deg", tuple(_finite(a) for a in self.angles_deg)
        )
        object.__setattr__(self, "grid_spacing", _finite(self.grid_spacing))
        if self.grid_spacing <= 0.0:
            raise ValueError("grid_spacing must be positive")
        if self.desired not in ("plane_wave", "point_source"):
            raise ValueError("desired must be plane_wave or point_source")
        if self.desired == "point_source":
            if self.desired_position is None:
                raise ValueError("point_source desired field needs a position")
            object.__setattr__(self, "desired_position", _point(self.desired_position))
        elif self.desired_position is not None:
            raise ValueError("desired_position only applies to point_source")
        if self.placement is not None:
            if not isinstance(self.placement, (list, tuple)):
                raise ValueError("evaluation.placement must be a list of candidate indices")
            object.__setattr__(
                self,
                "placement",
                tuple(_integer(i, "evaluation.placement") for i in self.placement),
            )
        if not isinstance(self.write_fields, bool):
            raise ValueError("evaluation.write_fields must be true or false")

    def to_dict(self) -> dict:
        out = {
            "angles_deg": list(self.angles_deg),
            "grid_spacing": self.grid_spacing,
            "write_fields": self.write_fields,
            "desired": self.desired,
        }
        if self.desired_position is not None:
            out["desired_position"] = list(self.desired_position)
        if self.placement is not None:
            out["placement"] = list(self.placement)
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    """One end-to-end run: geometry, prior, frequencies, solver knobs."""

    candidates: CandidateSpec
    region_center: tuple[float, float]
    region_radius: float
    prior: PriorSpec
    frequencies: tuple[float, ...]
    n_select: int
    room: RoomSpec | None = None
    gamma: tuple[float, ...] | None = None
    min_decrease: float | None = None
    lambda_select: float = 1e-5
    lambda_synth_scale: float = 1e-3
    method: str = "wmm"
    pm_control_spacing: float | None = None
    baselines: tuple[str, ...] = ()
    evaluation: EvalSpec = field(default_factory=EvalSpec)
    output_dir: str = "out"
    sound_speed: float = 343.0

    def __post_init__(self):
        object.__setattr__(self, "region_center", _point(self.region_center))
        object.__setattr__(self, "region_radius", _finite(self.region_radius))
        freqs = tuple(_finite(f) for f in self.frequencies)
        if not freqs or any(f <= 0.0 for f in freqs):
            raise ValueError("frequencies must be a non-empty list of positive Hz")
        object.__setattr__(self, "frequencies", freqs)
        gamma = self.gamma
        if gamma is None:
            gamma = (1.0,) * len(freqs)
        elif isinstance(gamma, (int, float)):
            gamma = (_finite(gamma),) * len(freqs)
        else:
            gamma = tuple(_finite(g) for g in gamma)
        if len(gamma) != len(freqs) or any(g <= 0.0 for g in gamma):
            raise ValueError("gamma must be positive, one weight per frequency")
        object.__setattr__(self, "gamma", gamma)
        if self.region_radius <= 0.0:
            raise ValueError("region radius must be positive")
        object.__setattr__(self, "n_select", _integer(self.n_select, "n_select"))
        if not 1 <= self.n_select <= self.candidates.count:
            raise ValueError("n_select must lie in [1, candidate count]")
        if self.min_decrease is not None:
            object.__setattr__(self, "min_decrease", _finite(self.min_decrease))
        object.__setattr__(self, "lambda_select", _finite(self.lambda_select))
        object.__setattr__(self, "lambda_synth_scale", _finite(self.lambda_synth_scale))
        if self.lambda_select <= 0.0 or self.lambda_synth_scale <= 0.0:
            raise ValueError("regularizers must be positive")
        if self.method not in _METHODS:
            raise ValueError("method must be one of %s" % (_METHODS,))
        if self.pm_control_spacing is not None:
            object.__setattr__(
                self, "pm_control_spacing", _finite(self.pm_control_spacing)
            )
            if self.pm_control_spacing <= 0.0:
                raise ValueError("pm_control_spacing must be positive")
        if not isinstance(self.baselines, (list, tuple)):
            raise ValueError("baselines must be a list")
        baselines = tuple(self.baselines)
        if any(b not in _BASELINES for b in baselines):
            raise ValueError("baselines must be among %s" % (_BASELINES,))
        object.__setattr__(self, "baselines", baselines)
        object.__setattr__(self, "sound_speed", _finite(self.sound_speed))
        if self.sound_speed <= 0.0:
            raise ValueError("sound_speed must be positive")
        self._check_geometry()

    def _check_geometry(self):
        cx, cy = self.region_center
        r = self.region_radius
        pts = self.candidates.resolve()
        if self.room is not None:
            model = self.room.to_model()
            hx, hy = 0.5 * model.size_x, 0.5 * model.size_y
            if abs(cx) + r >= hx or abs(cy) + r >= hy:
                raise ValueError("target region must lie inside the room")
            for p in pts:
                if not model.contains(p):
                    raise ValueError(
                        "candidate (%.6g, %.6g) lies outside the room" % (p[0], p[1])
                    )
        d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        if np.min(d) <= r:
            i = int(np.argmin(d))
            raise ValueError(
                "candidate (%.6g, %.6g) intersects the target region"
                % (pts[i, 0], pts[i, 1])
            )

    # -- geometry accessors ------------------------------------------------

    @property
    def region(self) -> CircularRegion:
        return CircularRegion(Point2(*self.region_center), self.region_radius)

    def room_model(self) -> RoomModel | None:
        return None if self.room is None else self.room.to_model()

    def candidate_positions(self) -> np.ndarray:
        return self.candidates.resolve()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "candidates": self.candidates.to_dict(),
            "region": {"center": list(self.region_center), "radius": self.region_radius},
            "prior": self.prior.to_dict(),
            "frequencies": list(self.frequencies),
            "gamma": list(self.gamma),
            "n_select": self.n_select,
            "lambda_select": self.lambda_select,
            "lambda_synth_scale": self.lambda_synth_scale,
            "method": self.method,
            "baselines": list(self.baselines),
            "evaluation": self.evaluation.to_dict(),
            "output_dir": self.output_dir,
            "sound_speed": self.sound_speed,
        }
        if self.room is not None:
            out["room"] = self.room.to_dict()
        if self.min_decrease is not None:
            out["min_decrease"] = self.min_decrease
        if self.pm_control_spacing is not None:
            out["pm_control_spacing"] = self.pm_control_spacing
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = _section(
            doc,
            "config",
            (
                "candidates", "region", "prior", "frequencies", "gamma", "n_select",
                "room", "min_decrease", "lambda_select", "lambda_synth_scale",
                "method", "pm_control_spacing", "baselines", "evaluation",
                "output_dir", "sound_speed",
            ),
            ("candidates", "region", "prior", "frequencies", "n_select"),
        )

        cand_doc = _section(doc["candidates"], "candidates", ("positions", "square"))
        if "positions" in cand_doc:
            candidates = CandidateSpec(positions=cand_doc["positions"])
        elif "square" in cand_doc:
            sq = _section(
                cand_doc["square"],
                "candidates.square",
                ("size", "count", "center"),
                ("size", "count"),
            )
            candidates = CandidateSpec(
                square_size=sq["size"],
                square_count=sq["count"],
                square_center=sq.get("center", (0.0, 0.0)),
            )
        else:
            raise ValueError("candidates: give either a square generator or positions")

        region = _section(doc["region"], "region", ("center", "radius"), ("center", "radius"))
        prior = _spec(PriorSpec, doc["prior"], "prior")
        room = None if doc.get("room") is None else _spec(RoomSpec, doc["room"], "room")
        freqs = _resolve_sweep(doc["frequencies"], "frequencies")
        eval_doc = doc.get("evaluation", {})
        if isinstance(eval_doc, dict) and "angles_deg" in eval_doc:
            angles = _resolve_sweep(
                eval_doc["angles_deg"], "evaluation.angles_deg", allow_empty=True
            )
            eval_doc = dict(eval_doc, angles_deg=angles)
        evaluation = _spec(EvalSpec, eval_doc, "evaluation")

        return cls(
            candidates=candidates,
            region_center=region["center"],
            region_radius=region["radius"],
            prior=prior,
            frequencies=freqs,
            n_select=doc["n_select"],
            room=room,
            gamma=doc.get("gamma"),
            min_decrease=doc.get("min_decrease"),
            lambda_select=doc.get("lambda_select", 1e-5),
            lambda_synth_scale=doc.get("lambda_synth_scale", 1e-3),
            method=doc.get("method", "wmm"),
            pm_control_spacing=doc.get("pm_control_spacing"),
            baselines=doc.get("baselines", ()),
            evaluation=evaluation,
            output_dir=doc.get("output_dir", "out"),
            sound_speed=doc.get("sound_speed", 343.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


def _resolve_sweep(value, name, allow_empty=False):
    """Expand {start, stop, step} shorthand into an explicit list."""
    if isinstance(value, dict):
        keys = ("start", "stop", "step")
        sweep = _section(value, name, keys, keys)
        start, stop, step = (_finite(sweep[k]) for k in keys)
        if step <= 0 or stop < start:
            raise ValueError("sweep needs step > 0 and stop >= start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(float(start + i * step) for i in range(n))
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list or a {start, stop, step} sweep" % name)
    out = tuple(_finite(v) for v in value)
    if not out and not allow_empty:
        raise ValueError("empty sweep")
    return out


# ---------------------------------------------------------------------------
# environment overrides


def _scalar_paths(doc, prefix=()):
    for key, val in doc.items():
        path = prefix + (key,)
        if isinstance(val, dict):
            yield from _scalar_paths(val, path)
        elif not isinstance(val, (list, tuple)):
            yield path


def apply_env_overrides(doc: dict, environ=None) -> dict:
    """Override scalar config keys from SFSPLACE_* environment variables.

    Nested keys use double underscores: SFSPLACE_PRIOR__ANGLE_MIN_DEG=-30.
    Values are parsed as JSON scalars, falling back to plain strings.
    Unknown names raise, so typos do not silently run the base config.
    """
    environ = os.environ if environ is None else environ
    known = {"__".join(p).upper(): p for p in _scalar_paths(doc)}
    # optional scalars that a document may omit entirely
    for extra in ("min_decrease", "pm_control_spacing"):
        known.setdefault(extra.upper(), (extra,))
    out = json.loads(json.dumps(doc))  # deep copy, JSON-typed
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):]
        if key not in known:
            raise ValueError(
                "%s does not name a scalar config key of this document" % name
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        *parents, leaf = known[key]
        for part in parents:
            node = node[part]
        node[leaf] = value
    return out


def load_config(path: str, environ=None) -> ExperimentConfig:
    """Read a JSON config file and apply environment overrides.

    Overrides act on the resolved document, so defaulted keys the file
    omits (lambda_select, sound_speed, ...) are overridable too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    resolved = ExperimentConfig.from_dict(doc).to_dict()
    return ExperimentConfig.from_dict(apply_env_overrides(resolved, environ))
