"""Experiment configuration: JSON schema, validation, env overrides.

A config is a single JSON document. All physical quantities are SI;
angles are degrees in the file and converted to radians at the library
boundary. Sweep shorthands (frequency start/stop/step, angle sweeps,
scalar gamma) are resolved to explicit lists at parse time so the
re-emitted document is a complete record of the run.

The dataclass fields state the document's layout once (_Spec). A field
sits at its own name in its section unless its metadata gives a JSON
path; a field without a default is a required key; a None value is an
omitted key. Each value is checked and coerced by its annotation, and a
malformed one raises a ValueError naming its dotted key. Only range
checks and rules across fields (broadcasts, exclusive forms, geometry)
are written out.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .placement import DirectionRangePrior
from .room import RoomModel
from .wavefield import CircularRegion, Point2

ENV_PREFIX = "SFSPLACE_"

_METHODS = ("wmm", "mode-matching", "pressure-matching")
_BASELINES = ("regular_a", "regular_b")


def _number(x, key) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError("%s must be a number, got %r" % (key, x))
    if not math.isfinite(x):
        raise ValueError("%s must be finite" % key)
    return float(x)


def _integer(x, key) -> int:
    """x as an int; booleans and non-integral values are rejected, not truncated."""
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if isinstance(x, bool) or v is None or v != x:
        raise ValueError("%s must be an integer, got %r" % (key, x))
    return v


def _boolean(x, key) -> bool:
    if not isinstance(x, bool):
        raise ValueError("%s must be true or false" % key)
    return x


def _string(x, key) -> str:
    if not isinstance(x, str):
        raise ValueError("%s must be a string, got %r" % (key, x))
    return x


_SCALARS = {"float": _number, "int": _integer, "bool": _boolean, "str": _string}
# the config's spec classes by name, for their annotations (_Spec)
_SPECS = {}


def _coerce(x, hint, key):
    """x checked and coerced to the postponed annotation hint: a scalar of
    _SCALARS, tuple[...] of them (fixed or variable length), or X | None.
    A spec class is passed through; its own fields were coerced."""
    if hint.endswith(" | None"):
        return None if x is None else _coerce(x, hint.removesuffix(" | None"), key)
    if hint in _SPECS:
        return x
    if not hint.startswith("tuple["):
        return _SCALARS[hint](x, key)
    if not isinstance(x, (list, tuple)):
        raise ValueError("%s must be a list, got %r" % (key, x))
    args = hint[len("tuple[") : -1]
    if args.endswith(", ..."):
        return tuple(_coerce(v, args[: -len(", ...")], key) for v in x)
    parts = args.split(", ")
    if len(x) != len(parts):
        raise ValueError("%s must be a list of %d values, got %r" % (key, len(parts), x))
    return tuple(_coerce(v, p, key) for v, p in zip(x, parts))


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


def _at(path, **kwargs):
    """A field kept at the dotted JSON path within its section."""
    return field(metadata={"path": tuple(path.split("."))}, **kwargs)


def _path(f) -> tuple:
    return f.metadata.get("path", (f.name,))


def _required(f) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


def _jsonable(value):
    if isinstance(value, _Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class _Spec:
    """JSON layout, key checks and coercion of a config dataclass, read
    from its fields. _key is the spec's section in the document."""

    _key = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _SPECS[cls.__name__] = cls

    @classmethod
    def _dotted(cls, path) -> str:
        return ".".join((cls._key, *path) if cls._key else path)

    def _coerce_fields(self):
        for f in fields(self):
            value = _coerce(getattr(self, f.name), f.type, self._dotted(_path(f)))
            object.__setattr__(self, f.name, value)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            *parents, leaf = _path(f)
            node = out
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = _jsonable(value)
        return out

    @classmethod
    def from_dict(cls, doc: dict):
        kwargs = {}
        cls._read(doc, (), [(_path(f), f) for f in fields(cls)], kwargs)
        return cls(**kwargs)

    @classmethod
    def _read(cls, doc, prefix, entries, out):
        """Fill out from doc, the JSON object at path prefix; entries are
        (path below prefix, field) pairs."""
        groups = {}
        for path, f in entries:
            groups.setdefault(path[0], []).append((path[1:], f))
        required = [k for k, g in groups.items() if any(_required(f) for _, f in g)]
        _section(doc, cls._dotted(prefix) or "config", groups, required)
        for key, group in groups.items():
            if key not in doc:
                continue
            path = prefix + (key,)
            (rest, f), *_ = group
            if rest:
                cls._read(doc[key], path, group, out)
            else:
                out[f.name] = _field_value(f, doc[key], cls._dotted(path))


def _field_value(f, value, key):
    """The constructor argument of field f from its JSON value."""
    if f.metadata.get("sweep"):
        return _resolve_sweep(value, key)
    spec = _SPECS.get(f.type.removesuffix(" | None"))
    if spec is None or (value is None and f.type.endswith(" | None")):
        return value
    return spec.from_dict(value)


def _resolve_sweep(value, name):
    """Expand {start, stop, step} shorthand into an explicit list."""
    if isinstance(value, dict):
        keys = ("start", "stop", "step")
        sweep = _section(value, name, keys, keys)
        start, stop, step = (_number(sweep[k], "%s.%s" % (name, k)) for k in keys)
        if step <= 0 or stop < start:
            raise ValueError("sweep needs step > 0 and stop >= start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(float(start + i * step) for i in range(n))
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s must be a list or a {start, stop, step} sweep" % name)
    return value


@dataclass(frozen=True)
class RoomSpec(_Spec):
    """Rectangular room, centered on the origin."""

    _key = "room"

    size_x: float
    size_y: float
    reflection: tuple[float, float, float, float]
    max_reflection_order: int = 10

    def __post_init__(self):
        if not isinstance(self.reflection, (list, tuple)):  # one value for every wall
            object.__setattr__(self, "reflection", (self.reflection,) * 4)
        self._coerce_fields()

    def to_model(self) -> RoomModel:
        return RoomModel(
            self.size_x,
            self.size_y,
            self.reflection,
            max_reflection_order=self.max_reflection_order,
        )


@dataclass(frozen=True)
class CandidateSpec(_Spec):
    """Either a square boundary loop or an explicit position list."""

    _key = "candidates"

    square_size: float | None = _at("square.size", default=None)
    square_count: int | None = _at("square.count", default=None)
    # (0, 0) for a square loop that gives none
    square_center: tuple[float, float] | None = _at("square.center", default=None)
    positions: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        self._coerce_fields()
        square = (self.square_size, self.square_count, self.square_center)
        has_square = any(v is not None for v in square)
        if has_square == (self.positions is not None):
            raise ValueError("candidates: give either a square generator or positions")
        if has_square:
            if self.square_size is None or self.square_count is None:
                raise ValueError("square candidates need both size and count")
            if self.square_size <= 0.0 or self.square_count < 1:
                raise ValueError("square candidates need size > 0 and count >= 1")
            if self.square_center is None:
                object.__setattr__(self, "square_center", (0.0, 0.0))
        elif not self.positions:
            raise ValueError("explicit candidate list is empty")

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
class PriorSpec(_Spec):
    """Uniform plane-wave direction range, degrees."""

    _key = "prior"

    angle_min_deg: float
    angle_max_deg: float
    amplitude: float = 1.0

    def __post_init__(self):
        self._coerce_fields()
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


@dataclass(frozen=True)
class EvalSpec(_Spec):
    """Evaluation sweep: plane-wave angles, grid, optional field dumps."""

    _key = "evaluation"

    angles_deg: tuple[float, ...] = field(default=(), metadata={"sweep": True})
    grid_spacing: float = 0.01
    write_fields: bool = False
    desired: str = "plane_wave"
    desired_position: tuple[float, float] | None = None
    placement: tuple[int, ...] | None = None

    def __post_init__(self):
        self._coerce_fields()
        if self.grid_spacing <= 0.0:
            raise ValueError("grid_spacing must be positive")
        if self.desired not in ("plane_wave", "point_source"):
            raise ValueError("desired must be plane_wave or point_source")
        if self.desired == "point_source" and self.desired_position is None:
            raise ValueError("point_source desired field needs a position")
        if self.desired == "plane_wave" and self.desired_position is not None:
            raise ValueError("desired_position only applies to point_source")


@dataclass(frozen=True)
class ExperimentConfig(_Spec):
    """One end-to-end run: geometry, prior, frequencies, solver knobs."""

    candidates: CandidateSpec
    region_center: tuple[float, float] = _at("region.center")
    region_radius: float = _at("region.radius")
    prior: PriorSpec
    frequencies: tuple[float, ...] = field(metadata={"sweep": True})
    n_select: int
    room: RoomSpec | None = None
    # None: 1.0 in every bin; a scalar: that weight in every bin
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
        if not isinstance(self.gamma, (list, tuple)):
            gamma = 1.0 if self.gamma is None else self.gamma
            object.__setattr__(self, "gamma", (gamma,) * len(self.frequencies))
        self._coerce_fields()
        if not self.frequencies or any(f <= 0.0 for f in self.frequencies):
            raise ValueError("frequencies must be a non-empty list of positive Hz")
        if len(self.gamma) != len(self.frequencies) or any(g <= 0.0 for g in self.gamma):
            raise ValueError("gamma must be positive, one weight per frequency")
        if self.region_radius <= 0.0:
            raise ValueError("region radius must be positive")
        if not 1 <= self.n_select <= self.candidates.count:
            raise ValueError("n_select must lie in [1, candidate count]")
        if self.lambda_select <= 0.0 or self.lambda_synth_scale <= 0.0:
            raise ValueError("regularizers must be positive")
        if self.method not in _METHODS:
            raise ValueError("method must be one of %s" % (_METHODS,))
        if self.pm_control_spacing is not None and self.pm_control_spacing <= 0.0:
            raise ValueError("pm_control_spacing must be positive")
        if any(b not in _BASELINES for b in self.baselines):
            raise ValueError("baselines must be among %s" % (_BASELINES,))
        if self.sound_speed <= 0.0:
            raise ValueError("sound_speed must be positive")
        self._check_geometry()

    def _check_geometry(self):
        cx, cy = self.region_center
        r = self.region_radius
        pts = self.candidates.resolve()
        src = self.evaluation.desired_position
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
            if src is not None and not model.contains(src):
                raise ValueError(
                    "evaluation.desired_position (%.6g, %.6g) lies on or outside the room "
                    "walls" % (src[0], src[1])
                )
        if src is not None and math.hypot(src[0] - cx, src[1] - cy) <= r:
            raise ValueError(
                "evaluation.desired_position (%.6g, %.6g) lies inside or on the target "
                "region (center (%.6g, %.6g), radius %.6g)" % (src[0], src[1], cx, cy, r)
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# environment overrides


def _scalar_paths(doc, prefix=()):
    for key, val in doc.items():
        path = prefix + (key,)
        if isinstance(val, dict):
            yield from _scalar_paths(val, path)
        elif not isinstance(val, (list, tuple)):
            yield path


def _field_hints(spec, prefix=()):
    """(JSON path, annotation) of every field of spec and of its sub-specs."""
    for f in fields(spec):
        path = prefix + _path(f)
        sub = _SPECS.get(f.type.removesuffix(" | None"))
        if sub is None:
            yield path, f.type
        else:
            yield from _field_hints(sub, path)


def apply_env_overrides(doc: dict, environ=None) -> dict:
    """Override scalar config keys from SFSPLACE_* environment variables.

    Nested keys use double underscores: SFSPLACE_PRIOR__ANGLE_MIN_DEG=-30.
    A string-typed key takes the value as it is (SFSPLACE_OUTPUT_DIR=5 is
    the directory "5"); any other value is parsed as a JSON scalar,
    falling back to the plain string. Unknown names raise, so typos do not
    silently run the base config.
    """
    environ = os.environ if environ is None else environ
    strings = {p for p, h in _field_hints(ExperimentConfig) if h.removesuffix(" | None") == "str"}
    known = {"__".join(p).upper(): p for p in _scalar_paths(doc)}
    # optional scalars that a document may omit entirely
    for f in fields(ExperimentConfig):
        if f.default is None and f.type.removesuffix(" | None") in _SCALARS:
            known.setdefault("__".join(_path(f)).upper(), _path(f))
    out = json.loads(json.dumps(doc))  # deep copy, JSON-typed
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):]
        if key not in known:
            raise ValueError(
                "%s does not name a scalar config key of this document" % name
            )
        path = known[key]
        try:
            value = raw if path in strings else json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        *parents, leaf = path
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
