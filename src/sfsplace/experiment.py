"""End-to-end experiment pipeline: assemble, place, evaluate, write.

Turns an ExperimentConfig into per-frequency placement problems, runs
the greedy selection plus the equal-spacing baselines, evaluates
synthesized fields on a grid over the target region, and writes the
CSV/JSON artifacts. All outputs are deterministic functions of the
config.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import NamedTuple

import numpy as np

from .config import CandidateSpec, EvalSpec, ExperimentConfig, PriorSpec, RoomSpec
from .placement import (
    BroadbandSpec,
    FrequencyProblem,
    PlacementResult,
    greedy_place_broadband,
    prior_from_direction_range,
    regular_placement_a,
    regular_placement_b,
)
from .specfun import bessel_j_orders
from .synthesis import (
    WeightMatrix,
    _coeff_sdr,
    _lattice_gram,
    _scaled_solve,
    identity_weight,
    region_grid,
    source_coeff_matrix,
    weight_matrix_circle,
)
from .wavefield import (
    ExpansionConfig,
    Frequency,
    _basis_blocks,
    _basis_matrix,
    expansion_for,
    planewave_coeffs,
)


def pm_control_points(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """Control grid and cell area of the pressure-matching method.

    Default spacing is a quarter wavelength at the highest configured
    frequency, dense enough to sample every mode the region supports.
    Pressure matching weighs the expansion by the Gram matrix of its
    basis over these points (each weighted by the cell area): the
    pressure-matching cost of the control-point transfer, taken through
    the expansion.
    """
    spacing = _pm_spacing(config)
    return region_grid(config.region, spacing=spacing), spacing ** 2


def _pm_spacing(config: ExperimentConfig) -> float:
    spacing = config.pm_control_spacing
    if spacing is None:
        spacing = 0.25 * config.sound_speed / max(config.frequencies)
    return float(spacing)


def _bins(config: ExperimentConfig) -> list:
    """(expansion, frequency) of each configured bin, in order."""
    freqs = [Frequency(f_hz, sound_speed=config.sound_speed) for f_hz in config.frequencies]
    return [(expansion_for(config.region, freq), freq) for freq in freqs]


def _weights(config: ExperimentConfig, bins) -> list[WeightMatrix]:
    """The method's weight on the expansion of each (cfg, freq) bin.

    wmm: closed-form region Gram, every bin from one Bessel call; mode
    matching: identity; pressure matching: Gram of the basis over the
    control grid (see pm_control_points), from the grid's D4 wedge
    (synthesis._lattice_gram). Placement and evaluation both
    take their weights from this call over all of a config's bins, so the
    two agree bit for bit.
    """
    if config.method == "wmm":
        return weight_matrix_circle(config.region, bins)
    if config.method == "mode-matching":
        return [identity_weight(cfg.size) for cfg, _ in bins]
    spacing = _pm_spacing(config)  # pressure-matching
    ctrl = region_grid(config.region, spacing=spacing)
    return [WeightMatrix(_lattice_gram(cfg, ctrl, spacing, f, spacing ** 2)) for cfg, f in bins]


def build_problems(config: ExperimentConfig) -> tuple[FrequencyProblem, ...]:
    """One placement problem per configured frequency, over every candidate.

    The methods share the Graf columns and the prior; only the weight
    differs (_weights).
    """
    bins = _bins(config)
    coeffs = source_coeff_matrix(config.candidate_positions(), bins, room=config.room_model())
    weights = _weights(config, bins)
    priors = prior_from_direction_range(config.prior.to_range(), bins)
    return tuple(
        FrequencyProblem(coeff, weight, prior, gamma, freq=freq, cfg=cfg)
        for (cfg, freq), coeff, weight, prior, gamma in zip(
            bins, coeffs, weights, priors, config.gamma
        )
    )


def to_broadband_spec(problems) -> BroadbandSpec:
    return BroadbandSpec(problems)


def place_greedy(config: ExperimentConfig, problems=None) -> PlacementResult:
    if problems is None:
        problems = build_problems(config)
    return greedy_place_broadband(
        to_broadband_spec(problems),
        config.lambda_select,
        n_select=config.n_select,
        min_decrease=config.min_decrease,
    )


def baseline_indices(config: ExperimentConfig, name: str) -> tuple[int, ...]:
    pts = config.candidate_positions()
    if name == "regular_b":
        return regular_placement_b(pts, config.n_select)
    if name == "regular_a":
        return regular_placement_a(
            pts, config.region, config.prior.to_range(), config.n_select
        )
    raise ValueError("unknown baseline %r" % name)


# ---------------------------------------------------------------------------
# evaluation
#
# Every source and image lies outside the region disc, so by Graf's addition
# theorem the synthesized field on the grid is B^T C d for the basis
# B = J_m(k r) e^{i m phi} (K x G), and its error energy is a quadratic form
# in the coefficients C d whose grid weights are built once per frequency
# (_GridEvaluation). Evaluation needs no placement problem: one Graf build
# over the bin list gives every bin's columns of the selected sources only,
# TAIL_ORDERS orders past M (plus a point-source desired field's column,
# GRID_ORDERS past M). Their middle K rows are C; the rest is each source's
# own Graf tail, from which the truncation to |m| <= M is estimated
# (_truncation_errors).

# Largest estimated relative column error on the rim that evaluation
# accepts. Over the bundled study's 200 candidates (the nearest at twice the
# region radius) in its room, the order rule ceil(kR) + 10 gives estimates
# up to 2.0e-6 at 1 kHz, 4.4e-5 at 2 kHz and 5.9e-4 at 4 kHz; a source at
# 1.02 R gives 0.13 to 0.20. The estimate measured 1.1 to 2 times the error
# against the direct image-source transfer (the tests bound it by 1 and
# 2.5). A column error eps moves an SDR near 15 dB by roughly 50 eps dB, so
# accepted tables stay within about 0.05 dB of the direct evaluation.
TRUNCATION_TOL = 1e-3
# orders past M of the selected sources' columns that the truncation
# estimate sums term by term
TAIL_ORDERS = 6
# orders past M of the grid basis that project the desired field: J_m(kR)
# falls super-exponentially past kR, so at M + 12 the expansion is a plane
# wave to rounding, and a point source at distance d to about (R/d)^(M+12)
# of its field (measured 1e-10 at 2 R and 1 kHz, 1e-13 at 4 R)
GRID_ORDERS = 12

class TruncationError(ValueError):
    """The truncated expansion misrepresents a selected source on the grid."""


class Evaluation(NamedTuple):
    """SDR rows and the largest estimated truncation error of a sweep."""

    rows: list
    truncation_error: float


def _plane_waves(points, freq, angles):
    """exp(i k u . r) at an (n, 2) point array, one column per angle (deg)."""
    phi = np.radians(np.asarray(angles, dtype=np.float64))
    return np.exp(1j * freq.wavenumber * (points @ np.array([np.cos(phi), np.sin(phi)])))


def _truncation_errors(coeff, sources, cfg, rim) -> np.ndarray:
    """Estimated relative truncation error of each source's expansion column.

    coeff holds the sources' Graf columns built D = TAIL_ORDERS orders past
    M, and rim the row J_n(kR), n = 0..M + D (or more). Estimates the error
    on the rim circle r = R = cfg.valid_radius, where it peaks, relative to
    the column. With t_m = |J_|m|(kR) c_ms|^2

        eps_s^2 = (sum_{M<|m|<=M+D} t_m + (t_{-M-D} + t_{M+D}) q/(1-q))
                  / sum_{|m|<=M+D} t_m,   q = (R/d_s)^2.

    Past k d, t_m falls by (R/d)^2 per order, so the remainder continues
    the last terms as a geometric series; the source, d_s from the center,
    is the nearest of its images and sets the slowest decay.
    """
    top = cfg.max_order + TAIL_ORDERS
    order = np.abs(np.arange(-top, top + 1))
    t = np.abs(rim[order, None] * coeff) ** 2
    dist = np.hypot(sources[:, 0] - cfg.center.x, sources[:, 1] - cfg.center.y)
    q = (cfg.valid_radius / dist) ** 2
    tail = t[order > cfg.max_order].sum(axis=0) + (t[0] + t[-1]) * q / (1.0 - q)
    return np.sqrt(tail / t.sum(axis=0))


class _GridEvaluation:
    """Evaluation data of one frequency, shared by every placement in it.

    The SDRs come from each placement's expansion coefficients a = C d
    (synthesis._coeff_sdr): the grid enters only through the Gram
    Gm = conj(B) B^T of the order-M grid basis B (K x G), the projection
    X = conj(B) u_des of the desired field (one column per angle) and its
    energy E. Grid fields are formed only for field dumps (grid_fields).

    All three come from P = conj(B_x) B_x^T, the (K_x x K_x) Gram of the
    basis B_x GRID_ORDERS orders past M, which the grid's D4 symmetry
    gives from one wedge of the lattice (synthesis._lattice_gram); Gm is
    P's middle K x K block. A plane wave's grid field is B_x^T t_x to
    rounding (t_x its Jacobi-Anger coefficients to order M + GRID_ORDERS),
    so X = P[mid] t_x and E = G, the grid's point count. A point source's
    grid field is likewise B_x^T t_x for its own Graf column t_x to order
    M + GRID_ORDERS, so X = P[mid] t_x and E = t_x^H P t_x.

    Also holds the solve-domain targets (order-M coefficients), the
    method's weight (the bin's entry of _weights over all of the config's
    bins) and C for the union of selected sources: the middle K rows of
    the bin's Graf build cols (_evaluations), in which column[i] is
    candidate i's column and whose tail gave the truncation check. A
    point-source desired field is the build's last column, whose middle K
    rows are the targets.
    """

    def __init__(self, config, cfg, freq, grid, angles, column, cols, weight, truncation_error):
        self.config, self.cfg, self.freq = config, cfg, freq
        self.grid, self.angles = grid, angles
        self.column, self.truncation_error = column, truncation_error
        extra = (cols.shape[0] - cfg.size) // 2
        self.coeff = cols[extra : extra + cfg.size]
        self.weight = weight
        self._wide = ExpansionConfig(cfg.max_order + GRID_ORDERS, cfg.center, cfg.valid_radius)
        mid = slice(GRID_ORDERS, GRID_ORDERS + cfg.size)
        if config.evaluation.desired == "point_source":
            # the desired source's column, to order M + GRID_ORDERS
            self._source = wave = cols[:, len(self.column) :]
        else:
            self._source = None
            wave = planewave_coeffs(self._wide, freq, [math.radians(a) for a in angles])
        self.targets = wave[mid]
        gram = _lattice_gram(self._wide, grid, config.evaluation.grid_spacing, freq, 1.0)
        self.gram = gram[mid, mid]
        self.cross = gram[mid] @ wave
        if self._source is None:
            self.energy = np.full(len(angles), float(len(grid)))
        else:
            self.energy = np.sum(wave.conj() * (gram @ wave), axis=0).real

    def coefficients(self, indices) -> np.ndarray:
        """Expansion coefficients C d of one placement's field, one column per angle.

        One normal system serves both synthesis_lambda and solve_wmm.
        """
        c = self.coeff[:, [self.column[i] for i in indices]]
        return c @ _scaled_solve(c, self.weight, self.targets, self.config.lambda_synth_scale)

    def sdrs(self, coeffs) -> list[float]:
        """SDR per angle of the field with these expansion coefficients."""
        return _coeff_sdr(self.energy, self.cross, self.gram, coeffs).tolist()

    def grid_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(desired field, order-M basis) on the grid, for field dumps.

        Plane waves are sampled; a point source's field is B_x^T t_x, the
        one its SDRs used. A placement's grid field is basis^T a for its
        coefficients a.
        """
        if self._source is None:
            desired = _plane_waves(self.grid, self.freq, self.angles)
        else:  # in 2 MB blocks: the wide basis is never held whole
            block = max(1, (1 << 21) // (16 * self._wide.size))
            blocks = _basis_blocks(self._wide, self.grid, self.freq, block)
            desired = np.concatenate([basis.T @ self._source for basis in blocks])
        return desired, _basis_matrix(self.cfg, self.grid, self.freq)


def _evaluations(config, grid, selections):
    """One _GridEvaluation per configured bin, in order, over _eval_angles(config).

    selections maps each placement's name to its candidate indices; every
    placement must hold at least one index, and distinct indices in [0, N).
    One source_coeff_matrix call over the bin list builds the Graf columns
    of the selections' union, TAIL_ORDERS orders past each bin's M, or
    GRID_ORDERS with a point-source desired field, whose column comes
    last; one bessel_j_orders call gives every bin's rim row J(kR), and
    one _weights call every weight. Before any evaluation is built, a
    column (the desired one included) whose estimate (_truncation_errors)
    exceeds TRUNCATION_TOL raises TruncationError naming its bin and
    source.
    """
    positions = config.candidate_positions()
    n = len(positions)
    for name, idx in selections.items():
        if len(idx) == 0:
            raise ValueError("placement %r is empty: it selects no loudspeaker" % name)
        if len(set(idx)) != len(idx) or not all(0 <= i < n for i in idx):
            msg = "placement %r: indices must be distinct and in [0, %d)"
            raise ValueError(msg % (name, n))
    union = sorted({int(i) for sel in selections.values() for i in sel})
    ev = config.evaluation
    point = ev.desired == "point_source"
    # a point-source target is one more column of the same build, which
    # then reaches the grid basis' order to project it
    extra = GRID_ORDERS if point else TAIL_ORDERS
    built = np.vstack([positions[union], [ev.desired_position]]) if point else positions[union]
    bins = _bins(config)
    wide = [
        (ExpansionConfig(cfg.max_order + extra, cfg.center, cfg.valid_radius), freq)
        for cfg, freq in bins
    ]
    cols = source_coeff_matrix(built, wide, config.room_model())
    top = max(cfg.max_order for cfg, _ in bins) + TAIL_ORDERS
    rims = bessel_j_orders(top, [freq.wavenumber * cfg.valid_radius for cfg, freq in bins])
    names = ["candidate %d" % i for i in union] + ["the desired source"]
    worst = []
    for (cfg, freq), c, rim in zip(bins, cols, rims.T):
        tail = c[extra - TAIL_ORDERS : extra + TAIL_ORDERS + cfg.size]
        err = _truncation_errors(tail, built, cfg, rim)
        if not err.max(initial=0.0) <= TRUNCATION_TOL:
            i = int(np.argmax(err))
            raise TruncationError(
                "expansion truncation error %.3g exceeds the tolerance %g at %g Hz "
                "(%s at (%.6g, %.6g) is too close to the target region)"
                % (err[i], TRUNCATION_TOL, freq.hz, names[i], *built[i])
            )
        worst.append(float(err[: len(union)].max(initial=0.0)))
    column = {i: j for j, i in enumerate(union)}
    for (cfg, freq), c, weight, err in zip(bins, cols, _weights(config, bins), worst):
        yield _GridEvaluation(config, cfg, freq, grid, _eval_angles(config), column, c, weight, err)


def _eval_angles(config) -> tuple:
    # a point-source desired field has no propagation angle; one row
    if config.evaluation.desired == "point_source":
        return (None,)
    return tuple(config.evaluation.angles_deg)


def evaluate_placements(
    config: ExperimentConfig, placements: dict, field_dir=None, tag=""
) -> Evaluation:
    """SDR rows (angle_deg | None, freq_hz, sdr_db, method), canonically sorted,
    and the largest estimated truncation error (_truncation_errors) of a
    selected source over the frequencies.

    placements maps names to candidate indices; a placement whose indices
    are not distinct and in [0, N) is rejected with a ValueError. Per bin
    one _GridEvaluation serves every placement: its share of one Graf build
    of the selected sources' columns over the bin list (_evaluations), one
    solve for all angles per placement, and the SDRs from the coefficients
    through the grid Gram and the desired field's projection, without a
    grid field. With field_dir, each bin's field dumps are written there
    from the same evaluation and the same solves, and only then are grid
    fields formed: per angle the desired field, and per placement the
    synthesized field and the error normalized by the desired field's
    rms, in files named field<tag>_f<hz>_a<angle>_*.
    """
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    names = sorted(placements)
    grid_text = None if field_dir is None else _grid_text(grid)
    rows = []
    worst = 0.0
    for ev in _evaluations(config, grid, placements):
        worst = max(worst, ev.truncation_error)
        dump = None if field_dir is None else _field_writer(field_dir, config, ev, grid_text, tag)
        for name in names:
            coeffs = ev.coefficients(placements[name])
            if dump is not None:
                dump(name, coeffs)
            rows.extend((a, ev.freq.hz, s, name) for a, s in zip(ev.angles, ev.sdrs(coeffs)))
        del ev, dump  # one evaluation at a time: this bin's goes before the next is built
    rows.sort(key=lambda r: (r[3], r[1], -math.inf if r[0] is None else r[0]))
    return Evaluation(rows, worst)


# ---------------------------------------------------------------------------
# artifact writing


def _fmt(v) -> str:
    return repr(float(v))


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_placement_csv(path, indices, positions):
    rows = [
        (str(rank + 1), str(int(i)), _fmt(positions[i, 0]), _fmt(positions[i, 1]))
        for rank, i in enumerate(indices)
    ]
    write_csv(path, ("rank", "index", "x", "y"), rows)


def read_placement_csv(path) -> tuple[int, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        col = header.index("index")
        return tuple(int(line.split(",")[col]) for line in fh if line.strip())


def write_trace_csv(path, trace):
    rows = [(str(i), _fmt(v)) for i, v in enumerate(trace)]
    write_csv(path, ("step", "cost"), rows)


def write_sdr_csv(path, rows):
    out = [
        ("nan" if a is None else _fmt(a), _fmt(f), _fmt(s), name)
        for a, f, s, name in rows
    ]
    write_csv(path, ("angle_deg", "freq_hz", "sdr_db", "method"), out)


def read_sdr_csv(path) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if not line.strip():
                continue
            a, f, s, name = line.strip().split(",")
            rows.append((float(a), float(f), float(s), name))
    return rows


def _grid_text(grid) -> list[str]:
    """Each grid point's "x,y," prefix of a field CSV row (_fmt's text)."""
    return [repr(x) + "," + repr(y) + "," for x, y in grid.tolist()]


def write_field_csv(path_base, grid_text, values, meta):
    # repr of each value's Python float: the same text as _fmt per value
    rows = [
        p + repr(re) + "," + repr(im) + "\n"
        for p, re, im in zip(grid_text, values.real.tolist(), values.imag.tolist())
    ]
    with open(path_base + ".csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,re,im\n" + "".join(rows))
    with open(path_base + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _angle_tag(angle_deg) -> str:
    if angle_deg is None:
        return "ps"
    return ("%g" % angle_deg).replace("-", "m").replace(".", "p")


def _field_meta(config, freq_hz, angle_deg, kind, extra=None):
    meta = {
        "kind": kind,
        "angle_deg": angle_deg,
        "freq_hz": freq_hz,
        "grid_spacing": config.evaluation.grid_spacing,
        "region_center": list(config.region_center),
        "region_radius": config.region_radius,
        "sound_speed": config.sound_speed,
    }
    if extra:
        meta.update(extra)
    return meta


def _field_writer(out_dir, config, ev, grid_text, tag=""):
    """Write one frequency's desired fields (one per angle of ev) and return
    the writer of a placement's synthesized and error fields, given its
    expansion coefficients (one column per angle). grid_text is
    _grid_text(ev.grid), formatted once per grid."""
    f_hz, angles = ev.freq.hz, ev.angles
    desired, basis = ev.grid_fields()
    rms = [math.sqrt(float(np.mean(np.abs(u) ** 2))) for u in desired.T]
    stems = [
        os.path.join(out_dir, "field%s_f%s_a%s" % (tag, ("%g" % f_hz), _angle_tag(a)))
        for a in angles
    ]
    for j, (a, stem) in enumerate(zip(angles, stems)):
        write_field_csv(
            stem + "_desired", grid_text, desired[:, j], _field_meta(config, f_hz, a, "desired")
        )

    def write(name, coeffs):
        u_syn = basis.T @ coeffs
        for j, (a, stem) in enumerate(zip(angles, stems)):
            write_field_csv(
                "%s_%s_synthesized" % (stem, name),
                grid_text,
                u_syn[:, j],
                _field_meta(config, f_hz, a, "synthesized", {"method": name}),
            )
            write_field_csv(
                "%s_%s_error" % (stem, name),
                grid_text,
                (u_syn[:, j] - desired[:, j]) / rms[j],
                _field_meta(
                    config, f_hz, a, "error", {"method": name, "normalization": rms[j]}
                ),
            )

    return write


# ---------------------------------------------------------------------------
# runners


def _ensure_out(config, out_dir=None) -> str:
    out = config.output_dir if out_dir is None else out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(config, out, name="config.json"):
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        fh.write(config.to_json())


def run_place(config: ExperimentConfig, out_dir=None):
    """Greedy placement (plus flagged baselines, placed first); writes placement + trace."""
    base = {name: baseline_indices(config, name) for name in config.baselines}
    out = _ensure_out(config, out_dir)
    _echo_config(config, out)
    problems = build_problems(config)
    result = place_greedy(config, problems)
    positions = config.candidate_positions()
    write_placement_csv(os.path.join(out, "placement.csv"), result.indices, positions)
    write_trace_csv(os.path.join(out, "cost_trace.csv"), result.cost_trace)
    for name, idx in base.items():
        write_placement_csv(os.path.join(out, "placement_%s.csv" % name), idx, positions)
    placements = dict(proposed=result.indices, **base)
    return {"result": result, "problems": problems, "placements": placements, "out": out}


def run_evaluate(config: ExperimentConfig, indices=None, out_dir=None):
    """Evaluate a placement (plus flagged baselines); writes the SDR table."""
    if indices is None:
        indices = config.evaluation.placement
    if indices is None:
        raise ValueError("no placement: pass indices or set evaluation.placement")
    placements = {"proposed": tuple(int(i) for i in indices)}
    for name in config.baselines:
        placements[name] = baseline_indices(config, name)
    out = _ensure_out(config, out_dir)
    _echo_config(config, out)
    field_dir = out if config.evaluation.write_fields else None
    rows, truncation_error = evaluate_placements(config, placements, field_dir)
    write_sdr_csv(os.path.join(out, "sdr.csv"), rows)
    return {
        "rows": rows,
        "placements": placements,
        "out": out,
        "truncation_error": truncation_error,
    }


def paper_config(broadband=False, output_dir="paper_out") -> ExperimentConfig:
    """Built-in reverberant study: 5x4 m room, 200-candidate square, L=20."""
    if broadband:
        freqs = tuple(float(f) for f in range(100, 2001, 100))
    else:
        freqs = (1000.0,)
    return ExperimentConfig(
        room=RoomSpec(5.0, 4.0, (0.8, 0.8, 0.8, 0.8), max_reflection_order=10),
        candidates=CandidateSpec(square_size=3.0, square_count=200),
        region_center=(0.5, 0.3),
        region_radius=0.5,
        prior=PriorSpec(-45.0, 45.0, 1.0),
        frequencies=freqs,
        n_select=20,
        lambda_select=1e-5,
        lambda_synth_scale=1e-3,
        method="wmm",
        baselines=("regular_a", "regular_b"),
        evaluation=EvalSpec(
            angles_deg=tuple(float(a) for a in range(-45, 46)), grid_spacing=0.01
        ),
        output_dir=output_dir,
        sound_speed=343.0,
    )


def _method_stats(rows):
    by_method = {}
    for angle, _, s, name in rows:
        by_method.setdefault(name, []).append((angle, s))
    out = {}
    for name, pairs in sorted(by_method.items()):
        vals = [s for _, s in pairs]
        at0 = [s for a, s in pairs if a == 0.0]
        out[name] = {
            "mean_sdr_db": float(np.mean(vals)),
            "sdr_at_0deg_db": float(at0[0]) if at0 else None,
        }
    return out


def run_reproduce(out_dir="paper_out"):
    """Full reverberant study: narrowband + broadband, all three methods."""
    cfg_nb = paper_config(broadband=False, output_dir=out_dir)
    cfg_bb = paper_config(broadband=True, output_dir=out_dir)
    out = _ensure_out(cfg_nb)
    _echo_config(cfg_nb, out, "config_narrowband.json")
    _echo_config(cfg_bb, out, "config_broadband.json")
    positions = cfg_nb.candidate_positions()

    base = {name: baseline_indices(cfg_nb, name) for name in cfg_nb.baselines}
    result_nb = place_greedy(cfg_nb)
    result_bb = place_greedy(cfg_bb)

    write_placement_csv(
        os.path.join(out, "placement_proposed_nb.csv"), result_nb.indices, positions
    )
    write_placement_csv(
        os.path.join(out, "placement_proposed_bb.csv"), result_bb.indices, positions
    )
    for name, idx in sorted(base.items()):
        write_placement_csv(os.path.join(out, "placement_%s.csv" % name), idx, positions)
    write_trace_csv(os.path.join(out, "cost_trace_narrowband.csv"), result_nb.cost_trace)
    write_trace_csv(os.path.join(out, "cost_trace_broadband.csv"), result_bb.cost_trace)

    nb_placements = dict(base, proposed=result_nb.indices)
    rows_nb = evaluate_placements(cfg_nb, nb_placements).rows
    write_sdr_csv(os.path.join(out, "sdr_narrowband.csv"), rows_nb)

    bb_placements = dict(base, proposed=result_bb.indices)
    rows_bb = evaluate_placements(cfg_bb, bb_placements).rows
    write_sdr_csv(os.path.join(out, "sdr_broadband.csv"), rows_bb)

    at_0 = dataclasses.replace(cfg_nb.evaluation, angles_deg=(0.0,))
    evaluate_placements(dataclasses.replace(cfg_nb, evaluation=at_0), nb_placements, out, "_nb")

    per_bin = {}
    for angle, f, s, name in rows_bb:
        per_bin.setdefault(name, {}).setdefault(f, []).append(s)
    summary = {
        "narrowband": _method_stats(rows_nb),
        "broadband": {
            name: {("%g" % f): float(np.mean(v)) for f, v in sorted(bins.items())}
            for name, bins in sorted(per_bin.items())
        },
    }
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
