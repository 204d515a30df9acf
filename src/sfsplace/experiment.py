"""End-to-end experiment pipeline: assemble, place, evaluate, write.

Turns an ExperimentConfig into per-frequency placement problems, runs
the greedy selection plus the equal-spacing baselines, evaluates
synthesized fields on a grid over the target region, and writes the
CSV/JSON artifacts. All outputs are deterministic functions of the
config (thread count only changes scheduling, never values or bytes).
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import CandidateSpec, EvalSpec, ExperimentConfig, PriorSpec, RoomSpec
from .placement import (
    BroadbandBin,
    BroadbandSpec,
    FieldPrior,
    PlacementResult,
    _hermitize,
    greedy_place_broadband,
    prior_from_direction_range,
    regular_placement_a,
    regular_placement_b,
)
from .room import transfer_matrix
from .synthesis import (
    WeightMatrix,
    identity_weight,
    region_grid,
    sdr,
    solve_wmm,
    source_coeff_matrix,
    synthesis_lambda,
    weight_matrix_circle,
)
from .wavefield import (
    Frequency,
    PlaneWave,
    _basis_matrix,
    expansion_for,
    planewave_coeffs,
)


@dataclass(frozen=True)
class FrequencyProblem:
    """Placement inputs for one frequency bin.

    coeff/weight/prior live in the coefficient domain for wmm and
    mode-matching, and in the control-point pressure domain for
    pressure-matching (control_points set, weight = cell_area * I).
    columns names the candidate of each coeff column when the problem was
    built for a subset of the candidates (None: every candidate, in order).
    """

    freq: Frequency
    cfg: object
    coeff: np.ndarray
    weight: WeightMatrix
    prior: FieldPrior
    gamma: float
    control_points: np.ndarray | None = None
    cell_area: float = 0.0
    columns: tuple[int, ...] | None = None


def pm_control_points(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """Control grid for the pressure-matching method.

    Default spacing is a quarter wavelength at the highest configured
    frequency, dense enough to sample every mode the region supports.
    """
    spacing = config.pm_control_spacing
    if spacing is None:
        f_max = max(config.frequencies)
        spacing = 0.25 * config.sound_speed / f_max
    return region_grid(config.region, spacing=spacing), float(spacing) ** 2


def build_problems(config: ExperimentConfig, columns=None) -> tuple[FrequencyProblem, ...]:
    """One FrequencyProblem per configured frequency.

    With columns (candidate indices) the coefficient matrices hold only
    those candidates, in that order: enough to evaluate placements drawn
    from them, but not to place.
    """
    region = config.region
    room = config.room_model()
    cand = config.candidate_positions()
    if columns is not None:
        columns = tuple(int(i) for i in columns)
        cand = cand[list(columns)]
    direction_range = config.prior.to_range()
    if config.method == "pressure-matching":
        ctrl, cell = pm_control_points(config)
    problems = []
    for f_hz, gamma in zip(config.frequencies, config.gamma):
        freq = Frequency(f_hz, sound_speed=config.sound_speed)
        cfg = expansion_for(region, freq)
        coeff_prior = prior_from_direction_range(direction_range, cfg, freq)
        if config.method == "pressure-matching":
            basis = _basis_matrix(cfg, ctrl, freq)
            mu = basis.T @ coeff_prior.mean
            r = _hermitize(basis.T @ coeff_prior.second_moment @ basis.conj())
            prior = FieldPrior(
                mu, _hermitize(r - np.outer(mu, mu.conj())), second_moment=r
            )
            problems.append(
                FrequencyProblem(
                    freq=freq,
                    cfg=cfg,
                    coeff=transfer_matrix(ctrl, cand, freq, room),
                    weight=WeightMatrix(cell * np.eye(len(ctrl))),
                    prior=prior,
                    gamma=gamma,
                    control_points=ctrl,
                    cell_area=cell,
                    columns=columns,
                )
            )
            continue
        if config.method == "wmm":
            weight = weight_matrix_circle(region, cfg, freq)
        else:  # mode-matching
            weight = identity_weight(cfg.size)
        problems.append(
            FrequencyProblem(
                freq=freq,
                cfg=cfg,
                coeff=source_coeff_matrix(cand, cfg, freq, room=room),
                weight=weight,
                prior=coeff_prior,
                gamma=gamma,
                columns=columns,
            )
        )
    return tuple(problems)


def to_broadband_spec(problems) -> BroadbandSpec:
    return BroadbandSpec(
        tuple(
            BroadbandBin(p.coeff, p.weight, p.prior, gamma=p.gamma, frequency=p.freq)
            for p in problems
        )
    )


def place_greedy(config: ExperimentConfig, problems=None) -> PlacementResult:
    if problems is None:
        problems = build_problems(config)
    if any(p.columns is not None for p in problems):
        raise ValueError("placement needs problems built for every candidate")
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
# theorem the synthesized field on the grid is basis^T C d: the basis
# J_m(k r) e^{i m phi} (K x G) is built once per frequency and shared by all
# placements and angles. The direct image-source transfer stays the oracle:
# a fixed grid subset checks every selected source against it.

# Largest relative column error, ||series - direct|| / ||direct|| over the
# spot-check points, that evaluation accepts. With candidates at twice the
# region radius (the bundled study) the order rule ceil(kR) + 10 measures
# 1.2e-6 at 1 kHz, 3.3e-5 at 2 kHz and 3.9e-4 at 4 kHz; a source at 1.02 R
# measures above 1e-1. A column error eps moves an SDR near 15 dB by roughly
# 50 eps dB, so accepted tables stay within about 0.05 dB of the direct
# evaluation.
TRUNCATION_TOL = 1e-3
# grid points in the spot-check: half the outermost (truncation error peaks
# at the rim), half an even stride over the whole grid
SPOT_CHECK_POINTS = 128


class TruncationError(ValueError):
    """The truncated expansion misrepresents a selected source on the grid."""


class Evaluation(NamedTuple):
    """SDR rows and the largest spot-check truncation error of a sweep."""

    rows: list
    truncation_error: float


def _plane_waves(points, freq, angles):
    """exp(i k u . r) at an (n, 2) point array, one column per angle (deg)."""
    phi = np.radians(np.asarray(angles, dtype=np.float64))
    return np.exp(1j * freq.wavenumber * (points @ np.array([np.cos(phi), np.sin(phi)])))


def _spot_check_points(grid, region) -> np.ndarray:
    r = np.hypot(grid[:, 0] - region.center.x, grid[:, 1] - region.center.y)
    rim = np.argsort(-r, kind="stable")[: SPOT_CHECK_POINTS // 2]
    stride = max(1, 2 * len(grid) // SPOT_CHECK_POINTS)
    return np.union1d(rim, np.arange(0, len(grid), stride))


class _GridEvaluation:
    """Evaluation data of one frequency, shared by every placement in it.

    Holds the grid basis, the exact desired field and the solve-domain
    targets (one column per angle), and the expansion coefficients of the
    union of selected sources, spot-checked against the direct transfer.
    """

    def __init__(self, config, problem, grid, angles, selections):
        self.config, self.problem = config, problem
        self.room = room = config.room_model()
        freq, cfg = problem.freq, problem.cfg
        ev = config.evaluation
        self.basis = _basis_matrix(cfg, grid, freq)
        if ev.desired == "point_source":
            pos = [ev.desired_position]
            self.desired = transfer_matrix(grid, pos, freq, room)
            if problem.control_points is not None:
                self.targets = transfer_matrix(problem.control_points, pos, freq, room)
            else:
                self.targets = source_coeff_matrix(pos, cfg, freq, room)
        else:
            self.desired = _plane_waves(grid, freq, angles)
            if problem.control_points is not None:
                self.targets = _plane_waves(problem.control_points, freq, angles)
            else:
                coeffs = [
                    planewave_coeffs(PlaneWave(math.radians(a)), cfg, freq).values
                    for a in angles
                ]
                self.targets = np.array(coeffs).reshape(len(angles), cfg.size).T
        union = sorted({int(i) for sel in selections for i in sel})
        self.column = {i: j for j, i in enumerate(union)}
        sources = config.candidate_positions()[union]
        at = union
        if problem.columns is not None:
            where = {c: j for j, c in enumerate(problem.columns)}
            if not where.keys() >= set(union):
                raise ValueError("placements use candidates the problem was not built for")
            at = [where[i] for i in union]
        self.solve_coeff = problem.coeff[:, at]
        if problem.control_points is None:
            self.coeff = self.solve_coeff
        else:
            self.coeff = source_coeff_matrix(sources, cfg, freq, room=room)
        self.truncation_error = self._spot_check(grid, sources, union)

    def _spot_check(self, grid, sources, union) -> float:
        if not union:
            return 0.0
        pick = _spot_check_points(grid, self.config.region)
        freq = self.problem.freq
        direct = transfer_matrix(grid[pick], sources, freq, self.room)
        series = self.basis[:, pick].T @ self.coeff
        err = np.linalg.norm(series - direct, axis=0) / np.linalg.norm(direct, axis=0)
        worst = int(np.argmax(err))
        value = float(err[worst])
        if not value <= TRUNCATION_TOL:
            raise TruncationError(
                "expansion truncation error %.3g exceeds the tolerance %g at %g Hz "
                "(candidate %d at (%.6g, %.6g) is too close to the target region)"
                % (value, TRUNCATION_TOL, freq.hz, union[worst], *sources[worst])
            )
        return value

    def synthesize(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(grid field, drivers) of one placement, one column per angle."""
        cols = [self.column[i] for i in indices]
        c_solve = self.solve_coeff[:, cols]
        weight = self.problem.weight
        lam = synthesis_lambda(c_solve, weight, scale=self.config.lambda_synth_scale)
        drivers = solve_wmm(c_solve, weight, self.targets, lam)
        return self.basis.T @ (self.coeff[:, cols] @ drivers), drivers

    def sdrs(self, indices) -> list[float]:
        u_syn, _ = self.synthesize(indices)
        return sdr(self.desired, u_syn).tolist()


def _eval_angles(config) -> tuple:
    # a point-source desired field has no propagation angle; one row
    if config.evaluation.desired == "point_source":
        return (None,)
    return tuple(config.evaluation.angles_deg)


def evaluate_placements(
    config: ExperimentConfig,
    problems,
    placements: dict,
    threads: int = 1,
    angles=None,
) -> Evaluation:
    """SDR rows (angle_deg | None, freq_hz, sdr_db, method), canonically sorted,
    and the largest spot-check truncation error over the frequencies.

    Placements of one frequency run concurrently; results are ordered
    after the join so output never depends on scheduling.
    """
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    angles = _eval_angles(config) if angles is None else tuple(angles)
    names = sorted(placements)
    rows = []
    worst = 0.0
    selections = [placements[n] for n in names]
    parallel = threads > 1 and len(names) > 1
    with ThreadPoolExecutor(max_workers=threads) if parallel else nullcontext() as pool:
        for problem in problems:
            ev = _GridEvaluation(config, problem, grid, angles, selections)
            worst = max(worst, ev.truncation_error)
            per_name = pool.map(ev.sdrs, selections) if parallel else map(ev.sdrs, selections)
            for name, sdrs in zip(names, per_name):
                rows.extend((a, problem.freq.hz, s, name) for a, s in zip(angles, sdrs))
    rows.sort(key=lambda r: (r[3], r[1], -math.inf if r[0] is None else r[0]))
    return Evaluation(rows, worst)


def _fields(ev, indices):
    u_syn, drivers = ev.synthesize(indices)
    u_syn, u_des = u_syn[:, 0], ev.desired[:, 0]
    rms = math.sqrt(float(np.mean(np.abs(u_des) ** 2)))
    return {
        "synthesized": u_syn,
        "desired": u_des,
        "error": (u_syn - u_des) / rms,
        "normalization": rms,
        "drivers": drivers[:, 0],
    }


def field_grids(config, problem, indices, angle_deg):
    """Synthesized/desired/normalized-error fields on the evaluation grid."""
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    ev = _GridEvaluation(config, problem, grid, (angle_deg,), [indices])
    return dict(_fields(ev, indices), grid=grid)


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


def write_field_csv(path_base, grid, values, meta):
    rows = [
        (_fmt(grid[i, 0]), _fmt(grid[i, 1]), _fmt(values[i].real), _fmt(values[i].imag))
        for i in range(len(grid))
    ]
    write_csv(path_base + ".csv", ("x", "y", "re", "im"), rows)
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


def write_field_set(out_dir, config, problem, placements, angle_deg, tag=""):
    """Field dumps for one (angle, frequency): desired once, per-method rest."""
    f_hz = problem.freq.hz
    stem = "field%s_f%s_a%s" % (tag, ("%g" % f_hz), _angle_tag(angle_deg))
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    names = sorted(placements)
    ev = _GridEvaluation(config, problem, grid, (angle_deg,), [placements[n] for n in names])
    write_field_csv(
        os.path.join(out_dir, stem + "_desired"),
        grid,
        ev.desired[:, 0],
        _field_meta(config, f_hz, angle_deg, "desired"),
    )
    for name in names:
        fields = _fields(ev, placements[name])
        for kind in ("synthesized", "error"):
            extra = {"method": name}
            if kind == "error":
                extra["normalization"] = fields["normalization"]
            write_field_csv(
                os.path.join(out_dir, "%s_%s_%s" % (stem, name, kind)),
                grid,
                fields[kind],
                _field_meta(config, f_hz, angle_deg, kind, extra),
            )


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
    """Greedy placement (plus flagged baselines); writes placement + trace."""
    out = _ensure_out(config, out_dir)
    _echo_config(config, out)
    problems = build_problems(config)
    result = place_greedy(config, problems)
    positions = config.candidate_positions()
    write_placement_csv(os.path.join(out, "placement.csv"), result.indices, positions)
    write_trace_csv(os.path.join(out, "cost_trace.csv"), result.cost_trace)
    placements = {"proposed": result.indices}
    for name in config.baselines:
        idx = baseline_indices(config, name)
        write_placement_csv(os.path.join(out, "placement_%s.csv" % name), idx, positions)
        placements[name] = idx
    return {"result": result, "problems": problems, "placements": placements, "out": out}


def run_evaluate(config: ExperimentConfig, indices=None, out_dir=None, threads=1):
    """Evaluate a placement (plus flagged baselines); writes the SDR table."""
    out = _ensure_out(config, out_dir)
    _echo_config(config, out)
    if indices is None:
        indices = config.evaluation.placement
    if indices is None:
        raise ValueError("no placement: pass indices or set evaluation.placement")
    indices = tuple(int(i) for i in indices)
    n = config.candidates.count
    if any(not 0 <= i < n for i in indices) or len(set(indices)) != len(indices):
        raise ValueError("placement indices must be distinct and in [0, %d)" % n)
    placements = {"proposed": indices}
    for name in config.baselines:
        placements[name] = baseline_indices(config, name)
    union = sorted({i for idx in placements.values() for i in idx})
    problems = build_problems(config, columns=union)
    rows, truncation_error = evaluate_placements(
        config, problems, placements, threads=threads
    )
    write_sdr_csv(os.path.join(out, "sdr.csv"), rows)
    if config.evaluation.write_fields:
        for problem in problems:
            for angle in _eval_angles(config):
                write_field_set(out, config, problem, placements, angle)
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


def run_reproduce(out_dir="paper_out", threads=1):
    """Full reverberant study: narrowband + broadband, all three methods."""
    cfg_nb = paper_config(broadband=False, output_dir=out_dir)
    cfg_bb = paper_config(broadband=True, output_dir=out_dir)
    out = _ensure_out(cfg_nb)
    _echo_config(cfg_nb, out, "config_narrowband.json")
    _echo_config(cfg_bb, out, "config_broadband.json")
    positions = cfg_nb.candidate_positions()

    problems_nb = build_problems(cfg_nb)
    result_nb = place_greedy(cfg_nb, problems_nb)
    problems_bb = build_problems(cfg_bb)
    result_bb = place_greedy(cfg_bb, problems_bb)
    base = {name: baseline_indices(cfg_nb, name) for name in cfg_nb.baselines}

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
    rows_nb = evaluate_placements(cfg_nb, problems_nb, nb_placements, threads=threads).rows
    write_sdr_csv(os.path.join(out, "sdr_narrowband.csv"), rows_nb)

    bb_placements = dict(base, proposed=result_bb.indices)
    rows_bb = evaluate_placements(cfg_bb, problems_bb, bb_placements, threads=threads).rows
    write_sdr_csv(os.path.join(out, "sdr_broadband.csv"), rows_bb)

    write_field_set(out, cfg_nb, problems_nb[0], nb_placements, 0.0, tag="_nb")

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
