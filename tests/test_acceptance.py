"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single PASS/FAIL line carrying the measured numbers
before asserting, so `pytest -v` names the verdict per criterion and the
printed line (shown on failure, or always under -s) records the margins.
Criterion 6 runs the bundled reverberant study once at module scope;
criterion 7 reuses its artifacts.
"""

import json
import time

import numpy as np
import pytest

from sfsplace.cli import main
from sfsplace.config import RoomSpec
from sfsplace.experiment import run_reproduce
from sfsplace.placement import (
    DirectionRangePrior,
    FieldPrior,
    SelectionState,
    add_candidate,
    greedy_place_broadband,
    placement_cost,
    prior_from_direction_range,
)
from sfsplace.specfun import hankel1_rows
from sfsplace.synthesis import WeightMatrix, source_coeff_matrix, weight_matrix_circle
from sfsplace.wavefield import (
    CircularRegion,
    Frequency,
    _basis_matrix,
    expansion_for,
)

from oracles import direct_transfer, exhaustive_place, one_bin, weight_matrix_quadrature

# the reference study geometry used by criteria 3, 4 and 6
REGION = CircularRegion((0.5, 0.3), 0.5)

# greedy cost traces produced anywhere in this module, checked by criterion 7
_TRACES: list[np.ndarray] = []


def _report(num, ok, detail):
    print("%s: criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail), flush=True)


def _disc_points(rng, region, count, depth=0.95):
    r = region.radius * depth * np.sqrt(rng.uniform(0.0, 1.0, count))
    t = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.column_stack(
        [region.center[0] + r * np.cos(t), region.center[1] + r * np.sin(t)]
    )


def _random_prior(rng, size):
    mean = rng.normal(size=size) + 1j * rng.normal(size=size)
    b = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    cov = (b @ b.conj().T) / size
    return FieldPrior(mean, cov)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    t0 = time.perf_counter()
    summary = run_reproduce(out_dir=str(out))
    return {"summary": summary, "out": out, "elapsed": time.perf_counter() - t0}


def test_criterion_1_incremental_inverse_matches_direct():
    rng = np.random.default_rng(0)
    n, dim, n_select, lam = 30, 12, 10, 1e-4
    t0 = time.perf_counter()
    worst_q = 0.0
    worst_cost = 0.0
    for _ in range(100):
        coeff = rng.normal(size=(dim, n)) + 1j * rng.normal(size=(dim, n))
        weight = WeightMatrix(np.diag(rng.uniform(0.5, 2.0, dim)))
        w = weight.entries
        prior = _random_prior(rng, dim)
        result = greedy_place_broadband(one_bin(coeff, weight, prior), lam, n_select=n_select)
        _TRACES.append(result.cost_trace)
        # replay the picks so every intermediate residual state is inspected
        state = SelectionState.from_problem(one_bin(coeff, weight, prior), lam)
        for step, idx in enumerate(result.indices, start=1):
            state = add_candidate(state, idx)
            sel = list(state.selected)
            wcs = w @ coeff[:, sel]
            gram = wcs.conj().T @ coeff[:, sel] + lam * np.eye(len(sel))
            direct_q = w - wcs @ np.linalg.solve(gram, wcs.conj().T)
            worst_q = max(worst_q, np.abs(state.q[0] - direct_q).max() / np.abs(w).max())
            direct = placement_cost(sel, prior, coeff, weight, lam)
            rel = abs(result.cost_trace[step] - direct) / max(abs(direct), 1e-300)
            worst_cost = max(worst_cost, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_q < 1e-8 and worst_cost < 1e-9 and elapsed < 10.0
    _report(
        1,
        ok,
        "100 instances (N=30, M=12, L=10), every step: max |Q - Q_S| / max|W| "
        "%.2e (< 1e-8), max trace-vs-direct cost rel diff %.2e (< 1e-9), "
        "%.1f s (< 10 s)" % (worst_q, worst_cost, elapsed),
    )
    assert ok


def test_criterion_2_greedy_vs_exhaustive():
    rng = np.random.default_rng(1)
    lam = 1e-5
    t0 = time.perf_counter()
    ratios = []
    optimal_ok = 0
    first_ok = 0
    runs = 50
    for _ in range(runs):
        region = CircularRegion(rng.uniform(-0.2, 0.2, 2), rng.uniform(0.4, 0.6))
        freq = Frequency(rng.uniform(300.0, 1200.0))
        cfg = expansion_for(region, freq)
        ring = rng.uniform(2.0, 2.5)
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, 12))
        cands = np.column_stack(
            [region.center[0] + ring * np.cos(angles), region.center[1] + ring * np.sin(angles)]
        )
        coeff = source_coeff_matrix(cands, [(cfg, freq)])[0]
        (weight,) = weight_matrix_circle(region, [(cfg, freq)])
        lo = rng.uniform(-np.pi, np.pi)
        (prior,) = prior_from_direction_range(
            DirectionRangePrior(lo, lo + rng.uniform(0.3, 2.0)), [(cfg, freq)]
        )
        greedy = greedy_place_broadband(one_bin(coeff, weight, prior), lam, n_select=3)
        _TRACES.append(greedy.cost_trace)
        j_greedy = placement_cost(greedy.indices, prior, coeff, weight, lam)
        opt_idx, j_opt = exhaustive_place(coeff, weight, prior, lam, 3)
        scale = max(abs(j_greedy), abs(j_opt), 1e-300)
        optimal_ok += j_opt <= j_greedy + 1e-9 * scale
        first_ok += exhaustive_place(coeff, weight, prior, lam, 1)[0][0] == greedy.indices[0]
        ratios.append(j_greedy / j_opt)
    elapsed = time.perf_counter() - t0
    median = float(np.median(ratios))
    ok = optimal_ok == runs and first_ok == runs and elapsed < 60.0
    _report(
        2,
        ok,
        "%d free-field instances (N=12, L=3): J_opt <= J_greedy on %d/%d, first pick "
        "agreed on %d/%d, median J_greedy/J_opt %.4f (reported, no threshold), "
        "%.1f s (< 60 s)" % (runs, optimal_ok, runs, first_ok, runs, median, elapsed),
    )
    assert ok


def test_criterion_3_expansion_fidelity():
    rng = np.random.default_rng(0)
    freq = Frequency(1000.0)
    cfg = expansion_for(REGION, freq)
    source = (-1.5, -1.5)  # corner of the reference candidate loop
    points = _disc_points(rng, REGION, 50)
    t0 = time.perf_counter()

    basis = _basis_matrix(cfg, points, freq).T
    direct = direct_transfer(points, [source], freq)[:, 0]
    coeffs = source_coeff_matrix([source], [(cfg, freq)])[0][:, 0]
    series = basis @ coeffs
    err_free = float(np.max(np.abs(series - direct) / np.abs(direct)))

    room = RoomSpec(5.0, 4.0, 0.8, max_reflection_order=3).to_model()
    direct_room = direct_transfer(points, [source], freq, room)[:, 0]
    coeffs_room = source_coeff_matrix([source], [(cfg, freq)], room)[0][:, 0]
    series_room = basis @ coeffs_room
    err_room = float(np.max(np.abs(series_room - direct_room) / np.abs(direct_room)))

    elapsed = time.perf_counter() - t0
    ok = err_free < 1e-6 and err_room < 1e-5 and elapsed < 10.0
    _report(
        3,
        ok,
        "point-source expansion max rel err %.2e (< 1e-6), order-3 reverberant "
        "expansion %.2e (< 1e-5), %.1f s (< 10 s)" % (err_free, err_room, elapsed),
    )
    assert ok


def test_criterion_4_weight_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    worst_diag = 0.0
    worst_off = 0.0
    for f_hz in np.arange(100.0, 2001.0, 100.0):
        freq = Frequency(f_hz)
        cfg = expansion_for(REGION, freq)
        w_closed = weight_matrix_circle(REGION, [(cfg, freq)])[0].entries
        w_quad = weight_matrix_quadrature(REGION, cfg, freq).entries
        diag_c = np.real(np.diag(w_closed))
        diag_q = np.real(np.diag(w_quad))
        worst_diag = max(worst_diag, float(np.max(np.abs(diag_q - diag_c) / diag_c)))
        off = np.abs(w_quad - w_closed)
        np.fill_diagonal(off, 0.0)
        # closed-form off-diagonals are exactly zero; bound them absolutely
        worst_off = max(worst_off, float(off.max() / diag_c.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_diag < 1e-6 and worst_off < 1e-10 and elapsed < 30.0
    _report(
        4,
        ok,
        "100-2000 Hz: max diagonal rel diff %.2e (< 1e-6), max off-diagonal "
        "%.2e of the largest diagonal (< 1e-10), %.1f s (< 30 s)"
        % (worst_diag, worst_off, elapsed),
    )
    assert ok


def test_criterion_5_cost_matches_monte_carlo():
    rng = np.random.default_rng(12345)
    region = CircularRegion((0.0, 0.0), 0.4)
    freq = Frequency(800.0)
    cfg = expansion_for(region, freq)
    angles = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    cands = 1.8 * np.column_stack([np.cos(angles), np.sin(angles)])
    coeff = source_coeff_matrix(cands, [(cfg, freq)])[0]
    (weight,) = weight_matrix_circle(region, [(cfg, freq)])
    (prior,) = prior_from_direction_range(
        DirectionRangePrior(np.deg2rad(-40.0), np.deg2rad(40.0)), [(cfg, freq)]
    )
    lam = 1e-4
    selected = (0, 2, 5)
    t0 = time.perf_counter()
    j_cost = placement_cost(selected, prior, coeff, weight, lam)

    # residual quadratic form of the regularized solve on this selection
    w = weight.entries
    c_sel = coeff[:, list(selected)]
    wc = w @ c_sel
    a_inv = np.linalg.inv(c_sel.conj().T @ wc + lam * np.eye(len(selected)))
    d_form = w - wc @ a_inv @ wc.conj().T

    # draws matching the prior's mean and covariance (circular Gaussian)
    evals, evecs = np.linalg.eigh(prior.covariance)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    draws = 10 ** 5
    z = (
        rng.normal(size=(prior.size, draws)) + 1j * rng.normal(size=(prior.size, draws))
    ) / np.sqrt(2.0)
    b = prior.mean[:, None] + root @ z
    mc_mean = float(np.mean(np.einsum("id,id->d", b.conj(), d_form @ b).real))
    elapsed = time.perf_counter() - t0

    rel = abs(j_cost - mc_mean) / abs(mc_mean)
    ok = rel < 0.01 and elapsed < 60.0
    _report(
        5,
        ok,
        "free-field toy (N=6): placement_cost %.6e vs Monte-Carlo mean %.6e over "
        "1e5 two-moment-matched draws, rel diff %.2e (< 1e-2), %.1f s (< 60 s)"
        % (j_cost, mc_mean, rel, elapsed),
    )
    assert ok


def test_criterion_6_reference_study_orderings(study):
    s = study["summary"]
    nb = s["narrowband"]
    mean_p = nb["proposed"]["mean_sdr_db"]
    mean_a = nb["regular_a"]["mean_sdr_db"]
    mean_b = nb["regular_b"]["mean_sdr_db"]
    ok_mean = mean_p > mean_a > mean_b and mean_p - mean_a >= 2.0

    zero_p = nb["proposed"]["sdr_at_0deg_db"]
    zero_a = nb["regular_a"]["sdr_at_0deg_db"]
    zero_b = nb["regular_b"]["sdr_at_0deg_db"]
    ok_zero = zero_p > zero_a > zero_b

    bb = s["broadband"]
    freqs = sorted(float(f) for f in bb["proposed"])
    losing = [
        "%g" % f
        for f in freqs
        if f >= 300.0 and bb["proposed"]["%g" % f] < bb["regular_a"]["%g" % f]
    ]
    ok_bins = not losing
    b_low = np.mean([bb["regular_b"]["%g" % f] for f in freqs if f < 1000.0])
    b_high = max(bb["regular_b"]["%g" % f] for f in freqs if f > 1000.0)
    drop = float(b_low - b_high)
    ok_drop = drop > 6.0
    ok_time = study["elapsed"] < 900.0

    ok = ok_mean and ok_zero and ok_bins and ok_drop and ok_time
    detail = (
        "(a) 1000 Hz angle-mean P/A/B = %.2f/%.2f/%.2f dB, gap %.2f (need P>A>B, "
        "gap >= 2) %s; (b) 0 deg P/A/B = %.2f/%.2f/%.2f dB (need P>A>B) %s; "
        "(c) broadband bins >= 300 Hz with P < A: %s %s; regular-B drop above "
        "1 kHz %.2f dB (> 6) %s; %.0f s (< 900 s)"
        % (
            mean_p, mean_a, mean_b, mean_p - mean_a, "ok" if ok_mean else "VIOLATED",
            zero_p, zero_a, zero_b, "ok" if ok_zero else "VIOLATED",
            losing if losing else "none", "ok" if ok_bins else "VIOLATED",
            drop, "ok" if ok_drop else "VIOLATED", study["elapsed"],
        )
    )
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_7_monotone_traces_and_determinism(study, tmp_path):
    rng = np.random.default_rng(7)
    traces = list(_TRACES)
    # fresh instances so the check stands alone even under test selection
    for _ in range(20):
        coeff = rng.normal(size=(10, 24)) + 1j * rng.normal(size=(10, 24))
        weight = WeightMatrix(np.diag(rng.uniform(0.5, 2.0, 10)))
        prior = _random_prior(rng, 10)
        result = greedy_place_broadband(one_bin(coeff, weight, prior), 1e-4, n_select=8)
        traces.append(result.cost_trace)
    for name in ("cost_trace_narrowband.csv", "cost_trace_broadband.csv"):
        traces.append(np.loadtxt(study["out"] / name, delimiter=",", skiprows=1)[:, 1])
    monotone = all(np.all(np.diff(t) <= 0.0) for t in traces)

    def run(tag):
        out = tmp_path / tag
        doc = {
            "candidates": {"square": {"size": 2.4, "count": 16}},
            "region": {"center": [0.1, 0.0], "radius": 0.3},
            "prior": {"angle_min_deg": -30.0, "angle_max_deg": 30.0},
            "frequencies": [500.0, 900.0],
            "n_select": 3,
            "room": {"size_x": 5.0, "size_y": 4.0, "reflection": 0.6,
                     "max_reflection_order": 2},
            "baselines": ["regular_b"],
            "evaluation": {"angles_deg": [-20.0, 0.0, 20.0], "grid_spacing": 0.05},
            "output_dir": str(out),
        }
        cfg = tmp_path / ("%s.json" % tag)
        cfg.write_text(json.dumps(doc))
        assert main(["place", "--config", str(cfg)]) == 0
        assert main([
            "evaluate", "--config", str(cfg),
            "--placement", str(out / "placement.csv"),
        ]) == 0
        names = ("placement.csv", "cost_trace.csv", "placement_regular_b.csv", "sdr.csv")
        return {n: (out / n).read_bytes() for n in names}

    first = run("a")
    repeat = run("b")
    identical = first == repeat

    ok = monotone and identical
    _report(
        7,
        ok,
        "%d greedy traces non-increasing: %s; repeated runs byte-identical: %s"
        % (len(traces), monotone, identical),
    )
    assert ok


def test_criterion_8_bessel_identities():
    rng = np.random.default_rng(0)
    count = 1000
    m = rng.integers(0, 41, count)
    x = rng.uniform(0.5, 100.0, count)
    t0 = time.perf_counter()
    rows = np.array([row.copy() for row in hankel1_rows(41, x)])  # [J_m; Y_m] per order
    js, ys = rows[:, 0], rows[:, 1]
    cols = np.arange(count)

    wron = js[m + 1, cols] * ys[m, cols] - js[m, cols] * ys[m + 1, cols]
    target = 2.0 / (np.pi * x)
    err_wron = float(np.max(np.abs(wron - target) / target))

    # order -1 terms enter through J_{-1} = -J_1, Y_{-1} = -Y_1
    j_lo = np.where(m >= 1, js[np.maximum(m - 1, 0), cols], -js[1, cols])
    y_lo = np.where(m >= 1, ys[np.maximum(m - 1, 0), cols], -ys[1, cols])
    err_rec = 0.0
    for lo, table in ((j_lo, js), (y_lo, ys)):
        lhs = lo + table[m + 1, cols]
        rhs = (2.0 * m / x) * table[m, cols]
        scale = np.maximum.reduce([np.abs(lo), np.abs(table[m + 1, cols]), np.abs(rhs)])
        err_rec = max(err_rec, float(np.max(np.abs(lhs - rhs) / scale)))

    elapsed = time.perf_counter() - t0
    ok = err_wron < 1e-8 and err_rec < 1e-8 and elapsed < 5.0
    _report(
        8,
        ok,
        "1000 points, m in [0, 40], x in [0.5, 100]: max Wronskian rel err %.2e, "
        "max recurrence rel err %.2e (both < 1e-8), %.1f s (< 5 s)"
        % (err_wron, err_rec, elapsed),
    )
    assert ok
