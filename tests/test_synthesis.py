import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

from sfsplace import specfun, synthesis
from sfsplace.config import square_loop
from sfsplace.experiment import GRID_ORDERS, _bins, _weights, paper_config, pm_control_points
from sfsplace.room import RoomModel, _images
from sfsplace.synthesis import (
    SDR_CAP_DB,
    ConditioningError,
    WeightMatrix,
    _coeff_sdr,
    _lattice_gram,
    _normal_system,
    _scaled_solve,
    _sdr_db,
    identity_weight,
    region_grid,
    solve_wmm,
    source_coeff_matrix,
    synthesis_lambda,
    weight_matrix_circle,
)
from sfsplace.wavefield import (
    CircularRegion,
    ExpansionConfig,
    Frequency,
    Point2,
    _basis_matrix,
    expansion_for,
    planewave_coeffs,
)

from oracles import (
    build_pressure_matching,
    direct_transfer,
    far_translation,
    graf_coeffs,
    point_gram,
    sdr,
    traced_peak,
    weight_matrix_quadrature,
    wmm_residual,
)

REGION = CircularRegion(Point2(0.5, 0.3), 0.5)
PAPER_ROOM = RoomModel(5.0, 4.0, (0.8, 0.8, 0.8, 0.8), max_reflection_order=10)
F1K = Frequency(1000.0)
CFG = expansion_for(REGION, F1K)
(W1K,) = weight_matrix_circle(REGION, [(CFG, F1K)])


def _random_system(seed, rows=41, cols=8):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    base = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    w = WeightMatrix(base.conj().T @ base / rows)
    return c, w, b


# ---------------------------------------------------------------------------
# weighting matrix


@pytest.mark.parametrize("m", [0, 1, 3, 11, 20])
def test_weight_circle_diagonal_matches_adaptive_quadrature(m):
    k = F1K.wavenumber
    val, err = scipy.integrate.quad(
        lambda r: scipy.special.jv(m, k * r) ** 2 * r,
        0.0,
        REGION.radius,
        limit=800,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    assert err < 1e-10
    got = W1K.entries[CFG.max_order + m, CFG.max_order + m].real
    assert got == pytest.approx(2.0 * math.pi * val, rel=1e-9)


def test_weight_circle_matches_polar_quadrature_oracle():
    # independent tensor rule: 256-node Gauss-Legendre radial x 512 uniform
    # angular, assembled with scipy Bessel functions
    k = F1K.wavenumber
    nodes, wts = np.polynomial.legendre.leggauss(256)
    r = 0.5 * REGION.radius * (nodes + 1.0)
    wr = 0.5 * REGION.radius * wts * r
    th = 2.0 * math.pi * np.arange(512) / 512.0
    m = np.arange(-CFG.max_order, CFG.max_order + 1)
    psi = scipy.special.jv(m[:, None, None], k * r[None, :, None]) * np.exp(
        1j * m[:, None, None] * th[None, None, :]
    )
    wmat = np.einsum("mrt,nrt,r->mn", psi.conj(), psi, wr) * (2.0 * math.pi / 512.0)
    diag = np.diag(W1K.entries).real
    assert np.max(np.abs(np.diag(wmat).real - diag)) / np.max(diag) < 1e-9
    off = wmat - np.diag(np.diag(wmat))
    assert np.max(np.abs(off)) < 1e-9 * np.max(diag)


def test_weight_circle_small_argument_limit_is_area():
    region = CircularRegion(Point2(0.0, 0.0), 0.2)
    freq = Frequency(1e-3)
    (w,) = weight_matrix_circle(region, [(expansion_for(region, freq), freq)])
    mid = w.size // 2
    assert w.entries[mid, mid].real == pytest.approx(math.pi * 0.2 ** 2, rel=1e-6)


def test_weight_circle_requires_concentric_expansion():
    from sfsplace.wavefield import ExpansionConfig

    cfg = ExpansionConfig(max_order=20, center=Point2(0.0, 0.0), valid_radius=0.5)
    with pytest.raises(ValueError):
        weight_matrix_circle(REGION, [(CFG, F1K), (cfg, F1K)])


def test_weight_quadrature_matches_closed_form():
    wq = weight_matrix_quadrature(REGION, CFG, F1K)
    diag = np.diag(W1K.entries).real
    assert np.max(np.abs(np.diag(wq.entries).real - diag)) / np.max(diag) < 1e-10
    off = wq.entries - np.diag(np.diag(wq.entries))
    assert np.max(np.abs(off)) < 1e-10 * np.max(diag)


def test_weight_quadrature_offset_center_converged():
    # expansion centered away from the region: no closed form, so check
    # stability under node doubling instead
    from sfsplace.wavefield import ExpansionConfig

    cfg = ExpansionConfig(max_order=14, center=Point2(0.1, -0.2), valid_radius=0.0)
    region = CircularRegion(Point2(0.4, 0.2), 0.3)
    w1 = weight_matrix_quadrature(region, cfg, F1K, n_radial=48, n_angular=72)
    w2 = weight_matrix_quadrature(region, cfg, F1K, n_radial=96, n_angular=144)
    scale = np.max(np.abs(w2.entries))
    assert np.max(np.abs(w1.entries - w2.entries)) / scale < 1e-9


def test_weight_quadrature_offset_center_matches_grid_energy():
    # the field is sum_m a_m J_m e^{i m phi}, so the regional energy is
    # a^H W a with W = conj(B) diag(w) B^T; off center W is complex and its
    # transpose gives a wrong energy (tens of percent here)
    from sfsplace.wavefield import ExpansionConfig

    cfg = ExpansionConfig(max_order=14, center=Point2(0.1, -0.2), valid_radius=0.0)
    region = CircularRegion(Point2(0.4, 0.2), 0.3)
    w = weight_matrix_quadrature(region, cfg, F1K).entries
    spacing = 0.002
    grid = region_grid(region, spacing=spacing)
    rng = np.random.default_rng(1)
    for _ in range(3):
        a = rng.standard_normal(cfg.size) + 1j * rng.standard_normal(cfg.size)
        u = _basis_matrix(cfg, grid, F1K).T @ a
        brute = float(np.sum(np.abs(u) ** 2)) * spacing ** 2
        assert float((a.conj() @ w @ a).real) == pytest.approx(brute, rel=1e-3)


def test_weight_quadrature_angular_node_floor_enforced():
    with pytest.raises(ValueError):
        weight_matrix_quadrature(REGION, CFG, F1K, n_angular=4 * CFG.max_order - 4)


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))  # indefinite
    with pytest.raises(ValueError):
        WeightMatrix(np.full((2, 2), np.nan))


def test_weight_matrix_psd_check_on_diagonal_and_dense_weights(monkeypatch):
    # the smallest eigenvalue is judged against -1e-10 of the trace. A
    # diagonal weight (the wmm disc, the identity) reads it off the real
    # diagonal; a dense one (pressure matching) keeps eigvalsh.
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    cases = []
    for low, ok in ((-1e-12, True), (-1e-9, False), (-0.5, False)):
        d = np.array([1.0, 0.5, low])
        dense = u @ np.diag(d) @ u.conj().T
        cases.append((0.5 * (dense + dense.conj().T), ok))
        cases.append((np.diag(d + 0j), ok))
    eigvalsh = np.linalg.eigvalsh
    for w, ok in cases:
        diagonal = np.count_nonzero(w - np.diag(w.diagonal())) == 0
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        if ok:
            assert np.array_equal(WeightMatrix(w).entries, w)
        else:
            with pytest.raises(ValueError, match="positive semidefinite"):
                WeightMatrix(w)
        assert len(calls) == (0 if diagonal else 1)


# ---------------------------------------------------------------------------
# solvers


def test_solve_wmm_matches_stacked_least_squares_oracle():
    c, w, b = _random_system(3)
    lam = synthesis_lambda(c, w)
    d = solve_wmm(c, w, b, lam)
    evals, vecs = np.linalg.eigh(w.entries)
    sqrt_w = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    aug = np.vstack([sqrt_w @ c, math.sqrt(lam) * np.eye(c.shape[1])])
    rhs = np.concatenate([sqrt_w @ b, np.zeros(c.shape[1])])
    ref = np.linalg.lstsq(aug, rhs, rcond=None)[0]
    assert np.linalg.norm(d - ref) / np.linalg.norm(ref) < 1e-8


def test_solve_wmm_zero_target():
    c, w, _ = _random_system(4)
    d = solve_wmm(c, w, np.zeros(41, dtype=complex), 1e-4)
    assert np.all(d == 0.0)


def test_scaled_solve_equals_lambda_then_solve_bit_for_bit():
    # evaluation's one normal system serves both the regularizer and the
    # solve, with synthesis_lambda's and solve_wmm's results
    c, w, b = _random_system(3)
    targets = np.c_[b, 2j * b[::-1]]
    for scale in (1e-3, 0.5):
        want = solve_wmm(c, w, targets, synthesis_lambda(c, w, scale))
        assert np.array_equal(_scaled_solve(c, w, targets, scale), want)
    with pytest.raises(ValueError, match="must be positive"):
        _scaled_solve(np.zeros((41, 2), dtype=complex), w, b, 1e-3)


def test_solve_wmm_ridge_shrinkage():
    c, w, b = _random_system(5)
    top = synthesis_lambda(c, w, scale=1.0)
    norms = [
        np.linalg.norm(solve_wmm(c, w, b, lam))
        for lam in top * np.logspace(-6.0, 2.0, 12)
    ]
    for lo, hi in zip(norms[1:], norms[:-1]):
        assert lo <= hi * (1.0 + 1e-12)


def test_solve_wmm_residual_optimality():
    c, w, b = _random_system(6)
    lam = synthesis_lambda(c, w)
    d = solve_wmm(c, w, b, lam)
    base = wmm_residual(c, w, b, d, lam)
    rng = np.random.default_rng(11)
    radius = 1e-4 * np.linalg.norm(d)
    for _ in range(100):
        e = rng.standard_normal(len(d)) + 1j * rng.standard_normal(len(d))
        e *= radius / np.linalg.norm(e)
        assert wmm_residual(c, w, b, d + e, lam) >= base


def test_solve_wmm_rejects_bad_inputs():
    c, w, b = _random_system(7)
    with pytest.raises(ValueError):
        solve_wmm(c, w, b, 0.0)
    c_bad = c.copy()
    c_bad[0, 0] = np.inf
    with pytest.raises(ConditioningError):
        solve_wmm(c_bad, w, b, 1e-4)
    # 8 columns spanning 4 dimensions: C^H C is singular, and a lam of
    # 1e-300 leaves its rounding-sized eigenvalues to fail the factorization
    rng = np.random.default_rng(7)
    span = rng.standard_normal((41, 4)) + 1j * rng.standard_normal((41, 4))
    c_low = span @ (rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)))
    with pytest.raises(ConditioningError, match="not positive definite"):
        solve_wmm(c_low, identity_weight(41), b, 1e-300)
    # an indefinite weight is rejected before it reaches a solve
    with pytest.raises(ValueError, match="positive semidefinite"):
        WeightMatrix(-np.eye(c.shape[0]))


@pytest.mark.parametrize("scale", [1e-3, 1e-8, 1e-12])
def test_solve_wmm_matches_scipy_cholesky(scale):
    for seed in range(20):
        c, w, _ = _random_system(100 + seed)
        rng = np.random.default_rng(200 + seed)
        targets = rng.standard_normal((41, 5)) + 1j * rng.standard_normal((41, 5))
        lam = synthesis_lambda(c, w, scale)
        for target in (targets[:, 0], targets):
            gram, rhs = _normal_system(c, w, target)
            gram[np.diag_indices_from(gram)] += lam
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)
            got = solve_wmm(c, w, target, lam)
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_solve_wmm_batched_targets_match_column_solves():
    c, w, _ = _random_system(14)
    rng = np.random.default_rng(15)
    targets = rng.standard_normal((41, 5)) + 1j * rng.standard_normal((41, 5))
    lam = synthesis_lambda(c, w)
    batched = solve_wmm(c, w, targets, lam)
    assert batched.shape == (8, 5)
    for a in range(5):
        single = solve_wmm(c, w, targets[:, a], lam)
        assert np.linalg.norm(batched[:, a] - single) <= 1e-12 * np.linalg.norm(single)
    with pytest.raises(ValueError):
        solve_wmm(c, w, targets[:40], lam)


def test_solve_mode_matching_is_identity_weighted_wmm():
    rng = np.random.default_rng(8)
    c = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lam = 1e-3
    d = solve_wmm(c, identity_weight(5), b, lam)
    # normal-equation oracle
    ref = np.linalg.solve(
        c.conj().T @ c + lam * np.eye(3), c.conj().T @ b
    )
    assert np.linalg.norm(d - ref) / np.linalg.norm(ref) < 1e-8
    assert np.all(solve_wmm(c, identity_weight(5), np.zeros(5, dtype=complex), lam) == 0.0)


def test_synthesis_lambda_power_iteration_oracle():
    rng = np.random.default_rng(9)
    c = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    base = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    w = WeightMatrix(base.conj().T @ base / 9.0)
    gram = c.conj().T @ w.entries @ c
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for _ in range(2000):
        v = gram @ v
        v /= np.linalg.norm(v)
    top = float((v.conj() @ gram @ v).real)
    assert synthesis_lambda(c, w) == pytest.approx(1e-3 * top, rel=1e-6)


def test_synthesis_lambda_degenerate_cases():
    assert synthesis_lambda(np.zeros((5, 2), dtype=complex), identity_weight(5)) == 0.0
    col = np.zeros((4, 1), dtype=complex)
    col[2, 0] = 1.0
    assert synthesis_lambda(col, identity_weight(4)) == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# fields, SDR, grids


def test_synthesize_field_superposition_and_single_source():
    rng = np.random.default_rng(10)
    srcs = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 1.0]])
    pts = rng.uniform(-0.5, 0.5, (20, 2))
    d1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    d2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    t = direct_transfer(pts, srcs, F1K)
    np.testing.assert_allclose(t @ (d1 + d2), t @ d1 + t @ d2, rtol=1e-12)
    assert np.all(t @ np.zeros(3, dtype=complex) == 0.0)
    one = direct_transfer(pts, srcs[:1], F1K) @ np.array([1.0 + 0j])
    d = np.hypot(*(pts - srcs[0]).T)
    np.testing.assert_allclose(one, 0.25j * scipy.special.hankel1(0, F1K.wavenumber * d),
                               rtol=1e-13)


def test_synthesize_field_in_room_matches_transfer():
    room = RoomModel.uniform(5.0, 4.0, 0.8, max_reflection_order=3)
    srcs = np.array([[-1.5, -1.5], [1.2, 0.9]])
    d = np.array([0.3 - 0.1j, -0.7 + 0.4j])
    pts = np.array([[0.5, 0.3], [0.0, 0.0], [0.9, -0.2]])
    want = d[0] * direct_transfer(pts, srcs[:1], F1K, room)[:, 0]
    want += d[1] * direct_transfer(pts, srcs[1:], F1K, room)[:, 0]
    np.testing.assert_allclose(direct_transfer(pts, srcs, F1K, room) @ d, want, rtol=1e-13)


def test_sdr_reference_points():
    des = np.array([1.0 + 0j, 0.0])
    assert sdr(des, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
    assert sdr(des, des) == 300.0
    assert sdr(des, 1.1 * des) == pytest.approx(20.0, rel=1e-10)


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=40, deadline=None)
def test_sdr_scale_invariant(log_mag, phase):
    rng = np.random.default_rng(12)
    des = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    syn = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    alpha = 10.0 ** log_mag * np.exp(1j * phase)
    assert sdr(alpha * des, alpha * syn) == pytest.approx(sdr(des, syn), rel=1e-9)


def test_sdr_rejects_zero_desired_and_shape_mismatch():
    with pytest.raises(ValueError):
        sdr(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        sdr(np.ones(4), np.ones(5))
    # one zero-energy column among several
    des = np.ones((4, 3), dtype=complex)
    des[:, 1] = 0.0
    with pytest.raises(ValueError, match="zero energy"):
        sdr(des, np.ones((4, 3)))
    # a NaN or inf sample never reaches a table as a NaN SDR
    syn = np.ones((4, 3), dtype=complex)
    syn[2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sdr(np.ones((4, 3)), syn)
    with pytest.raises(ValueError, match="finite"):
        sdr(np.array([1.0, np.inf]), np.ones(2))


def test_sdr_columnwise_matches_column_calls():
    rng = np.random.default_rng(21)
    des = rng.standard_normal((50, 7)) + 1j * rng.standard_normal((50, 7))
    syn = des + 10.0 ** rng.uniform(-6.0, 0.0, 7) * (
        rng.standard_normal((50, 7)) + 1j * rng.standard_normal((50, 7))
    )
    syn[:, 3] = des[:, 3]  # exact column: capped, not inf
    cols = sdr(des, syn)
    assert cols.shape == (7,)
    for a in range(7):
        one = sdr(des[:, a], syn[:, a])
        assert isinstance(one, float)
        assert abs(cols[a] - one) <= 1e-12
    assert cols[3] == 300.0


def _grid_problem(seed, n_cols=5):
    # a random order-6 field basis over 60 points, the Gram and desired
    # projection of a random desired field, and coefficients near its fit
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((13, 60)) + 1j * rng.standard_normal((13, 60))
    des = rng.standard_normal((60, n_cols)) + 1j * rng.standard_normal((60, n_cols))
    fit = np.linalg.lstsq(basis.T, des, rcond=None)[0]
    coeffs = fit + 0.1 * (rng.standard_normal(fit.shape) + 1j * rng.standard_normal(fit.shape))
    gram = basis.conj() @ basis.T
    cross = basis.conj() @ des
    energy = np.sum(np.abs(des) ** 2, axis=0)
    return basis, des, coeffs, gram, cross, energy


def test_coeff_sdr_matches_grid_sdr():
    basis, des, coeffs, gram, cross, energy = _grid_problem(31)
    got = _coeff_sdr(energy, cross, gram, coeffs)
    np.testing.assert_allclose(got, sdr(des, basis.T @ coeffs), rtol=0.0, atol=1e-9)


def test_coeff_sdr_rejects_non_finite_coefficients():
    _, _, coeffs, gram, cross, energy = _grid_problem(32)
    for bad in (np.nan, np.inf):
        a = coeffs.copy()
        a[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            _coeff_sdr(energy, cross, gram, a)


def test_sdr_db_rejects_zero_desired_energy():
    with pytest.raises(ValueError, match="zero energy"):
        _sdr_db(np.array([4.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        _sdr_db(np.array([4.0, np.nan]), np.array([1.0, 1.0]))


def test_sdr_db_clips_negative_error_to_the_cap():
    # an exact fit whose error energy cancels to a rounding-sized negative
    # value reads as no error at all
    assert _sdr_db(2.0, -1e-16) == SDR_CAP_DB
    got = _sdr_db(np.array([2.0, 2.0, 2.0]), np.array([-3e-15, 0.0, 0.02]))
    np.testing.assert_allclose(got, [SDR_CAP_DB, SDR_CAP_DB, 20.0], rtol=1e-12)
    basis, _, coeffs, gram, _, _ = _grid_problem(33, n_cols=1)
    des = basis.T @ coeffs  # representable exactly
    energy = np.sum(np.abs(des) ** 2, axis=0)
    assert _coeff_sdr(energy, basis.conj() @ des, gram, coeffs)[0] >= 250.0


def test_region_grid_geometry():
    pts = region_grid(REGION, spacing=0.01)
    r = np.hypot(pts[:, 0] - REGION.center.x, pts[:, 1] - REGION.center.y)
    assert np.max(r) <= REGION.radius + 1e-12
    # covered area within a one-cell boundary band of the disc area
    area = len(pts) * 0.01 ** 2
    assert abs(area - math.pi * REGION.radius ** 2) < 2.0 * math.pi * REGION.radius * 0.01
    # layout depends only on radius and spacing, not on the center
    base = region_grid(CircularRegion(Point2(0.0, 0.0), REGION.radius), spacing=0.01)
    np.testing.assert_allclose(pts - np.array([0.5, 0.3]), base, atol=1e-12)


def test_lattice_gram_sums_the_paper_grid_over_its_d4_wedge(monkeypatch):
    # the wedge 0 <= j <= i holds 1024 of the paper grid's 7845 points, and
    # its orbit sizes sum to 7845: at a frequency where J_0(k r) is 1 in
    # float64 and every other order 0 there, P[0, 0] is that sum exactly
    grid = region_grid(REGION, spacing=0.01)
    assert len(grid) == 7845
    wedges = []
    basis = synthesis._basis_matrix

    def spy(cfg, pts, freq):
        wedges.append(pts)
        return basis(cfg, pts, freq)

    monkeypatch.setattr(synthesis, "_basis_matrix", spy)
    tiny = Frequency(1e-9)
    gram = _lattice_gram(expansion_for(REGION, tiny), grid, 0.01, tiny, 1.0)
    ((wedge,),) = [wedges]
    assert len(wedge) == 1024
    mid = gram.shape[0] // 2
    assert gram[mid, mid] == 7845.0


@pytest.mark.parametrize("shift", [0.3, 1.0])
def test_lattice_gram_rejects_an_off_center_grid(shift):
    # a grid whose points are off the lattice about the expansion center,
    # and one on it but shifted by a whole cell (its orbit sizes sum to
    # more than its point count)
    off = CircularRegion(Point2(REGION.center.x + shift * 0.02, REGION.center.y), REGION.radius)
    with pytest.raises(ValueError, match="not a square lattice centered"):
        _lattice_gram(CFG, region_grid(off, spacing=0.02), 0.02, F1K, 1.0)


def test_pressure_matching_weight_is_symmetric_and_matches_the_point_sum():
    # each paper bin's pressure-matching weight, from the control grid's
    # wedge, is real and symmetric bit for bit, zero where n - m is not a
    # multiple of 4, and within 1e-13 of the per-point Gram
    config = paper_config(broadband=True)
    config = type(config).from_dict(dict(config.to_dict(), method="pressure-matching"))
    ctrl, cell = pm_control_points(config)
    bins = _bins(config)
    for (cfg, freq), weight in zip(bins, _weights(config, bins)):
        w = weight.entries
        assert np.array_equal(w, w.T) and not np.any(w.imag)
        m = cfg.orders
        assert not np.any(w[(m[:, None] - m) % 4 != 0])
        want = point_gram(cfg, ctrl, freq, cell).entries
        assert np.max(np.abs(w - want)) <= 1e-13 * np.max(np.abs(want)), freq.hz


# ---------------------------------------------------------------------------
# cross-domain consistency


def test_quadratic_form_tracks_grid_error():
    # the W-weighted coefficient residual is the regional squared error:
    # check against a dense Cartesian sum over the disc
    freq = Frequency(700.0)
    cfg = expansion_for(REGION, freq)
    (w,) = weight_matrix_circle(REGION, [(cfg, freq)])
    phis = 2.0 * math.pi * np.arange(12) / 12.0
    srcs = np.c_[
        REGION.center.x + 2.0 * np.cos(phis), REGION.center.y + 2.0 * np.sin(phis)
    ]
    c = source_coeff_matrix(srcs, [(cfg, freq)])[0]
    direction = math.radians(20.0)
    b = planewave_coeffs(cfg, freq, [direction])[:, 0]
    lam = synthesis_lambda(c, w)
    d = solve_wmm(c, w, b, lam)
    quad = wmm_residual(c, w, b, d, lam)
    spacing = 0.002
    pts = region_grid(REGION, spacing=spacing)
    kvec = freq.wavenumber * np.array([math.cos(direction), math.sin(direction)])
    u_des = np.exp(1j * (pts @ kvec))
    u_syn = direct_transfer(pts, srcs, freq) @ d
    grid = float(np.sum(np.abs(u_des - u_syn) ** 2)) * spacing ** 2
    grid += lam * float(np.vdot(d, d).real)
    assert abs(grid - quad) / quad < 0.02


@pytest.mark.parametrize("room", [None, PAPER_ROOM], ids=["free-field", "room-order10"])
def test_source_coeff_matrix_matches_direct_graf_sum(room):
    freq = Frequency(2000.0, sound_speed=343.0)
    cfg = expansion_for(REGION, freq)
    assert cfg.size == 59
    cx, cy = REGION.center
    rng = np.random.default_rng(8)
    phi = rng.uniform(-math.pi, math.pi, 12)
    rad = rng.uniform(0.7, 1.4, 12)
    srcs = np.r_[
        # the four axes through the expansion center: phi = 0, pi/2, pi, -pi/2
        [[cx + 1.0, cy], [cx, cy + 1.0], [cx - 1.0, cy], [cx, cy - 1.0]],
        # just outside the validity disc
        [[cx + REGION.radius * (1.0 + 1e-6), cy]],
        np.c_[cx + rad * np.cos(phi), cy + rad * np.sin(phi)],
    ]
    got = source_coeff_matrix(srcs, [(cfg, freq)], room)[0]
    want = graf_coeffs(srcs, cfg, freq, room)
    err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert err.max() < 1e-12


def _paper_candidates():
    # the 200 candidates of the paper loop, and 12 of them to check: the 4
    # nearest the region (the nearest at 2 R) and 8 spread around the loop
    config = paper_config(broadband=True)
    cand = config.candidate_positions()
    dist = np.hypot(*(cand - np.array(config.region_center)).T)
    idx = np.r_[np.argsort(dist, kind="stable")[:4], np.arange(12, 200, 25)]
    assert len(set(idx)) == 12
    return cand, idx


def _translations(monkeypatch):
    # the sign-group count of each far translation made from now on
    calls = []
    fold = synthesis._real_fold

    def counted(sums, signs, p):
        calls.append(len(signs))
        return fold(sums, signs, p)

    monkeypatch.setattr(synthesis, "_real_fold", counted)
    return calls


def _assert_matches_scipy(positions, bins, room, columns):
    # the checked columns of one build over every position, against the
    # direct scipy sum over both signs of m: measured 9.9e-14 at most (the
    # 4 kHz edge case; 2.0e-13 with the longdouble series seeds below x = 17)
    for (cfg, freq), got in zip(bins, source_coeff_matrix(positions, bins, room)):
        want = graf_coeffs(positions[columns], cfg, freq, room)
        got = got[:, columns]
        err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() < 2e-13, (freq.hz, err.max())


@pytest.mark.parametrize("free_field", [False, True], ids=["room-order10", "free-field"])
def test_source_coeff_matrix_matches_scipy_in_every_paper_bin(free_field, monkeypatch):
    # all 20 broadband bins (orders 11..29), built over the 200 candidates:
    # in the room the far images of every bin go through the lattice sums
    config = paper_config(broadband=True)
    cand, idx = _paper_candidates()
    bins = _bins(config)
    assert len(bins) == 20
    folds = _translations(monkeypatch)
    _assert_matches_scipy(cand, bins, None if free_field else config.room_model(), idx)
    assert folds == ([] if free_field else [4] * 20)


def test_source_coeff_matrix_matches_scipy_at_high_reflection_order(monkeypatch):
    # reflection order 20 (841 images, up to about 100 m away, so k d far
    # past every order's transition) in the paper room, at the band's ends
    # and middle
    config = paper_config(broadband=True)
    cand, idx = _paper_candidates()
    room = RoomModel(5.0, 4.0, (0.8, 0.8, 0.8, 0.8), max_reflection_order=20)
    assert _images(cand[idx], room)[1].size == 841
    bins = [b for b in _bins(config) if b[1].hz in (100.0, 1000.0, 2000.0)]
    assert len(bins) == 3
    folds = _translations(monkeypatch)
    _assert_matches_scipy(cand, bins, room, idx)
    assert folds == [4] * 3


F2K = Frequency(2000.0, sound_speed=343.0)
F4K = Frequency(4000.0, sound_speed=343.0)


def _edge_case(name):
    # (positions, bins, room, checked columns, sign groups per translation)
    # of one edge of the near/far split
    cand, idx = _paper_candidates()
    cfg2k = expansion_for(REGION, F2K)
    if name == "4kHz":  # the largest k delta_max: 155, translation span 222
        cfg = expansion_for(REGION, F4K)
        assert cfg.max_order == 47
        return cand, [(cfg, F4K)], PAPER_ROOM, idx, [4]
    if name == "zero-walls":  # no x reflections: only signs (+, +) and (+, -)
        room = RoomModel(5.0, 4.0, (0.0, 0.0, 0.8, 0.9), max_reflection_order=40)
        return cand, [(CFG, F1K)], room, idx, [2]
    if name == "no-far":  # order 1: every image within 6 m of the center
        room = RoomModel(5.0, 4.0, (0.8, 0.8, 0.8, 0.8), max_reflection_order=1)
        return cand, [(CFG, F1K), (cfg2k, F2K)], room, idx, []
    if name == "one-point":  # 64 sources at one point: delta = 0, every image far
        return np.repeat(cand[idx[:1]], 64, axis=0), [(CFG, F1K)], PAPER_ROOM, [0, 63], [4]
    if name == "two-centers":
        off = ExpansionConfig(max_order=21, center=Point2(-0.2, 0.1), valid_radius=0.4)
        bins = [(CFG, F1K), (off, Frequency(1500.0)), (cfg2k, F2K)]
        return cand, bins, PAPER_ROOM, idx, [4, 4, 4]
    # evaluation-shaped: a third of the loop plus a point-source desired
    # field outside it, to the grid basis' order
    wide = ExpansionConfig(CFG.max_order + GRID_ORDERS, CFG.center, CFG.valid_radius)
    positions = np.vstack([cand[::3], [[-2.2, -1.8]]])
    return positions, [(wide, F1K)], PAPER_ROOM, [0, 30, 66, 67], [4]


@pytest.mark.parametrize(
    "name", ["4kHz", "zero-walls", "no-far", "one-point", "two-centers", "evaluation"]
)
def test_source_coeff_matrix_matches_scipy_at_the_far_split_edges(name, monkeypatch):
    positions, bins, room, columns, groups = _edge_case(name)
    folds = _translations(monkeypatch)
    _assert_matches_scipy(positions, bins, room, columns)
    assert folds == groups


def test_paper_room_sends_far_images_through_the_lattice_sums(monkeypatch):
    # the 20-bin paper build streams Hankel rows in two streams, one for
    # the 6 near images per candidate of every bin and one for the 4 x 60
    # lattice arguments of every bin: 28,800 arguments, where summing every
    # image directly streams 884,000
    arguments = []
    rows = specfun.hankel1_rows

    def counted(max_order, x):
        arguments.append(x.size)
        return rows(max_order, x)

    monkeypatch.setattr(specfun, "hankel1_rows", counted)
    folds = _translations(monkeypatch)
    config = paper_config(broadband=True)
    source_coeff_matrix(config.candidate_positions(), _bins(config), config.room_model())
    assert folds == [4] * 20
    assert arguments == [20 * 200 * 6, 20 * 4 * 60]


def _far_parts(monkeypatch):
    # per bin of the next build: its lattice sums, sign groups and span,
    # each bin's entry in its own block of the lattice stream (the
    # hankel1_rows order limit), and the far part the real translation adds
    graf, fold, product, rows = (synthesis._graf_coeffs, synthesis._real_fold,
                                 synthesis._one_thread_product, specfun.hankel1_rows)
    streams, limits, folds, parts, last = [], [], {}, {}, []

    def graf_spy(orders, kd, z, gains):
        streams.append(graf(orders, kd, z, gains))
        return streams[-1]

    def rows_spy(max_order, x):
        limits.append(np.asarray(max_order).ravel().tolist())
        return rows(max_order, x)

    def fold_spy(sums, signs, p):
        last[:] = [b for b, s in enumerate(streams[-1]) if s is sums]
        folds[last[0]] = (sums.copy(), signs, p)
        return fold(sums, signs, p)

    def product_spy(x, y):  # the product of the bin last folded
        out = product(x, y)
        n = out.shape[0] // 2
        parts[last[0]] = out[:n] + 1j * out[n:]
        return out

    monkeypatch.setattr(synthesis, "_graf_coeffs", graf_spy)
    monkeypatch.setattr(specfun, "hankel1_rows", rows_spy)
    monkeypatch.setattr(synthesis, "_real_fold", fold_spy)
    monkeypatch.setattr(synthesis, "_one_thread_product", product_spy)
    return limits, folds, parts


@pytest.mark.parametrize("name", ["paper", "4kHz", "zero-walls", "one-point"])
def test_real_translation_matches_the_complex_fold(name, monkeypatch):
    # C = G a + i H b in one real product equals the complex fold of every
    # sign group against R_j = J_j(k delta) u^j, j = -p..p (oracles), with
    # the same lattice sums and J rows, in every bin of the build
    if name == "paper":
        config = paper_config(broadband=True)
        positions, bins, room = config.candidate_positions(), _bins(config), config.room_model()
        assert len(bins) == 20
    else:
        positions, bins, room, _, _ = _edge_case(name)
    _, folds, parts = _far_parts(monkeypatch)
    source_coeff_matrix(positions, bins, room)
    assert sorted(parts) == list(range(len(bins)))
    mid = 0.5 * (positions.min(axis=0) + positions.max(axis=0))
    shift = mid - positions
    delta, beta = np.hypot(*shift.T), np.arctan2(shift[:, 1], shift[:, 0])
    for b, part in parts.items():
        sums, signs, p = folds[b]
        j = specfun._j_block(p, bins[b][1].wavenumber * delta)
        want = far_translation(sums, signs, j, beta)
        err = np.linalg.norm(part - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() <= 1e-14, (b, err.max())


def test_lattice_sums_run_each_bin_to_its_own_order(monkeypatch):
    # the lattice stream gives each paper bin its own block, each argument
    # to that bin's order M_b + p_b (81 to 162), not every bin to the largest
    config = paper_config(broadband=True)
    bins = _bins(config)
    limits, folds, _ = _far_parts(monkeypatch)
    source_coeff_matrix(config.candidate_positions(), bins, config.room_model())
    near, lattice = limits
    assert near == [cfg.max_order for cfg, _ in bins]
    want = [cfg.max_order + folds[b][2] for b, (cfg, _) in enumerate(bins)]
    assert lattice == want
    assert min(want) == 81 and max(want) == 162


def test_source_coeff_matrix_bins_match_one_call_per_bin():
    # bins about the region center share one geometry; a bin about another
    # center rebuilds it; each bin checks its own validity disc
    room = RoomModel(5.0, 4.0, (0.8, 0.7, 0.9, 0.6), max_reflection_order=2)
    f2k = Frequency(2000.0)
    off_center = ExpansionConfig(max_order=12, center=Point2(-0.2, 0.1), valid_radius=0.4)
    bins = [(CFG, F1K), (expansion_for(REGION, f2k), f2k), (off_center, F1K), (CFG, f2k)]
    srcs = np.array([[1.8, 1.2], [-1.5, 0.4], [0.9, -1.6]])
    got = source_coeff_matrix(srcs, bins, room)
    assert len(got) == len(bins)
    for (cfg, freq), coeff in zip(bins, got):
        assert np.array_equal(coeff, source_coeff_matrix(srcs, [(cfg, freq)], room)[0])
    wide = ExpansionConfig(max_order=5, center=REGION.center, valid_radius=1.6)
    with pytest.raises(ValueError, match="validity disc"):
        source_coeff_matrix(srcs, bins[:1] + [(wide, F1K)], room)


def test_one_source_build_equals_its_column_of_a_wider_build():
    # a one-source free-field build streams a single (source, image)
    # element, and numpy rounds an in-place product of one element unlike
    # its vector loop: the image phases must step out of place for its
    # column to equal the same source's column of a wider build bit for bit
    rng = np.random.default_rng(30)
    phi = rng.uniform(0.0, 2.0 * math.pi, 5)
    dist = rng.uniform(0.8, 2.5, 5)
    srcs = np.c_[REGION.center.x + dist * np.cos(phi), REGION.center.y + dist * np.sin(phi)]
    (wide,) = source_coeff_matrix(srcs, [(CFG, F1K)])
    for s, src in enumerate(srcs):
        (alone,) = source_coeff_matrix(src[None], [(CFG, F1K)])
        assert np.array_equal(alone[:, 0], wide[:, s]), s


def test_source_coeff_matrix_memory_is_a_few_image_arrays():
    # the paper's 2 kHz bin: 200 candidates x 221 images, orders 0..29. One
    # (30, 200, 221) complex Hankel block alone is 21.2 MB; streaming every
    # image's rows peaked at 8.9 MB, and with the far images in lattice
    # sums (no (S, I) array for them) the traced peak is 3.3 MB
    freq = Frequency(2000.0, sound_speed=343.0)
    bins = [(expansion_for(REGION, freq), freq)]
    assert bins[0][0].max_order == 29
    srcs = square_loop(3.0, 200)
    source_coeff_matrix(srcs, bins, PAPER_ROOM)  # builds the room's image table
    _, peak = traced_peak(source_coeff_matrix, srcs, bins, PAPER_ROOM)
    assert peak < 5e6


def test_paper_broadband_build_memory_is_bounded():
    # the 20 paper bins in one build: one near-image stream writes each
    # bin's own matrix, and the translation rows come in J blocks of at
    # most _TRANSLATION_BLOCK_BYTES. The traced peak measured 5.35 MB, in
    # the near stream, whose seeds are dropped before its third row
    # generation exists (5.74 MB with them held; 5.78 MB while numpy
    # buffered the per-order parts read at two strides; 5.90 MB with J rows
    # per candidate and negative-order rows from temporaries, 6.16 MB with
    # a stream and a J call per bin); a padded all-bin output with one
    # (134, 4000) J block took 12 to 13.5 MB
    config = paper_config(broadband=True)
    cand, bins, room = config.candidate_positions(), _bins(config), config.room_model()
    source_coeff_matrix(cand, bins, room)  # builds the room's image table
    got, peak = traced_peak(source_coeff_matrix, cand, bins, room)
    assert all(c.flags.c_contiguous and c.flags.owndata for c in got)
    assert peak < 7e6


def test_direct_oracles_use_no_sfsplace_special_functions(monkeypatch):
    # the oracles are the only direct model the Graf build is checked
    # against, so neither may reach sfsplace's seeds or row stream
    def fail(*args, **kwargs):
        raise AssertionError("sfsplace.specfun was called")

    monkeypatch.setattr(specfun, "_rows", fail)
    monkeypatch.setattr(specfun, "_seeds", fail)
    srcs = square_loop(3.0, 200)[::40]
    with pytest.raises(AssertionError, match="specfun"):  # the guard is live
        source_coeff_matrix(srcs, [(CFG, F1K)], PAPER_ROOM)
    pts = region_grid(REGION, spacing=0.1)
    assert np.all(np.isfinite(direct_transfer(pts, srcs, F1K, PAPER_ROOM)))
    assert np.all(np.isfinite(graf_coeffs(srcs, CFG, F1K, PAPER_ROOM)))


def test_source_coeff_matrix_rejects_interior_source():
    with pytest.raises(ValueError):
        source_coeff_matrix(np.array([[0.6, 0.4]]), [(CFG, F1K)])[0]


def test_pressure_matching_triple():
    pts = np.array([[0.4, 0.2]])
    srcs = np.array([[2.0, 1.0]])
    c, w, b = build_pressure_matching(
        pts, srcs, lambda p: direct_transfer(p, [(2.0, 1.0)], F1K)[:, 0], F1K
    )
    d = math.hypot(2.0 - 0.4, 1.0 - 0.2)
    assert c[0, 0] == pytest.approx(0.25j * scipy.special.hankel1(0, F1K.wavenumber * d))
    assert np.all(w.entries == np.eye(1))
    assert b[0] == pytest.approx(c[0, 0])


def test_pressure_matching_exact_representability():
    # desired field emitted by one of the sources: near-zero residual, so
    # the SDR on the control grid saturates
    rng = np.random.default_rng(13)
    srcs = np.c_[2.0 * np.cos(rng.uniform(0, 2 * np.pi, 6)), 2.0 * np.sin(rng.uniform(0, 2 * np.pi, 6))]
    srcs += np.array(REGION.center)
    pts = region_grid(REGION, spacing=0.05)
    c, w, b = build_pressure_matching(
        pts, srcs, lambda p: direct_transfer(p, srcs[2:3], F1K)[:, 0], F1K
    )
    d = solve_wmm(c, w, b, 1e-12 * synthesis_lambda(c, w, scale=1.0))
    assert sdr(b, c @ d) > 100.0
