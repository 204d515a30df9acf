import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from sfsplace import specfun
from sfsplace.room import RoomModel, _images, room_transfer_many
from sfsplace.synthesis import (
    ConditioningError,
    WeightMatrix,
    build_pressure_matching,
    identity_weight,
    region_grid,
    sdr,
    solve_mode_matching,
    solve_wmm,
    source_coeff_matrix,
    synthesis_lambda,
    synthesize_field,
    weight_matrix_circle,
    weight_matrix_quadrature,
    wmm_residual,
)
from sfsplace.wavefield import (
    CircularRegion,
    Frequency,
    PlaneWave,
    Point2,
    evaluate_expansion_many,
    expansion_for,
    green2d,
    green2d_many,
    planewave_coeffs,
)

REGION = CircularRegion(Point2(0.5, 0.3), 0.5)
PAPER_ROOM = RoomModel(5.0, 4.0, (0.8, 0.8, 0.8, 0.8), max_reflection_order=10)
F1K = Frequency(1000.0)
CFG = expansion_for(REGION, F1K)
W1K = weight_matrix_circle(REGION, CFG, F1K)


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
    w = weight_matrix_circle(region, expansion_for(region, Frequency(1e-3)), Frequency(1e-3))
    mid = w.size // 2
    assert w.entries[mid, mid].real == pytest.approx(math.pi * 0.2 ** 2, rel=1e-6)


def test_weight_circle_requires_concentric_expansion():
    from sfsplace.wavefield import ExpansionConfig

    cfg = ExpansionConfig(max_order=20, center=Point2(0.0, 0.0), valid_radius=0.5)
    with pytest.raises(ValueError):
        weight_matrix_circle(REGION, cfg, F1K)


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
    d = solve_mode_matching(c, b, lam)
    np.testing.assert_allclose(d, solve_wmm(c, identity_weight(5), b, lam), rtol=1e-13)
    # normal-equation oracle
    ref = np.linalg.solve(
        c.conj().T @ c + lam * np.eye(3), c.conj().T @ b
    )
    assert np.linalg.norm(d - ref) / np.linalg.norm(ref) < 1e-8
    assert np.all(solve_mode_matching(c, np.zeros(5, dtype=complex), lam) == 0.0)


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
    f1 = synthesize_field(srcs, d1, pts, F1K)
    f2 = synthesize_field(srcs, d2, pts, F1K)
    both = synthesize_field(srcs, d1 + d2, pts, F1K)
    np.testing.assert_allclose(both, f1 + f2, rtol=1e-12)
    assert np.all(synthesize_field(srcs, np.zeros(3, dtype=complex), pts, F1K) == 0.0)
    one = synthesize_field(srcs[:1], np.array([1.0 + 0j]), pts, F1K)
    np.testing.assert_allclose(one, green2d_many(pts, srcs[0], F1K), rtol=1e-13)


def test_synthesize_field_in_room_matches_transfer():
    room = RoomModel.uniform(5.0, 4.0, 0.8, max_reflection_order=3)
    srcs = np.array([[-1.5, -1.5], [1.2, 0.9]])
    d = np.array([0.3 - 0.1j, -0.7 + 0.4j])
    pts = np.array([[0.5, 0.3], [0.0, 0.0], [0.9, -0.2]])
    want = d[0] * room_transfer_many(room, pts, srcs[0], F1K)
    want += d[1] * room_transfer_many(room, pts, srcs[1], F1K)
    np.testing.assert_allclose(synthesize_field(srcs, d, pts, F1K, room=room), want, rtol=1e-13)


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


# ---------------------------------------------------------------------------
# cross-domain consistency


def test_quadratic_form_tracks_grid_error():
    # the W-weighted coefficient residual is the regional squared error:
    # check against a dense Cartesian sum over the disc
    freq = Frequency(700.0)
    cfg = expansion_for(REGION, freq)
    w = weight_matrix_circle(REGION, cfg, freq)
    phis = 2.0 * math.pi * np.arange(12) / 12.0
    srcs = np.c_[
        REGION.center.x + 2.0 * np.cos(phis), REGION.center.y + 2.0 * np.sin(phis)
    ]
    c = source_coeff_matrix(srcs, cfg, freq)
    pw = PlaneWave(direction=math.radians(20.0), amplitude=1.0)
    b = planewave_coeffs(pw, cfg, freq)
    lam = synthesis_lambda(c, w)
    d = solve_wmm(c, w, b, lam)
    quad = wmm_residual(c, w, b, d, lam)
    spacing = 0.002
    pts = region_grid(REGION, spacing=spacing)
    kvec = freq.wavenumber * np.array([math.cos(pw.direction), math.sin(pw.direction)])
    u_des = np.exp(1j * (pts @ kvec))
    u_syn = synthesize_field(srcs, d, pts, freq)
    grid = float(np.sum(np.abs(u_des - u_syn) ** 2)) * spacing ** 2
    grid += lam * float(np.vdot(d, d).real)
    assert abs(grid - quad) / quad < 0.02


def _direct_graf_coeffs(positions, cfg, freq, room=None):
    # oracle: exp(-i m phi) evaluated for every order and image, summed directly
    pos, gains = _images(positions, room)
    dx = pos[..., 0] - cfg.center[0]
    dy = pos[..., 1] - cfg.center[1]
    dist = np.hypot(dx, dy)
    m = cfg.orders
    h_pos = specfun.hankel1_orders(cfg.max_order, freq.wavenumber * dist)
    h = np.where((m % 2 == 1) & (m < 0), -1.0, 1.0)[:, None, None] * h_pos[np.abs(m)]
    phase = np.exp(-1j * m[:, None, None] * np.arctan2(dy, dx))
    return 0.25j * np.sum(h * phase * gains, axis=2)


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
    got = source_coeff_matrix(srcs, cfg, freq, room)
    want = _direct_graf_coeffs(srcs, cfg, freq, room)
    err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert err.max() < 1e-12


def test_source_coeff_matrix_rejects_interior_source():
    with pytest.raises(ValueError):
        source_coeff_matrix(np.array([[0.6, 0.4]]), CFG, F1K)


def test_pressure_matching_triple():
    pts = np.array([[0.4, 0.2]])
    srcs = np.array([[2.0, 1.0]])
    c, w, b = build_pressure_matching(
        pts, srcs, lambda p: green2d_many(p, (2.0, 1.0), F1K), F1K
    )
    assert c[0, 0] == pytest.approx(green2d((0.4, 0.2), (2.0, 1.0), F1K))
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
        pts, srcs, lambda p: green2d_many(p, srcs[2], F1K), F1K
    )
    d = solve_wmm(c, w, b, 1e-12 * synthesis_lambda(c, w, scale=1.0))
    assert sdr(b, c @ d) > 100.0
