import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from sfsplace.synthesis import region_grid, source_coeff_matrix
from sfsplace.wavefield import (
    CircularRegion,
    ExpansionCoeffs,
    ExpansionConfig,
    Frequency,
    PlaneWave,
    Point2,
    _basis_blocks,
    _basis_matrix,
    expansion_for,
    planewave_coeffs,
    truncation_order,
)

from oracles import direct_transfer

REGION = CircularRegion(Point2(0.5, 0.3), 0.5)
F1K = Frequency(1000.0)


def _disc_points(region, n, seed, radius_fraction=0.95):
    # sample strictly inside the region: the truncated basis carries an
    # ~1e-6-level tail on the outermost annulus, by design of the order rule
    rng = np.random.default_rng(seed)
    r = region.radius * radius_fraction * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.c_[region.center.x + r * np.cos(th), region.center.y + r * np.sin(th)]


def _pointsource_coeffs(source, cfg, freq):
    return ExpansionCoeffs(source_coeff_matrix([source], [(cfg, freq)])[0][:, 0], cfg)


def test_truncation_order_reference_case():
    assert truncation_order(F1K, REGION) == 20


def test_truncation_order_small_radius_floor():
    m = truncation_order(F1K, CircularRegion(Point2(0.0, 0.0), 1e-9))
    assert m == 11  # ceil of a small positive is 1
    assert m >= 10


@given(st.floats(min_value=10.0, max_value=4000.0), st.floats(min_value=0.01, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_truncation_order_grows_with_frequency(hz, radius):
    region = CircularRegion(Point2(0.0, 0.0), radius)
    m1 = truncation_order(Frequency(hz), region)
    m2 = truncation_order(Frequency(2.0 * hz), region)
    assert m2 >= m1
    # doubling the frequency at least doubles the order term up to the
    # ceiling slack: ceil(2a) >= 2 ceil(a) - 1
    assert (m2 - 10) >= 2 * (m1 - 10) - 1


def test_expansion_for_carries_region_geometry():
    cfg = expansion_for(REGION, F1K)
    assert cfg.center == REGION.center
    assert cfg.valid_radius == REGION.radius
    assert cfg.max_order == 20


def test_green2d_reciprocity_and_value():
    # the direct-transfer oracle in free field
    a, b = Point2(0.1, -0.4), Point2(1.3, 0.9)
    g1 = direct_transfer([a], [b], F1K)[0, 0]
    g2 = direct_transfer([b], [a], F1K)[0, 0]
    assert g1 == g2
    # (i/4) H_0 at k d
    d = math.hypot(a.x - b.x, a.y - b.y)
    assert g1 == pytest.approx(0.25j * sp.hankel1(0, F1K.wavenumber * d), rel=1e-12)


def test_green2d_many_matches_scalar():
    # each receiver against scipy's H_0 at its own distance
    pts = _disc_points(REGION, 7, 1)
    src = (-1.5, -1.5)
    vals = direct_transfer(pts, [src], F1K)[:, 0]
    d = np.hypot(pts[:, 0] - src[0], pts[:, 1] - src[1])
    for i in range(len(pts)):
        assert vals[i] == pytest.approx(0.25j * sp.hankel1(0, F1K.wavenumber * d[i]), rel=1e-12)


@given(st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=40, deadline=None)
def test_planewave_coeff_magnitudes(direction):
    cfg = expansion_for(REGION, F1K)
    pw = PlaneWave(direction, amplitude=0.7 - 0.3j)
    coeffs = planewave_coeffs(pw, cfg, F1K)
    np.testing.assert_allclose(np.abs(coeffs.values), abs(pw.amplitude), rtol=1e-12)


def test_planewave_zero_order_at_origin_center():
    cfg = ExpansionConfig(5, Point2(0.0, 0.0))
    pw = PlaneWave(0.3, amplitude=2.0 + 0.0j)
    coeffs = planewave_coeffs(pw, cfg, F1K)
    assert coeffs.values[5] == pytest.approx(2.0 + 0.0j, rel=1e-14)


def test_planewave_expansion_matches_exponential():
    # oracle: direct evaluation of A exp(i k . r)
    rng = np.random.default_rng(0)
    for trial in range(4):
        hz = rng.uniform(200.0, 1800.0)
        freq = Frequency(hz)
        region = CircularRegion(Point2(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.1, 0.6))
        cfg = expansion_for(region, freq)
        pw = PlaneWave(rng.uniform(-np.pi, np.pi), amplitude=1.3 - 0.4j)
        pts = _disc_points(region, 50, 100 + trial, radius_fraction=0.7)
        got = _basis_matrix(cfg, pts, freq).T @ planewave_coeffs(pw, cfg, freq).values
        k = freq.wavenumber
        ref = pw.amplitude * np.exp(
            1j * k * (math.cos(pw.direction) * pts[:, 0] + math.sin(pw.direction) * pts[:, 1])
        )
        assert np.max(np.abs(got - ref)) < 1e-8 * abs(pw.amplitude)


def test_pointsource_expansion_matches_green2d():
    # corner of the candidate square, 2.74 m from the region center
    src = (-1.5, -1.5)
    cfg = expansion_for(REGION, F1K)
    coeffs = _pointsource_coeffs(src, cfg, F1K)
    pts = _disc_points(REGION, 50, 0)
    got = _basis_matrix(cfg, pts, F1K).T @ coeffs.values
    ref = direct_transfer(pts, [src], F1K)[:, 0]
    rel = np.abs(got - ref) / np.abs(ref)
    assert rel.max() < 1e-6


def test_pointsource_convergence_randomized():
    # sources >= 2.5 radii out, samples <= 0.95 R: the order rule keeps the
    # Graf tail under ~3e-6 across 0.1-1 kHz (tighter is not attainable at
    # the rim with the constant +10 margin)
    rng = np.random.default_rng(12)
    for trial in range(8):
        freq = Frequency(rng.uniform(100.0, 1000.0))
        region = CircularRegion(Point2(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.2, 0.8))
        cfg = expansion_for(region, freq)
        ratio = rng.uniform(2.5, 6.0)
        ang = rng.uniform(0, 2 * np.pi)
        src = (
            region.center.x + ratio * region.radius * math.cos(ang),
            region.center.y + ratio * region.radius * math.sin(ang),
        )
        pts = _disc_points(region, 50, 200 + trial)
        got = _basis_matrix(cfg, pts, freq).T @ _pointsource_coeffs(src, cfg, freq).values
        ref = direct_transfer(pts, [src], freq)[:, 0]
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-5


def test_pointsource_mirror_symmetry():
    # mirroring the source across the horizontal axis through the center
    # maps coefficient m to (-1)^m times coefficient -m
    cfg = ExpansionConfig(8, Point2(0.4, -0.2), valid_radius=0.3)
    freq = Frequency(700.0)
    dx, dy = 0.9, 0.6
    c = _pointsource_coeffs((cfg.center.x + dx, cfg.center.y + dy), cfg, freq).values
    cm = _pointsource_coeffs((cfg.center.x + dx, cfg.center.y - dy), cfg, freq).values
    m = cfg.orders
    expected = ((-1.0) ** np.abs(m)) * c[::-1]
    np.testing.assert_allclose(cm, expected, rtol=1e-12)


def test_pointsource_inside_validity_disc_raises():
    cfg = expansion_for(REGION, F1K)
    with pytest.raises(ValueError):
        _pointsource_coeffs((0.6, 0.3), cfg, F1K)
    # boundary counts as inside
    with pytest.raises(ValueError):
        _pointsource_coeffs((1.0, 0.3), cfg, F1K)


def test_evaluate_expansion_center_picks_zero_order():
    cfg = ExpansionConfig(4, Point2(0.2, 0.2))
    vals = np.zeros(9, dtype=complex)
    vals[4] = 2.5 - 1.0j  # order 0
    vals[6] = 9.9  # order 2, killed by J_2(0) = 0
    coeffs = ExpansionCoeffs(vals, cfg)
    center = _basis_matrix(cfg, np.array([[0.2, 0.2]]), F1K).T @ coeffs.values
    assert center[0] == pytest.approx(2.5 - 1.0j)


def test_basis_matrix_matches_scipy_at_high_order():
    # every row m in -M..M against J_m(k r) e^{i m phi}, including the
    # center (r = 0) and the branch cut of the angle (phi = pi)
    cfg = ExpansionConfig(47, REGION.center, valid_radius=REGION.radius)
    freq = Frequency(4000.0)
    pts = np.vstack([
        _disc_points(REGION, 500, seed=47, radius_fraction=1.0),
        [REGION.center, (REGION.center.x - 0.5, REGION.center.y)],
    ])
    basis = _basis_matrix(cfg, pts, freq)
    dx, dy = pts[:, 0] - REGION.center.x, pts[:, 1] - REGION.center.y
    kr, phi = freq.wavenumber * np.hypot(dx, dy), np.arctan2(dy, dx)
    m = cfg.orders[:, None]
    want = sp.jv(m, kr) * np.exp(1j * m * phi)
    assert basis.shape == want.shape
    assert np.max(np.abs(basis - want)) <= 1e-12


@pytest.mark.parametrize("block", [1, 7, 81, 500])
def test_basis_blocks_equal_the_whole_basis_and_one_point_builds(block):
    # one J call over the grid's distinct radii (81 points, 28 radii, the
    # center r = 0 among them; 7 does not divide 81), Miller's recurrence
    # and upward J both serving (k r up to 27.5 at order 20): every block
    # equals the whole basis and one-point builds bit for bit
    cfg = ExpansionConfig(20, REGION.center, valid_radius=REGION.radius)
    freq = Frequency(3000.0)
    grid = region_grid(REGION, spacing=0.1)
    assert len(grid) == 81 and list(REGION.center) in grid.tolist()
    blocks = list(_basis_blocks(cfg, grid, freq, block))
    sizes = [min(block, len(grid) - s) for s in range(0, len(grid), block)]
    assert [b.shape for b in blocks] == [(cfg.size, n) for n in sizes]
    whole = _basis_matrix(cfg, grid, freq)
    assert np.array_equal(np.hstack(blocks), whole)
    assert np.array_equal(whole, np.hstack([_basis_matrix(cfg, p[None], freq) for p in grid]))
    one = grid[:1]
    (alone,) = _basis_blocks(cfg, one, freq, block)
    assert np.array_equal(alone, _basis_matrix(cfg, one, freq))
    assert np.array_equal(alone, whole[:, :1])


@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=30, deadline=None)
def test_evaluate_expansion_is_linear(scale):
    cfg = ExpansionConfig(6, Point2(0.0, 0.0), valid_radius=0.4)
    rng = np.random.default_rng(9)
    vals = rng.normal(size=13) + 1j * rng.normal(size=13)
    pts = np.array([[0.1, 0.2], [-0.3, 0.05]])
    basis = _basis_matrix(cfg, pts, F1K).T
    base = basis @ ExpansionCoeffs(vals, cfg).values
    scaled = basis @ ExpansionCoeffs(scale * vals, cfg).values
    np.testing.assert_allclose(scaled, scale * base, rtol=1e-9, atol=1e-12)


def test_coeff_validation():
    cfg = ExpansionConfig(3, Point2(0.0, 0.0))
    with pytest.raises(ValueError):
        ExpansionCoeffs(np.zeros(6, dtype=complex), cfg)  # needs 7
    with pytest.raises(ValueError):
        ExpansionCoeffs(np.array([np.nan + 0j] * 7), cfg)
    with pytest.raises(ValueError):
        ExpansionConfig(-1, Point2(0.0, 0.0))
    with pytest.raises(ValueError):
        Frequency(0.0)
    with pytest.raises(ValueError):
        Frequency(100.0, sound_speed=-1.0)
    with pytest.raises(ValueError):
        CircularRegion(Point2(0.0, 0.0), 0.0)
