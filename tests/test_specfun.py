import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from sfsplace import specfun as sf


def _j0_series(x, terms=40):
    # independent ascending-series evaluation, float64 is fine below x ~ 5
    q = 0.25 * x * x
    t, acc = 1.0, 1.0
    for k in range(1, terms):
        t *= -q / (k * k)
        acc += t
    return acc


def _y0_series(x, terms=40):
    gamma = 0.5772156649015329
    q = 0.25 * x * x
    u, s, h = 1.0, 0.0, 0.0
    for k in range(1, terms):
        u *= -q / (k * k)
        h += 1.0 / k
        s -= h * u
    return (2.0 / math.pi) * ((math.log(0.5 * x) + gamma) * _j0_series(x, terms) + s)


def test_j0_first_zero():
    x0 = 2.404825557695773
    assert abs(sf.bessel_j(0, x0)) < 1e-9
    assert abs(sf.bessel_j(0, x0) - _j0_series(x0)) < 1e-13


def test_y0_at_one():
    val = sf.bessel_y(0, 1.0)
    assert val == pytest.approx(0.0882569642, abs=1e-8)
    assert val == pytest.approx(_y0_series(1.0), abs=1e-13)


def test_y0_log_divergence():
    assert sf.bessel_y(0, 1e-6) < -8.0


def test_hankel1_recurrence_seeded():
    # recur H_{m+1} = (2m/x) H_m - H_{m-1} from the library's own order 0/1
    x = 10.0
    h = [sf.hankel1(0, x), sf.hankel1(1, x)]
    for m in range(1, 5):
        h.append((2.0 * m / x) * h[m] - h[m - 1])
    assert sf.hankel1(5, x) == pytest.approx(h[5], rel=1e-10)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 13, 29, 41, 60])
def test_j_against_reference(m):
    rng = np.random.default_rng(42 + m)
    x = np.concatenate(
        [rng.uniform(1e-3, 1.0, 60), rng.uniform(1.0, 20.0, 120), rng.uniform(20.0, 200.0, 120)]
    )
    got = sf.bessel_j_orders(m, x)[m]
    ref = sp.jv(m, x)
    rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-280)
    assert rel.max() < 1e-10


@pytest.mark.parametrize("m", [0, 1, 2, 5, 13, 29, 41, 60])
def test_y_against_reference(m):
    rng = np.random.default_rng(77 + m)
    x = np.concatenate([rng.uniform(0.1, 5.0, 100), rng.uniform(5.0, 200.0, 200)])
    got = sf.bessel_y_orders(m, x)[m]
    ref = sp.yv(m, x)
    rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-280)
    assert rel.max() < 1e-8


def test_large_argument_beyond_target_range():
    # image-source sums reach k*d of a few thousand; keep ~1e-9 there
    rng = np.random.default_rng(3)
    x = rng.uniform(200.0, 3000.0, 300)
    h = sf.hankel1_orders(29, x)
    ref = sp.hankel1(np.arange(30)[:, None], x[None, :])
    rel = np.abs(h - ref) / np.abs(ref)
    assert rel.max() < 1e-9


def test_hankel_block_parts_are_bessel_blocks():
    # the block is assembled in place: real part J, imaginary part Y, bit for bit
    x = np.linspace(2.0, 400.0, 997)
    h = sf.hankel1_orders(29, x)
    assert h.shape == (30, x.size)
    assert np.array_equal(h.real, sf.bessel_j_orders(29, x))
    assert np.array_equal(h.imag, sf.bessel_y_orders(29, x))


def test_order_block_matches_scalars():
    x = np.array([0.3, 2.0, 14.0, 120.0])
    block = sf.bessel_j_orders(6, x)
    for i, xi in enumerate(x):
        for m in range(7):
            assert block[m, i] == pytest.approx(sf.bessel_j(m, float(xi)), rel=1e-12, abs=1e-300)


def test_block_shape_and_zero_argument():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = sf.bessel_j_orders(4, x)
    assert out.shape == (5, 2, 2)
    assert out[0, 0, 0] == 1.0
    assert all(out[m, 0, 0] == 0.0 for m in range(1, 5))


@given(st.integers(min_value=0, max_value=40), st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_reflection_is_exact(m, x):
    jp = sf.bessel_j(m, x)
    jm = sf.bessel_j(-m, x)
    assert jm == ((-1.0) ** m) * jp
    yp = sf.bessel_y(m, x)
    ym = sf.bessel_y(-m, x)
    assert ym == ((-1.0) ** m) * yp


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_three_term_recurrence(m, x):
    xs = np.asarray([x])
    j = sf.bessel_j_orders(m + 1, xs)[:, 0]
    y = sf.bessel_y_orders(m + 1, xs)[:, 0]
    for f in (j, y):
        lhs = f[m - 1] + f[m + 1]
        rhs = (2.0 * m / x) * f[m]
        den = abs(f[m - 1]) + abs(f[m + 1]) + abs(rhs) + 1e-300
        assert abs(lhs - rhs) / den < 1e-10


def test_wronskian_identity():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 100.0, 500)
    for m in (0, 3, 17, 40):
        j = sf.bessel_j_orders(m + 1, x)
        y = sf.bessel_y_orders(m + 1, x)
        w = j[m + 1] * y[m] - j[m] * y[m + 1]
        ref = 2.0 / (np.pi * x)
        assert np.max(np.abs(w - ref) / ref) < 1e-11


def test_domain_errors():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sf.bessel_j(0, bad)
    for bad in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError):
            sf.bessel_y(1, bad)
        with pytest.raises(ValueError):
            sf.hankel1(1, bad)
    with pytest.raises(ValueError):
        sf.bessel_y_orders(3, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sf.bessel_j_orders(-1, np.array([1.0]))
    with pytest.raises(ValueError):
        sf.bessel_j(0.5, 1.0)


def test_j_zero_argument_scalar():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(4, 0.0) == 0.0
    assert sf.bessel_j(-4, 0.0) == 0.0
