import math
import warnings

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
    j0 = sf.bessel_j_orders(0, [x0])[0, 0]
    assert abs(j0) < 1e-9
    assert abs(j0 - _j0_series(x0)) < 1e-13


def test_y0_at_one():
    val = _stacked_rows(0, np.array([1.0]))[0, 1, 0]
    assert val == pytest.approx(0.0882569642, abs=1e-8)
    assert val == pytest.approx(_y0_series(1.0), abs=1e-13)


def test_y0_log_divergence():
    assert _stacked_rows(0, np.array([1e-6]))[0, 1, 0] < -8.0


def test_hankel1_recurrence_seeded():
    # recur H_{m+1} = (2m/x) H_m - H_{m-1} from the library's own order 0/1
    x = 10.0
    h = list(_hankel(1, [x])[:, 0])
    for m in range(1, 5):
        h.append((2.0 * m / x) * h[m] - h[m - 1])
    assert _hankel(5, [x])[5, 0] == pytest.approx(h[5], rel=1e-10)


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
    got = _stacked_rows(m, x)[m, 1]
    ref = sp.yv(m, x)
    rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-280)
    assert rel.max() < 1e-8


def test_large_argument_beyond_target_range():
    # image-source sums reach k*d of a few thousand; keep ~1e-9 there
    rng = np.random.default_rng(3)
    x = rng.uniform(200.0, 3000.0, 300)
    h = _hankel(29, x)
    ref = sp.hankel1(np.arange(30)[:, None], x[None, :])
    rel = np.abs(h - ref) / np.abs(ref)
    assert rel.max() < 1e-9


def test_hankel_block_parts_are_bessel_blocks():
    # the stream's J rows are the J block bit for bit
    x = np.linspace(2.0, 400.0, 997)
    rows = _stacked_rows(29, x)
    assert rows.shape == (30, 2, x.size)
    assert np.array_equal(rows[:, 0], sf.bessel_j_orders(29, x))


@pytest.mark.parametrize("max_order", [0, 1, 40])
def test_order_blocks_mix_every_regime_without_warnings(max_order):
    # tiny, series, Miller and upward columns side by side in one call: the
    # stream's J rows stay the J block bit for bit, and the in-place upward
    # pass over non-seeded columns (x = 0 included) warns of nothing
    x = np.concatenate([[1e-9, 5e-7], np.logspace(-3.0, 3.5, 400)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = sf.bessel_j_orders(max_order, np.r_[0.0, x])
        rows = _stacked_rows(max_order, x)
    assert np.array_equal(rows[:, 0], j[:, 1:])
    assert j[0, 0] == 1.0 and np.all(j[1:, 0] == 0.0)
    # |J| <= 1; near its zeros the upward recurrence is good to ~1e-14 absolute
    np.testing.assert_allclose(j[:, 1:], sp.jv(np.arange(max_order + 1)[:, None], x),
                               rtol=1e-10, atol=1e-13)


def _stacked_rows(max_order, x):
    # the rows [J_m; Y_m] stacked to (orders, 2, n); the stream cycles through
    # at most three (2, n) generations that own their data, never a block
    rows, stacked = [], []
    for row in sf.hankel1_rows(max_order, x):
        rows.append(row)  # held, so no id is reused
        stacked.append(row.copy())
    assert len({id(r) for r in rows}) <= 3
    assert all(r.shape == (2, x.size) and r.base is None for r in rows)
    return np.array(stacked)


def _hankel(max_order, x):
    # H_m^(1) = J_m + i Y_m of orders 0..max_order from the stacked rows
    rows = _stacked_rows(max_order, np.asarray(x, dtype=np.float64))
    return rows[:, 0] + 1j * rows[:, 1]


@pytest.mark.parametrize("max_order", [0, 1, 2, 29, 47])
def test_hankel1_rows_stack_to_the_order_block(max_order):
    # tiny arguments, every seed regime edge, Miller columns and both sides
    # of max_order + 1, from which J recurs upward: the J rows stack to the
    # J block bit for bit
    edges = [e + d for e in SEED_EDGES for d in (-1e-9, 1e-9)]
    top = max_order + 1.0
    x = np.concatenate([[1e-9, 5e-7, 1e-6, 1e-3], edges, [top - 1e-9, top, top + 1e-9],
                        np.logspace(-2.0, 3.5, 500)])
    if max_order >= 2:
        assert not sf._j_seeded(max_order, np.array([top - 1e-9]))[0]
        assert sf._j_seeded(max_order, np.array([top, top + 1e-9])).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _stacked_rows(max_order, x)
    block = sf.bessel_j_orders(max_order, x)
    assert np.array_equal(got[:, 0], block)
    # the two sides of the edge agree with scipy as well
    near = np.abs(x - top) <= 1e-9
    ref = sp.jv(np.arange(max_order + 1)[:, None], x[near])
    err = np.linalg.norm(block[:, near] - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert err.max() <= 1e-12


def test_every_column_is_its_own_single_column_call():
    # one call over arguments in all four seed regimes, the tiny series,
    # Miller columns and upward ones, each to its own order limit: every
    # column to its limit equals its own single-column call at that limit,
    # bit for bit, and the stream's J half equals the J block's
    rng = np.random.default_rng(11)
    edges = [e + d for e in SEED_EDGES for d in (-1e-9, 1e-9)]
    x = np.concatenate([[0.0, 3e-7, 4.0, 9.0], edges, rng.uniform(1e-3, 6.0, 40),
                        rng.uniform(6.0, 17.0, 40), rng.uniform(17.0, 30.0, 20),
                        rng.uniform(30.0, 60.0, 20), rng.uniform(60.0, 400.0, 20)])
    orders = np.r_[0, 5, 1, 12, rng.integers(0, 45, x.size - 4)]
    seeded = sf._j_seeded(orders, x)
    assert seeded.any() and (~seeded & (x >= 1e-6)).any()  # upward and Miller columns
    block = sf._j_block(orders, x)
    assert block.shape == (orders.max() + 1, x.size)
    for i, (order, xi) in enumerate(zip(orders, x)):
        assert np.array_equal(block[: order + 1, i], sf.bessel_j_orders(int(order), xi))
    positive = x > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.array([row.copy() for row in sf.hankel1_rows(orders[positive], x[positive])])
    for i, (order, xi) in enumerate(zip(orders[positive], x[positive])):
        one = _stacked_rows(int(order), np.array([xi]))[:, :, 0]
        assert np.array_equal(rows[: order + 1, :, i], one)
        assert np.array_equal(rows[: order + 1, 0, i], block[: order + 1, positive][:, i])


def test_j_upward_band_matches_scipy():
    # orders 2..80 over max_order + 1 <= x <= 2 max_order + 20, where J now
    # recurs upward from the seeds (Miller's recurrence served it before):
    # column-relative error measured 6.4e-14 (7.6e-14 at 200 points per
    # order; 1.3e-13 from the longdouble series seeds at 6 <= x < 17 that
    # the Neumann seeds replaced), the seeds Y recurs up from too
    worst = 0.0
    for max_order in range(2, 81):
        x = np.linspace(max_order + 1.0, 2.0 * max_order + 20.0, 60)
        assert sf._j_seeded(max_order, x).all()
        got = sf.bessel_j_orders(max_order, x)
        ref = sp.jv(np.arange(max_order + 1)[:, None], x[None, :])
        err = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
        worst = max(worst, float(err.max()))
    assert worst <= 2e-13


@pytest.mark.parametrize("max_order, x", [(70, 1e-3), (47, 1e-6)])
def test_hankel1_rows_reproduce_the_y_overflow_tail(max_order, x):
    # Y past the float64 range reads -inf from its first non-finite order on
    xs = np.array([x, 1.0, 90.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _stacked_rows(max_order, xs)
    y = got[:, 1]
    first = int(np.argmax(np.isinf(y[:, 0])))
    assert 0 < first and np.all(y[first:, 0] == -np.inf) and np.all(np.isfinite(y[:, 1:]))
    assert np.array_equal(got[:, 0], sf.bessel_j_orders(max_order, xs))


def test_order_block_matches_scalars():
    # row m of the order-6 block against the order-m block's top row and scipy
    x = np.array([0.3, 2.0, 14.0, 120.0])
    block = sf.bessel_j_orders(6, x)
    for m in range(7):
        np.testing.assert_allclose(block[m], sf.bessel_j_orders(m, x)[m], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(block[m], sp.jv(m, x), rtol=1e-12, atol=1e-300)


def test_block_shape_and_zero_argument():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    out = sf.bessel_j_orders(4, x)
    assert out.shape == (5, 2, 2)
    assert out[0, 0, 0] == 1.0
    assert all(out[m, 0, 0] == 0.0 for m in range(1, 5))


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_three_term_recurrence(m, x):
    xs = np.asarray([x])
    j = sf.bessel_j_orders(m + 1, xs)[:, 0]
    y = _stacked_rows(m + 1, xs)[:, 1, 0]
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
        y = _stacked_rows(m + 1, x)[:, 1]
        w = j[m + 1] * y[m] - j[m] * y[m + 1]
        ref = 2.0 / (np.pi * x)
        # measured 5.1e-15 (1.9e-13 with the longdouble series seeds)
        assert np.max(np.abs(w - ref) / ref) < 5e-14


def test_domain_errors():
    for bad in (-1.0, math.nan, math.inf):
        for order in (0, 1, 3):
            with pytest.raises(ValueError):
                sf.bessel_j_orders(order, np.array([1.0, bad]))
    with pytest.raises(ValueError):
        sf.bessel_j_orders(-1, np.array([1.0]))


def test_j_zero_argument_scalar():
    # a 0-d argument gives one value per order
    out = sf.bessel_j_orders(4, 0.0)
    assert out.shape == (5,)
    assert out[0] == 1.0
    assert np.all(out[1:] == 0.0)


ORDER_BLOCKS = [sf.bessel_j_orders]


@pytest.mark.parametrize("fn", ORDER_BLOCKS, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "order", [2.5, 0.5, True, np.True_, -1, -1.0, np.int64(-2), math.nan, math.inf, "3", None]
)
def test_order_must_be_a_nonnegative_integer(fn, order):
    with pytest.raises(ValueError):
        fn(order, np.array([1.0, 40.0]))


@pytest.mark.parametrize("fn", ORDER_BLOCKS, ids=lambda f: f.__name__)
def test_integral_orders_of_any_type_agree(fn):
    x = np.array([0.5, 8.0, 25.0, 90.0])
    want = fn(3, x)
    for order in (np.int64(3), np.int32(3), 3.0, np.float64(3.0)):
        assert np.array_equal(fn(order, x), want)


# edges of the seed regimes: Miller's block under the Neumann seeds takes
# over from the two-term series at 1e-6, then Hankel's expansion with 10, 6
# and 4 terms from 17, 30 and 60
SEED_EDGES = (1e-6, 17.0, 30.0, 60.0)


@pytest.mark.parametrize("max_order", [0, 1, 29])
def test_hankel_matches_scipy_across_seed_regimes(max_order):
    # both sides of every regime edge plus a log sweep; measured 8.3e-14,
    # all of it from x = 17 up (below 17, 1.3e-14 at order 29 and 1.6e-15
    # at orders 0 and 1; 4.3e-13 with the longdouble series seeds)
    edges = [e + d for e in SEED_EDGES for d in (-1e-9, 1e-9)]
    x = np.concatenate([edges, np.logspace(-3.0, math.log10(3000.0), 2000)])
    h = _hankel(max_order, x)
    ref = sp.hankel1(np.arange(max_order + 1)[:, None], x[None, :])
    assert np.max(np.abs(h - ref) / np.abs(ref)) <= 2e-13


def test_seeds_below_17_match_scipy():
    # the Neumann/Miller seeds over (1e-9, 17), relative to
    # max(|ref|, sqrt(2 / (pi x))): measured 3.7e-15 (Y0 at 3 < x < 6). The
    # float64 ascending series reads 1.4e-14 at x < 6 and 4-9e-10 at
    # 6 <= x < 17, and the longdouble one 5.4e-13 there
    x = np.concatenate([np.logspace(-9.0, math.log10(17.0), 20000, endpoint=False),
                        [1e-6 - 1e-9, 1e-6, 17.0 - 1e-9]])
    j0, j1, y0, y1 = sf._seeds(x, want_y=True, want_one=True)
    scale = np.sqrt(2.0 / (np.pi * x))
    for got, ref in ((j0, sp.j0(x)), (j1, sp.j1(x)), (y0, sp.y0(x)), (y1, sp.y1(x))):
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), scale)) <= 1e-14
    # below 1e-3 that scale is far above |Y0| (800 against 9 at 1e-6), so
    # there every seed is also held to its plain relative error: measured
    # 7.1e-16 (Y0), no seed having a zero in (1e-9, 1e-3)
    small = x < 1e-3
    for got, ref in ((j0, sp.j0(x)), (j1, sp.j1(x)), (y0, sp.y0(x)), (y1, sp.y1(x))):
        assert np.max(np.abs(got[small] - ref[small]) / np.abs(ref[small])) <= 2e-15
    # J alone gives the same J seeds bit for bit
    only_j = sf._seeds(x, want_y=False, want_one=True)
    assert np.array_equal(only_j[0], j0) and np.array_equal(only_j[1], j1)


def test_hankel_computes_the_seeds_once(monkeypatch):
    # one seed pass feeds both the J and the Y rows
    calls = []
    seeds = sf._seeds

    def counted(x, *args, **kwargs):
        calls.append(x.size)
        return seeds(x, *args, **kwargs)

    monkeypatch.setattr(sf, "_seeds", counted)
    x = np.linspace(0.5, 400.0, 1001)  # every regime, Miller and upward J
    for _ in sf.hankel1_rows(29, x):
        pass
    assert calls == [x.size]
