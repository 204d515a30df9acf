import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from sfsplace.config import square_loop
from sfsplace import specfun
from sfsplace.experiment import _bins, build_problems, paper_config, to_broadband_spec
from sfsplace.placement import (
    BUILD_BLOCK_BYTES,
    BroadbandSpec,
    DirectionRangePrior,
    FieldPrior,
    FrequencyProblem,
    SelectionState,
    _direct_deltas,
    _forms,
    _free_gains,
    _interval_phase_mean,
    _weighted_deltas,
    add_candidate,
    broadband_cost,
    candidate_deltas,
    greedy_place_broadband,
    placement_cost,
    prior_from_direction_range,
    regular_placement_a,
    regular_placement_b,
    state_cost,
)
from sfsplace.synthesis import (
    _ONE_THREAD_MACS,
    WeightMatrix,
    identity_weight,
    region_grid,
    solve_wmm,
    source_coeff_matrix,
    weight_matrix_circle,
)
from sfsplace.wavefield import (
    CircularRegion,
    ExpansionConfig,
    Frequency,
    Point2,
    _ipow,
    expansion_for,
    planewave_coeffs,
)

from oracles import (
    build_pressure_matching,
    direct_transfer,
    exhaustive_place,
    one_bin,
    traced_peak,
    wmm_residual,
)

F1K = Frequency(1000.0)
RANGE45 = DirectionRangePrior(math.radians(-45.0), math.radians(45.0))


def _random_problem(seed, n=6, dim=17):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    base = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = WeightMatrix(base.conj().T @ base / dim)
    mu = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    prior = FieldPrior(mu, v @ v.conj().T / dim)
    return c, w, prior


def _planewave_batch(cfg, freq, phis, amplitude=1.0):
    # direct Jacobi-Anger formula, vectorized over angles
    m = cfg.orders
    vals = amplitude * (1j ** np.mod(m, 4))[:, None] * np.exp(-1j * np.outer(m, phis))
    cx, cy = cfg.center
    if cx or cy:
        vals = vals * np.exp(
            1j * freq.wavenumber * (cx * np.cos(phis) + cy * np.sin(phis))
        )[None, :]
    return vals


# ---------------------------------------------------------------------------
# priors


def test_prior_full_circle_moments():
    cfg = ExpansionConfig(max_order=8, center=Point2(0.0, 0.0))
    (prior,) = prior_from_direction_range(
        DirectionRangePrior(0.0, 2.0 * math.pi), [(cfg, F1K)]
    )
    want_mu = np.zeros(17, dtype=complex)
    want_mu[8] = 1.0
    np.testing.assert_allclose(prior.mean, want_mu, atol=1e-12)
    np.testing.assert_allclose(prior.second_moment, np.eye(17), atol=1e-12)


@pytest.mark.parametrize("center", [Point2(0.0, 0.0), Point2(0.5, 0.3)])
def test_prior_moments_match_monte_carlo(center):
    cfg = ExpansionConfig(max_order=8, center=center)
    (prior,) = prior_from_direction_range(RANGE45, [(cfg, F1K)])
    rng = np.random.default_rng(21)
    mu_acc = np.zeros(17, dtype=complex)
    r_acc = np.zeros((17, 17), dtype=complex)
    n_total = 10 ** 6
    for _ in range(10):
        phis = rng.uniform(RANGE45.angle_min, RANGE45.angle_max, n_total // 10)
        b = _planewave_batch(cfg, F1K, phis)
        mu_acc += b.sum(axis=1)
        r_acc += b @ b.conj().T
    # per-entry MC noise is ~1e-3 at 1e6 draws; allow 4 sigma
    mu_mc = mu_acc / n_total
    r_mc = r_acc / n_total
    assert np.max(np.abs(prior.mean - mu_mc)) < 4e-3
    assert np.max(np.abs(prior.second_moment - r_mc)) < 4e-3
    assert np.max(np.abs(prior.covariance - (r_mc - np.outer(mu_mc, mu_mc.conj())))) < 5e-3


@pytest.mark.parametrize("m", [-5, 0, 7])
def test_prior_offset_mean_matches_adaptive_quadrature(m):
    cfg = ExpansionConfig(max_order=8, center=Point2(0.5, 0.3))
    (prior,) = prior_from_direction_range(RANGE45, [(cfg, F1K)])
    k = F1K.wavenumber

    def integrand(phi, part):
        val = (
            (1j ** (m % 4))
            * np.exp(-1j * m * phi)
            * np.exp(1j * k * (0.5 * np.cos(phi) + 0.3 * np.sin(phi)))
        )
        return val.real if part == 0 else val.imag

    width = RANGE45.width
    re, _ = scipy.integrate.quad(integrand, RANGE45.angle_min, RANGE45.angle_max, args=(0,), limit=400)
    im, _ = scipy.integrate.quad(integrand, RANGE45.angle_min, RANGE45.angle_max, args=(1,), limit=400)
    want = (re + 1j * im) / width
    assert prior.mean[8 + m] == pytest.approx(want, rel=1e-10)


def test_bin_list_priors_match_the_elementwise_phase_means():
    # the bin-list priors index one table of phase means and powers of i;
    # every mean and second moment equals the formula evaluated elementwise
    # on each bin's own order grids, bit for bit (the 20 paper bins about
    # an off-origin center, and one centered bin)
    config = paper_config(broadband=True)
    directions = config.prior.to_range()
    bins = _bins(config) + [(ExpansionConfig(max_order=8, center=Point2(0.0, 0.0)), F1K)]
    lo, hi, amp = directions.angle_min, directions.angle_max, complex(directions.amplitude)
    k_rho = np.array([f.wavenumber * math.hypot(*c.center) for c, f in bins])
    tops = [int(math.ceil(x)) + 20 for x in k_rho]
    j_all = specfun.bessel_j_orders(max(tops[:-1]), k_rho)
    for b, ((cfg, _), prior) in enumerate(zip(bins, prior_from_direction_range(directions, bins))):
        m = cfg.orders
        if b == len(bins) - 1:
            mu = amp * _ipow(m) * _interval_phase_mean(m, lo, hi)
        else:
            q = np.arange(-tops[b], tops[b] + 1)
            j_q = np.where(q < 0, (-1.0) ** np.abs(q), 1.0) * j_all[np.abs(q), b]
            weights = _ipow(q) * j_q * np.exp(-1j * q * math.atan2(cfg.center[1], cfg.center[0]))
            mu = amp * _ipow(m) * (_interval_phase_mean(m[:, None] - q[None, :], lo, hi) @ weights)
        d = m[:, None] - m[None, :]
        r = (abs(amp) ** 2) * _ipow(d) * _interval_phase_mean(d, lo, hi)
        assert np.array_equal(prior.mean, mu)
        assert np.array_equal(prior.second_moment, 0.5 * (r + r.conj().T))


def test_prior_degenerate_width_is_point_mass():
    cfg = ExpansionConfig(max_order=6, center=Point2(0.0, 0.0))
    phi0 = 0.35
    (prior,) = prior_from_direction_range(
        DirectionRangePrior(phi0, phi0 + 1e-9, amplitude=2.0 - 1.0j), [(cfg, F1K)]
    )
    b0 = planewave_coeffs(cfg, F1K, [phi0], 2.0 - 1.0j)[:, 0]
    np.testing.assert_allclose(prior.mean, b0, atol=1e-6)
    assert np.max(np.abs(prior.covariance)) < 1e-6


def test_prior_second_moment_diagonal_is_squared_amplitude():
    cfg = ExpansionConfig(max_order=5, center=Point2(0.2, -0.4))
    (prior,) = prior_from_direction_range(
        DirectionRangePrior(-0.3, 1.1, amplitude=2.0 - 1.0j), [(cfg, F1K)]
    )
    np.testing.assert_allclose(np.diag(prior.second_moment).real, 5.0, rtol=1e-12)
    # averaging unit-modulus phases can only shrink the mean
    assert np.all(np.abs(prior.mean) <= abs(2.0 - 1.0j) + 1e-12)


def test_field_prior_validation():
    with pytest.raises(ValueError):
        FieldPrior(np.zeros(3), np.array([[1.0, 2.0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        FieldPrior(np.zeros(2), -np.eye(2))
    with pytest.raises(ValueError):
        FieldPrior(np.ones(2), np.eye(2), second_moment=np.eye(2))
    fixed = FieldPrior.fixed_field(np.array([1.0 + 1j, 0.0]))
    assert np.all(fixed.covariance == 0.0)
    np.testing.assert_allclose(
        fixed.second_moment, np.outer(fixed.mean, fixed.mean.conj()), atol=1e-15
    )


def test_direction_range_prior_validation():
    with pytest.raises(ValueError):
        DirectionRangePrior(1.0, 1.0)
    with pytest.raises(ValueError):
        DirectionRangePrior(0.0, np.inf)


# ---------------------------------------------------------------------------
# placement cost


def test_placement_cost_empty_is_trace_of_weighted_second_moment():
    c, w, prior = _random_problem(31)
    want = float(np.trace(w.entries @ prior.second_moment).real)
    assert placement_cost((), prior, c, w, 1e-4) == pytest.approx(want, rel=1e-12)


def test_placement_cost_fixed_field_equals_solver_residual():
    c, w, _ = _random_problem(32)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    prior = FieldPrior.fixed_field(b)
    lam = 1e-3
    sel = [0, 2, 5]
    d = solve_wmm(c[:, sel], w, b, lam)
    want = wmm_residual(c[:, sel], w, b, d, lam)
    assert placement_cost(sel, prior, c, w, lam) == pytest.approx(want, rel=1e-10)


def test_placement_cost_matches_monte_carlo_mean():
    # J is the expectation of the per-field optimal residual; check with
    # 1e5 two-moment-matched Gaussian draws and a direct per-draw solve
    c, w, prior = _random_problem(33)
    lam = 1e-2
    sel = [0, 1, 4]
    cost = placement_cost(sel, prior, c, w, lam)
    evals, vecs = np.linalg.eigh(prior.covariance)
    half = vecs * np.sqrt(np.clip(evals, 0.0, None))
    rng = np.random.default_rng(77)
    n = 10 ** 5
    z = (rng.standard_normal((17, n)) + 1j * rng.standard_normal((17, n))) / math.sqrt(2.0)
    b = prior.mean[:, None] + half @ z
    cs = c[:, sel]
    wcs = w.entries @ cs
    gram = cs.conj().T @ wcs + lam * np.eye(3)
    d = np.linalg.solve(gram, wcs.conj().T @ b)
    resid = cs @ d - b
    f = np.einsum("ik,ik->k", resid.conj(), w.entries @ resid).real
    f += lam * np.einsum("ik,ik->k", d.conj(), d).real
    assert cost == pytest.approx(float(np.mean(f)), rel=0.01)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_placement_cost_nonnegative(seed):
    c, w, prior = _random_problem(seed, n=5, dim=9)
    rng = np.random.default_rng(seed + 1)
    sel = rng.permutation(5)[: rng.integers(0, 6)]
    j = placement_cost(sel, prior, c, w, 10.0 ** rng.uniform(-8, 0))
    assert j >= -1e-10 * placement_cost((), prior, c, w, 1e-4)


# ---------------------------------------------------------------------------
# incremental state


def _direct_q(c, w, sel, lam):
    """Q_S = W - W C_S (C_S^H W C_S + lam I)^{-1} C_S^H W by one direct solve."""
    wcs = w @ c[:, list(sel)]
    g = wcs.conj().T @ c[:, list(sel)] + lam * np.eye(len(sel))
    return w - wcs @ np.linalg.solve(g, wcs.conj().T)


def test_add_candidate_first_pick_and_identity():
    c, w, prior = _random_problem(41, n=10)
    lam = 1e-3
    state = SelectionState.from_problem(one_bin(c, w, prior), lam)
    state = add_candidate(state, 7)
    wc = w.entries @ c[:, 7]
    want = w.entries - np.outer(wc, wc.conj()) / (lam + np.vdot(c[:, 7], wc).real)
    scale = np.max(np.abs(w.entries))
    assert np.max(np.abs(state.q[0] - want)) <= 1e-13 * scale
    rng = np.random.default_rng(42)
    for idx in rng.permutation(10)[:6]:
        if idx != 7:
            state = add_candidate(state, int(idx))
    direct = _direct_q(c, w.entries, state.selected, lam)
    assert np.max(np.abs(state.q[0] - direct)) < 1e-8 * scale


def test_candidate_deltas_match_direct_cost():
    c, w, prior = _random_problem(43, n=9)
    lam = 1e-3
    state = SelectionState.from_problem(one_bin(c, w, prior), lam)
    for idx in (2, 6):
        state = add_candidate(state, idx)
    base = state_cost(state)
    deltas = candidate_deltas(state)
    for nu in range(9):
        if nu in state.selected:
            assert deltas[nu] == np.inf
            continue
        direct = placement_cost([2, 6, nu], prior, c, w, lam)
        assert base + deltas[nu] == pytest.approx(direct, rel=1e-10)


def test_greedy_completes_on_duplicate_column():
    # a bit-identical twin of a selected column leaves Q_S c ~ lam-sized,
    # yet the update denominator stays >= lam and the run completes
    rng = np.random.default_rng(44)
    c = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    c[:, 3] = c[:, 0]
    w = identity_weight(9)
    prior = FieldPrior.fixed_field(rng.standard_normal(9) + 0j)
    lam = 1e-13 * float(np.linalg.norm(c[:, 0]) ** 2)
    result = greedy_place_broadband(one_bin(c, w, prior), lam, n_select=4)
    assert sorted(result.indices) == [0, 1, 2, 3]
    assert np.all(np.isfinite(result.cost_trace))
    assert np.all(np.diff(result.cost_trace) <= 0.0)
    state = SelectionState.from_problem(one_bin(c, w, prior), lam)
    for idx in result.indices:
        state = add_candidate(state, idx)
        assert all(np.all(np.isfinite(a)) for a in (state.q[0], state.num, state.den))
    assert state.min_denominator[0] >= lam


def test_add_candidate_matches_the_subtraction_form_bit_for_bit():
    # q gains the negated outer product of the freshly formed z_c = Q c in
    # place; negation is exact, so it equals q - z_c z_c^H / delta
    # elementwise. At n = 3000 the 19-row forms are built in 4 column
    # blocks, the last partial.
    for n in (12, 3000):
        c, w, prior = _random_problem(46, n=n, dim=19)
        state = SelectionState.from_problem(one_bin(c, w, prior), 1e-3)
        for index in (5, 0, 11, 3):
            q = state.q[0].copy()
            zc = q @ state.coeff[0][:, index]
            den = state.lam + max(float(np.vdot(state.coeff[0][:, index], zc).real), 0.0)
            assert add_candidate(state, index) is state
            assert np.array_equal(state.q[0], q - np.outer(zc, zc.conj()) / den)
        # a rejected index leaves the state as it was
        before = [a.copy() for a in (state.q[0], state.num, state.den)]
        for bad in (n, -1, 11):
            with pytest.raises(ValueError):
                add_candidate(state, bad)
            assert state.selected == (5, 0, 11, 3)
            for old, a in zip(before, (state.q[0], state.num, state.den)):
                assert np.array_equal(old, a)


def _layouts(c):
    """The same matrix Fortran-ordered and as a non-contiguous view."""
    padded = np.zeros((c.shape[0], 2 * c.shape[1]), dtype=np.complex128)
    padded[:, ::2] = c
    return np.asfortranarray(c), padded[:, ::2]


def _more_sources_than_modes_problem(seed, k=8, n=40):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    c /= np.linalg.norm(c, axis=0)
    w = WeightMatrix(np.diag(rng.uniform(0.5, 2.0, k)))
    mu = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return c, w, FieldPrior(mu, v @ v.conj().T / k)


@pytest.mark.parametrize(
    "problem, lam, n_select",
    [(_random_problem(47, n=20), 1e-3, 10), (_more_sources_than_modes_problem(0), 1e-5, 30)],
    ids=["random", "more-sources-than-modes"],
)
def test_candidate_deltas_match_the_complex_form(problem, lam, n_select):
    # a state freshly built from q (float64-view reductions over column
    # blocks) against the complex quadratic forms of the same q, along a
    # greedy run (past L = K on the second problem)
    c, w, prior = problem
    r = prior.second_moment
    for coeff in _layouts(c):
        state = SelectionState.from_problem(one_bin(coeff, w, prior), lam)
        for _ in range(n_select):
            fresh = SelectionState(coeff=[coeff], second_moment=[r], lam=lam, q=state.q,
                                   selected=state.selected)
            deltas = candidate_deltas(fresh)
            z = state.q[0] @ c
            num = np.einsum("kn,kn->n", z.conj(), r @ z).real
            den = np.einsum("kn,kn->n", c.conj(), z).real
            want = -np.maximum(num, 0.0) / (lam + np.maximum(den, 0.0))
            free = np.setdiff1d(np.arange(c.shape[1]), state.selected)
            assert np.all(deltas[list(state.selected)] == np.inf)
            np.testing.assert_allclose(deltas[free], want[free], rtol=1e-13, atol=0.0)
            add_candidate(state, int(np.argmin(candidate_deltas(state))))


def _form_drift(state):
    """Gaps between the incremental and the direct forms of the state's q.

    Rows 0 and 1 hold each bin's num and den gaps, as fractions of the
    bin's largest direct value; row 2 the gap of the weighted change, as a
    fraction of the best direct change; all over the candidates still free.
    """
    free = np.setdiff1d(np.arange(state.n_candidates), state.selected)
    direct = [_forms(q, r, c) for c, r, q in zip(state.coeff, state.second_moment, state.q)]
    gaps = []
    for mine, rows in ((state.num, [d[0] for d in direct]), (state.den, [d[1] for d in direct])):
        rows = np.array(rows)[:, free]
        gaps.append(np.max(np.abs(mine[:, free] - rows), axis=1) / np.max(np.abs(rows), axis=1))
    fresh = SelectionState(coeff=state.coeff, second_moment=state.second_moment, lam=state.lam,
                           q=state.q, gamma=state.gamma, selected=state.selected)
    mine, direct = candidate_deltas(state)[free], candidate_deltas(fresh)[free]
    gaps.append(np.full(len(state.q), np.max(np.abs(mine - direct)) / np.max(np.abs(direct))))
    return np.array(gaps)


def test_incremental_forms_track_direct_recomputation(large_n_problem):
    # the forms as greedy reads them (after candidate_deltas' check of the
    # leading candidate) against a rebuild from the same q, at every pick.
    # Measured worst (num, den, change) gaps: 1.4e-8, 1.3e-12, 3.6e-8 over
    # 20 more-sources-than-modes runs (30 picks past L = K = 8, where the
    # L = K pick collapses every decrease and rebuilds the forms once or
    # twice per run), and 5.5e-12, 1.5e-15, 1.8e-10 over 100 picks of the
    # large-N problem, which never rebuilds.
    runs = [(_more_sources_than_modes_problem(seed), 30) for seed in range(20)]
    runs.append((large_n_problem, 100))
    for (c, w, prior), n_select in runs:
        large = n_select == 100
        bound = np.array([2e-11, 5e-15, 5e-10] if large else [5e-8, 5e-12, 1e-7])
        state = SelectionState.from_problem(one_bin(c, w, prior), 1e-5)
        for _ in range(n_select):
            idx = int(np.argmin(candidate_deltas(state)))
            assert np.all(_form_drift(state) <= bound[:, None])
            add_candidate(state, idx)
        assert state.min_denominator[0] >= state.lam
        assert (state.refreshes[0] == 0) if large else (1 <= state.refreshes[0] <= 2)
        assert state.max_drift[0] <= (1e-10 if large else 2e-7)


def test_selection_state_owns_its_arrays():
    c, w, prior = _random_problem(48, n=9)
    lam = 1e-3
    for coeff in (c, *_layouts(c)):
        state = SelectionState.from_problem(one_bin(coeff, w, prior), lam)
        assert state.coeff[0].dtype == np.complex128 and state.coeff[0].flags.c_contiguous
        for a in (state.num, state.den):
            assert a.dtype == np.float64 and a.shape == (1, 9)
    # a state built directly copies the q it is given; no pick writes to
    # any caller array
    built = SelectionState.from_problem(one_bin(c, w, prior), lam)
    r = prior.second_moment
    q = built.q[0].copy()
    caller = (c, w.entries, r, q)
    kept = [a.copy() for a in caller]
    direct = SelectionState(coeff=[c], second_moment=[r], lam=lam, q=[q])
    for idx in (3, 0, 7):
        add_candidate(direct, idx)
        add_candidate(built, idx)
    for old, a in zip(kept, caller):
        assert np.array_equal(old, a)
    assert not np.shares_memory(direct.q[0], q)
    for a, b in ((direct.q[0], built.q[0]), (direct.num, built.num), (direct.den, built.den)):
        assert np.array_equal(a, b)


def test_stacked_state_is_the_per_bin_state():
    # one state over three bins of different K, the last past the one-thread
    # limit (two matrix-vector products per pick), against a state of each
    # bin alone: after every pick each bin's rows and readouts are the same
    # bit for bit, and the weighted changes are the gamma-weighted sum of the
    # bins' changes in bin order
    bins = [_random_problem(70 + b, n=900, dim=dim) for b, dim in enumerate((7, 19, 41))]
    assert 2 * bins[1][0].size <= _ONE_THREAD_MACS < 2 * bins[2][0].size
    lam, gamma = 1e-4, (1.0, 0.3, 2.0)
    spec = BroadbandSpec(tuple(FrequencyProblem(*b, gamma=g) for b, g in zip(bins, gamma)))
    state = SelectionState.from_problem(spec, lam)
    alone = [SelectionState.from_problem(one_bin(c, w, prior), lam) for c, w, prior in bins]
    for _ in range(12):
        deltas = candidate_deltas(state)
        assert np.array_equal(deltas, sum(g * candidate_deltas(a) for g, a in zip(gamma, alone)))
        idx = int(np.argmin(deltas))
        add_candidate(state, idx)
        for b, single in enumerate(alone):
            add_candidate(single, idx)
            assert np.array_equal(state.q[b], single.q[0])
            for mine, own in ((state.num, single.num), (state.den, single.den),
                              (state.min_denominator, single.min_denominator),
                              (state.max_drift, single.max_drift),
                              (state.refreshes, single.refreshes)):
                assert np.array_equal(mine[b], own[0])
        assert state_cost(state) == pytest.approx(
            sum(g * state_cost(a) for g, a in zip(gamma, alone)), rel=1e-15)


def _generation_bytes(bins):
    """One generation of the state, Q_S per bin and num and den, plus one
    build block (Q_S C and R Q_S C over BUILD_BLOCK_BYTES of columns)."""
    per_bin = sum(16 * c.shape[0] ** 2 + 16 * c.shape[1] for c in bins)
    return per_bin + 2 * BUILD_BLOCK_BYTES


@pytest.fixture(scope="module")
def paper_broadband():
    config = paper_config(broadband=True)
    return config, to_broadband_spec(build_problems(config))


def test_broadband_greedy_memory_holds_one_generation(paper_broadband):
    # the paper's 20 bins: the state is updated in place and holds no K x N
    # array, so the traced peak stays near one generation (measured 0.91x,
    # 1.06 MB; holding Q_S C and R Q_S C whole per bin would take 6.4 MB)
    config, spec = paper_broadband
    generation = _generation_bytes([b.coeff for b in spec.bins])
    result, peak = traced_peak(
        greedy_place_broadband, spec, config.lambda_select, n_select=config.n_select
    )
    assert len(result.indices) == config.n_select
    assert peak < 1.25 * generation


def test_paper_broadband_state_tracks_direct_recomputation(paper_broadband):
    # the 20-bin paper state as greedy reads it, at every pick: each bin's
    # num and den against _forms from its q, within the more-sources-than-
    # modes bounds of test_incremental_forms_track_direct_recomputation
    # (measured worst num, den and change gaps 2.5e-11, 8.9e-14, 1.2e-11),
    # and the trace against the direct broadband cost (measured 4.5e-16)
    config, spec = paper_broadband
    lam = config.lambda_select
    result = greedy_place_broadband(spec, lam, n_select=config.n_select)
    state = SelectionState.from_problem(spec, lam)
    bound = np.array([5e-8, 5e-12, 1e-7])
    for step, idx in enumerate(result.indices, start=1):
        assert int(np.argmin(candidate_deltas(state))) == idx
        assert np.all(_form_drift(state) <= bound[:, None])
        add_candidate(state, idx)
        direct = broadband_cost(spec, result.indices[:step], lam)
        assert result.cost_trace[step] == pytest.approx(direct, rel=1e-12)
    assert np.all(state.min_denominator >= lam)
    assert np.all(state.refreshes == 0)
    assert np.all(state.max_drift <= 1e-10)


def test_add_candidate_rejects_bad_indices():
    c, w, prior = _random_problem(45, n=4)
    state = SelectionState.from_problem(one_bin(c, w, prior), 1e-3)
    for bad in (4, -1):
        with pytest.raises(ValueError):
            add_candidate(state, bad)
    state = add_candidate(state, 1)
    with pytest.raises(ValueError):
        add_candidate(state, 1)


# ---------------------------------------------------------------------------
# greedy selection


def test_greedy_single_candidate():
    c, w, prior = _random_problem(51, n=1)
    result = greedy_place_broadband(one_bin(c, w, prior), 1e-3, n_select=1)
    assert result.indices == (0,)
    assert len(result.cost_trace) == 2


def test_greedy_trace_monotone_and_matches_direct():
    c, w, prior = _random_problem(52, n=14)
    lam = 1e-3
    result = greedy_place_broadband(one_bin(c, w, prior), lam, n_select=8)
    assert len(result.indices) == 8
    assert len(set(result.indices)) == 8
    assert len(result.cost_trace) == 9
    assert result.cost_trace[0] == pytest.approx(
        placement_cost((), prior, c, w, lam), rel=1e-12
    )
    assert np.all(np.diff(result.cost_trace) <= 0.0)
    for l in range(1, 9):
        direct = placement_cost(result.indices[:l], prior, c, w, lam)
        assert result.cost_trace[l] == pytest.approx(direct, rel=1e-9)


def test_greedy_matches_exhaustive_properties():
    c, w, prior = _random_problem(53, n=12)
    lam = 1e-3
    greedy = greedy_place_broadband(one_bin(c, w, prior), lam, n_select=3)
    opt_idx, opt_cost = exhaustive_place(c, w, prior, lam, 3)
    assert opt_cost <= greedy.cost_trace[-1] * (1.0 + 1e-12)
    first_idx, first_cost = exhaustive_place(c, w, prior, lam, 1)
    assert first_idx[0] == greedy.indices[0]
    assert first_cost == pytest.approx(greedy.cost_trace[1], rel=1e-10)


def test_greedy_tie_breaks_to_lowest_index():
    rng = np.random.default_rng(54)
    c = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
    base = greedy_place_broadband(
        one_bin(c, identity_weight(9), FieldPrior.fixed_field(c[:, 2] * 1.7)), 1e-6, n_select=1
    )
    assert base.indices == (2,)  # candidate 2 can null the field by itself
    c2 = c.copy()
    c2[:, 5] = c2[:, 2]  # bit-identical twin later in the list
    tied = greedy_place_broadband(
        one_bin(c2, identity_weight(9), FieldPrior.fixed_field(c[:, 2] * 1.7)), 1e-6, n_select=1
    )
    assert tied.indices == (2,)
    # a near-twin better by 5e-11 of the decrease, inside SCREEN_RTOL but
    # outside TIE_RTOL, is no tie: the better, higher index wins
    c3 = c.copy()
    c3[:, 5] = c3[:, 2] * (1.0 + 5e-4)
    near = greedy_place_broadband(
        one_bin(c3, identity_weight(9), FieldPrior.fixed_field(c[:, 2] * 1.7)), 1e-6, n_select=1
    )
    assert near.indices == (5,)


@pytest.mark.parametrize(
    "hz, min_tied", [((1000.0,), 5), ((600.0, 1000.0, 1700.0), 4)], ids=["1-bin", "3-bin"]
)
def test_greedy_mirrored_ties_break_to_lowest_index(hz, min_tied):
    # geometric ties, recurring: 12 source pairs mirrored about the
    # horizontal line through the region centre, under a prior symmetric
    # about 0 deg, at one frequency and summed over three. Whenever the
    # selection is mirror-symmetric every free pair is tied, and rounding
    # splits the incremental decreases of a pair by up to 3e-11 of the best
    # one, past TIE_RTOL (6 such steps in one bin, 4 in three). In either
    # listing order greedy must take the lower index of the pair at each.
    region = CircularRegion(Point2(0.5, 0.3), 0.5)
    freqs = [Frequency(f) for f in hz]
    cfgs = [expansion_for(region, f) for f in freqs]
    priors = prior_from_direction_range(RANGE45, list(zip(cfgs, freqs)))
    weights = weight_matrix_circle(region, list(zip(cfgs, freqs)))
    th = np.radians(np.linspace(100.0, 175.0, 12))
    upper = np.c_[0.5 + 1.5 * np.cos(th), 0.3 + 1.5 * np.sin(th)]
    lower = np.c_[upper[:, 0], 0.6 - upper[:, 1]]
    runs = []
    for first, second in ((upper, lower), (lower, upper)):
        pts = np.empty((24, 2))
        pts[0::2], pts[1::2] = first, second
        coeffs = source_coeff_matrix(pts, list(zip(cfgs, freqs)))
        spec = BroadbandSpec(tuple(
            FrequencyProblem(c, w, prior, gamma=1.0 / (b + 1))
            for b, (c, w, prior) in enumerate(zip(coeffs, weights, priors))
        ))
        picks = greedy_place_broadband(spec, 1e-5, n_select=24).indices
        tied_steps = 0
        for step, idx in enumerate(picks):
            pairs = [i // 2 for i in picks[:step]]
            if all(pairs.count(p) == 2 for p in pairs):
                tied_steps += 1
                assert idx % 2 == 0, (step, picks)
        assert tied_steps >= min_tied
        runs.append(picks)
    assert runs[0] == runs[1]


def _unnormalized_problem(seed, k, n):
    """A random L > K problem without unit columns; v is drawn before mu."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    w = WeightMatrix(np.diag(rng.uniform(0.5, 2.0, k)))
    v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    mu = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return c, w, FieldPrior(mu, v @ v.conj().T / k)


def test_greedy_more_sources_than_modes():
    # past L = K picks the residual only shrinks in lam-sized directions;
    # the state, num and den as greedy reads them (after candidate_deltas)
    # and the exact trace must still match direct recomputation from a
    # directly solved Q_S. Measured worst num/den gaps: 7.4e-9 / 9.4e-11
    # over the 20 seeds, 8.5e-10 / 1.9e-10 on the K = 6, N = 20 problem.
    lam = 1e-5
    runs = [(_more_sources_than_modes_problem(seed, 8, 40), 30) for seed in range(20)]
    runs.append((_unnormalized_problem(2, 6, 20), 12))
    for (c, w, prior), n_select in runs:
        result = greedy_place_broadband(one_bin(c, w, prior), lam, n_select=n_select)
        assert np.all(np.diff(result.cost_trace) <= 0.0)
        scale = np.max(np.abs(w.entries))
        state = SelectionState.from_problem(one_bin(c, w, prior), lam)
        direct_q = w.entries
        for step, idx in enumerate(result.indices, start=1):
            candidate_deltas(state)
            free = np.setdiff1d(np.arange(c.shape[1]), state.selected)
            for mine, direct in zip((state.num[0], state.den[0]),
                                    _forms(direct_q, prior.second_moment, c)):
                gap = np.max(np.abs(mine - direct)[free]) / np.max(np.abs(direct[free]))
                assert gap <= 1e-8
            state = add_candidate(state, idx)
            direct_q = _direct_q(c, w.entries, state.selected, lam)
            assert np.max(np.abs(state.q[0] - direct_q)) <= 1e-8 * scale
            direct = placement_cost(state.selected, prior, c, w, lam)
            assert result.cost_trace[step] == pytest.approx(direct, rel=1e-9)


@pytest.fixture(scope="module")
def large_n_problem():
    # the freefield-n4000 benchmark problem: 4000 candidates on the paper's
    # 3 m square, K = 59 at 2 kHz, and L = 100 > K picks
    region = CircularRegion(Point2(0.5, 0.3), 0.5)
    f2k = Frequency(2000.0)
    cfg = expansion_for(region, f2k)
    assert cfg.size == 59
    c = source_coeff_matrix(square_loop(3.0, 4000), [(cfg, f2k)])[0]
    (w,) = weight_matrix_circle(region, [(cfg, f2k)])
    (prior,) = prior_from_direction_range(RANGE45, [(cfg, f2k)])
    return c, w, prior


def test_greedy_large_n_matches_direct_oracles(large_n_problem):
    c, w, prior = large_n_problem
    lam = 1e-5
    result = greedy_place_broadband(one_bin(c, w, prior), lam, n_select=100)
    assert len(result.indices) == 100
    for step in range(10, 101, 10):
        direct = placement_cost(result.indices[:step], prior, c, w, lam)
        assert result.cost_trace[step] == pytest.approx(direct, rel=1e-9)
    # above the one-thread limit, add_candidate updates the forms from two
    # matrix-vector products; every tenth pick, each free candidate's
    # incremental decrease (never refreshed here) against its decrease
    # recomputed from q. Measured worst gap 2.2e-10 of the best decrease, at
    # pick 100.
    assert 2 * c.size > _ONE_THREAD_MACS
    state = SelectionState.from_problem(one_bin(c, w, prior), lam)
    for step, idx in enumerate(result.indices, start=1):
        state = add_candidate(state, idx)
        if step % 10 == 0:
            free = np.setdiff1d(np.arange(c.shape[1]), state.selected)
            direct = _direct_deltas(state, free)
            incremental = _weighted_deltas(state, _free_gains(state))
            gap = np.max(np.abs(incremental[free] - direct))
            assert gap <= 1e-8 * np.max(np.abs(direct)), step
    direct_q = _direct_q(c, w.entries, state.selected, lam)
    assert np.max(np.abs(state.q[0] - direct_q)) <= 1e-8 * np.max(np.abs(w.entries))


def test_greedy_large_n_memory_holds_one_generation(large_n_problem):
    # the forms are built a column block at a time and updated in place, so
    # the traced peak stays near one generation (measured 1.10x, 0.71 MB;
    # holding Q_S C and R Q_S C whole would take 7.6 MB)
    c, w, prior = large_n_problem
    generation = _generation_bytes([c])
    result, peak = traced_peak(greedy_place_broadband, one_bin(c, w, prior), 1e-5, n_select=100)
    assert len(result.indices) == 100
    assert peak < 1.25 * generation


def test_greedy_min_decrease_stopping():
    c, w, prior = _random_problem(55, n=10)
    halted = greedy_place_broadband(one_bin(c, w, prior), 1e-3, n_select=5, min_decrease=2.0)
    assert halted.indices == ()
    assert len(halted.cost_trace) == 1
    full = greedy_place_broadband(one_bin(c, w, prior), 1e-3, n_select=5, min_decrease=1e-15)
    assert len(full.indices) == 5
    open_ended = greedy_place_broadband(one_bin(c, w, prior), 1e-3, min_decrease=1e-4)
    assert 1 <= len(open_ended.indices) <= 10
    # zero is a threshold no decrease falls below: every candidate is taken
    assert len(greedy_place_broadband(one_bin(c, w, prior), 1e-3, min_decrease=0.0).indices) == 10
    # a negative or non-finite threshold would never stop a run
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="min_decrease"):
            greedy_place_broadband(one_bin(c, w, prior), 1e-3, min_decrease=bad)
        with pytest.raises(ValueError, match="min_decrease"):
            greedy_place_broadband(one_bin(c, w, prior), 1e-3, n_select=2, min_decrease=bad)


def test_greedy_input_validation():
    c, w, prior = _random_problem(56, n=3)
    with pytest.raises(ValueError):
        greedy_place_broadband(one_bin(c, w, prior), 1e-3)  # no stopping rule
    with pytest.raises(ValueError):
        greedy_place_broadband(one_bin(c, w, prior), 1e-3, n_select=4)
    with pytest.raises(ValueError):
        greedy_place_broadband(one_bin(c[:, :0], w, prior), 1e-3, n_select=1)
    with pytest.raises(ValueError):
        greedy_place_broadband(one_bin(c, w, prior), 0.0, n_select=1)


def test_broadband_single_bin_matches_narrowband():
    # a spec of one bin is the narrowband problem: its picks are those of a
    # greedy that costs every free candidate directly with placement_cost
    # (measured trace gap 4.4e-16)
    c, w, prior = _random_problem(57, n=11)
    lam = 1e-3
    bb = greedy_place_broadband(one_bin(c, w, prior), lam, n_select=4)
    picks, trace = [], [placement_cost((), prior, c, w, lam)]
    for _ in range(4):
        costs = {i: placement_cost(picks + [i], prior, c, w, lam) for i in range(11) if i not in picks}
        picks.append(min(costs, key=costs.get))
        trace.append(costs[picks[-1]])
    assert bb.indices == tuple(picks)
    np.testing.assert_allclose(bb.cost_trace, trace, rtol=1e-13)


def test_broadband_gamma_scaling_and_additivity():
    c1, w1, p1 = _random_problem(58, n=9)
    c2, w2, p2 = _random_problem(59, n=9)
    lam = 1e-3
    spec = BroadbandSpec((FrequencyProblem(c1, w1, p1, 1.0), FrequencyProblem(c2, w2, p2, 2.5)))
    scaled = BroadbandSpec((FrequencyProblem(c1, w1, p1, 7.0), FrequencyProblem(c2, w2, p2, 17.5)))
    r1 = greedy_place_broadband(spec, lam, n_select=4)
    r2 = greedy_place_broadband(scaled, lam, n_select=4)
    assert r1.indices == r2.indices
    np.testing.assert_allclose(7.0 * r1.cost_trace, r2.cost_trace, rtol=1e-12)
    want = broadband_cost(spec, r1.indices, lam)
    assert r1.cost_trace[-1] == pytest.approx(want, rel=1e-9)
    j1 = placement_cost(r1.indices, p1, c1, w1, lam)
    j2 = placement_cost(r1.indices, p2, c2, w2, lam)
    assert want == pytest.approx(1.0 * j1 + 2.5 * j2, rel=1e-12)


def test_broadband_spec_validation():
    c1, w1, p1 = _random_problem(60, n=9)
    c2, w2, p2 = _random_problem(61, n=8)
    with pytest.raises(ValueError):
        BroadbandSpec(())
    with pytest.raises(ValueError):
        BroadbandSpec((FrequencyProblem(c1, w1, p1, 1.0), FrequencyProblem(c2, w2, p2, 1.0)))
    with pytest.raises(ValueError):
        FrequencyProblem(c1, w1, p1, gamma=0.0)


def test_exhaustive_edge_cases():
    c, w, prior = _random_problem(63, n=5)
    idx, _ = exhaustive_place(c, w, prior, 1e-3, 5)
    assert idx == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        exhaustive_place(c, w, prior, 1e-3, 6)


# ---------------------------------------------------------------------------
# equal-spacing baselines


def _square_candidates():
    # 200 points tracing a 3 m x 3 m square counterclockwise from the
    # lower-left corner, 0.06 m spacing
    t = 0.06 * np.arange(50)
    bottom = np.c_[t - 1.5, np.full(50, -1.5)]
    right = np.c_[np.full(50, 1.5), t - 1.5]
    top = np.c_[1.5 - t, np.full(50, 1.5)]
    left = np.c_[np.full(50, -1.5), 1.5 - t]
    return np.vstack([bottom, right, top, left])


def test_regular_placement_b_spacing_rule():
    pts = _square_candidates()
    assert regular_placement_b(pts, 20) == tuple(range(0, 200, 10))
    ten = np.zeros((10, 2))
    assert regular_placement_b(ten, 3) == (0, 3, 6)
    assert regular_placement_b(ten, 10) == tuple(range(10))
    with pytest.raises(ValueError):
        regular_placement_b(ten, 11)


def test_regular_placement_a_reference_geometry():
    # hand-derived admissible arc for the reference setup: the +/-45 deg
    # tangent rays meet the square at x = -0.5929 on the bottom edge and
    # x = 0.0071 on the top edge, so the arc spans indices 125..199, 0..15
    pts = _square_candidates()
    region = CircularRegion(Point2(0.5, 0.3), 0.5)
    sel = regular_placement_a(pts, region, RANGE45, 20)
    admissible = set(range(125, 200)) | set(range(0, 16))
    assert len(sel) == 20 and len(set(sel)) == 20
    assert set(sel) <= admissible
    assert sel[0] == 125 and sel[-1] == 15  # arc endpoints always included
    u_mean = np.array([1.0, 0.0])
    for i in sel:
        assert (pts[i] - [0.5, 0.3]) @ u_mean < 0.0  # never downstream of center
    everything = regular_placement_a(pts, region, RANGE45, 91)
    assert set(everything) == admissible


def test_regular_placement_a_full_circle_falls_back():
    pts = _square_candidates()
    region = CircularRegion(Point2(0.5, 0.3), 0.5)
    wide = DirectionRangePrior(0.0, 2.0 * math.pi)
    assert regular_placement_a(pts, region, wide, 20) == regular_placement_b(pts, 20)


def test_regular_placement_a_rejects_oversized_selection():
    pts = _square_candidates()
    region = CircularRegion(Point2(0.5, 0.3), 0.5)
    with pytest.raises(ValueError):
        regular_placement_a(pts, region, RANGE45, 92)


# ---------------------------------------------------------------------------
# pressure-matching cross-check


def test_pressure_matching_cost_tracks_regional_error():
    # the same placement cost through three routes: coefficient-domain
    # with the region Gram weighting, pressure samples scaled by the cell
    # area, and a brute-force dense-grid residual of the solved field
    freq = Frequency(500.0)
    region = CircularRegion(Point2(0.0, 0.0), 0.5)
    cfg = expansion_for(region, freq)
    phis = 2.0 * math.pi * np.arange(8) / 8.0
    srcs = np.c_[2.0 * np.cos(phis), 2.0 * np.sin(phis)]
    direction = math.radians(15.0)
    b = planewave_coeffs(cfg, freq, [direction])[:, 0]
    c_coeff = source_coeff_matrix(srcs, [(cfg, freq)])[0]
    (w_coeff,) = weight_matrix_circle(region, [(cfg, freq)])
    kvec = freq.wavenumber * np.array([math.cos(direction), math.sin(direction)])

    spacing = 0.0625  # about 200 control points over the disc
    ctrl = region_grid(region, spacing=spacing)
    assert 190 <= len(ctrl) <= 210
    c_pm, w_pm, b_pm = build_pressure_matching(
        ctrl, srcs, lambda p: np.exp(1j * (p @ kvec)), freq
    )
    cell = spacing ** 2
    lam = 1e-6
    sel = [0, 2, 5]
    j_coeff = placement_cost(sel, FieldPrior.fixed_field(b), c_coeff, w_coeff, lam)
    j_pm = cell * placement_cost(
        sel, FieldPrior.fixed_field(b_pm), c_pm, w_pm, lam / cell
    )
    assert j_pm == pytest.approx(j_coeff, rel=0.10)

    # brute force: solve on the coefficient route, integrate the error
    d = solve_wmm(c_coeff[:, sel], w_coeff, b, lam)
    fine = region_grid(region, spacing=0.005)
    err = direct_transfer(fine, srcs[sel], freq) @ d - np.exp(1j * (fine @ kvec))
    brute = float(np.sum(np.abs(err) ** 2)) * 0.005 ** 2 + lam * float(np.vdot(d, d).real)
    assert j_coeff == pytest.approx(brute, rel=0.10)
