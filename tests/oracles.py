"""Direct reference computations the tests check the library against.

None of these is on a pipeline path: each recomputes a quantity the
library gets another way (a closed form, a recurrence, a reused geometry),
so a test can compare the two. The library has one propagation model, the
Graf expansion of each source's images; direct_transfer (the image sum of
(i/4) H_0^(1) in the field domain) and graf_coeffs (the per-order Graf sum)
are the direct models it is checked against. Both take their Bessel and
Hankel values from scipy.special, never from sfsplace.specfun. The weight
has a closed form in the library; weight_matrix_quadrature integrates the
same Gram matrix numerically. The library sums a lattice grid's basis
Gram over one point per symmetry orbit; point_gram sums it point by
point. The library takes SDRs from expansion coefficients; sdr
takes them from sampled fields. The library translates the far images'
lattice sums to each source as one real product; far_translation forms
the same translation with complex arithmetic, from a fold of the
lattice sums over every order j = -p..p. The library places greedily;
exhaustive_place enumerates every subset for the optimum at toy sizes.
traced_peak is the tests' one memory probe, and one_bin wraps one bin's
(C, W, prior) as the problem greedy selection takes.
"""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import scipy.special

from sfsplace.placement import BroadbandSpec, FrequencyProblem, _hermitize
from sfsplace.room import RoomModel, _images
from sfsplace.synthesis import WeightMatrix, _sdr_db, identity_weight
from sfsplace.wavefield import (
    CircularRegion,
    ExpansionConfig,
    Frequency,
    _as_points,
    _basis_matrix,
)


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc traced above its start while fn ran)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def one_bin(coeff, weight, prior) -> BroadbandSpec:
    """The problem of one frequency bin, as greedy_place_broadband and SelectionState take it."""
    return BroadbandSpec((FrequencyProblem(np.asarray(coeff), weight, prior),))


# grid points of the direct truncation check: half the outermost (truncation
# error peaks at the rim), half an even stride over the whole grid
SPOT_CHECK_POINTS = 128

# Hankel arguments per block of sources in direct_transfer (at least one
# source per block): keeps the (points x sources x images) work arrays at a
# few MB however many sources a call holds
_TRANSFER_BLOCK = 1 << 18


def point_gram(cfg: ExpansionConfig, points, freq: Frequency, weights) -> WeightMatrix:
    """Gram matrix of the basis under a point quadrature with the given weights.

    The field of coefficients a at point p is sum_m a_m b_m(p), so
    sum_p w_p |u(p)|^2 = a^H W a with W = conj(B) diag(w) B^T.
    """
    basis = _basis_matrix(cfg, points, freq)
    w = (basis.conj() * weights) @ basis.T
    return WeightMatrix(0.5 * (w + w.conj().T))


def wmm_residual(coeff_matrix, weight: WeightMatrix, target, drivers, lam: float = 0.0) -> float:
    """Regularized weighted residual F(d); the quantity solve_wmm minimizes."""
    c = np.asarray(coeff_matrix, dtype=np.complex128)
    w = weight.entries
    b = np.asarray(target)
    d = np.asarray(drivers)
    r = c @ d - b
    val = float((r.conj() @ (w @ r)).real) + lam * float((d.conj() @ d).real)
    return val


def exhaustive_place(coeff_matrix, weight: WeightMatrix, prior, lam: float, n_select: int):
    """Globally optimal n_select-subset by full enumeration (toy sizes only).

    Returns (indices, cost); ties resolve to the lexicographically first
    subset. Guarded to at most 10^6 subsets. Each subset costs
    J = tr(W R) - tr((G_SS + lam I)^{-1} T_SS) with G = C^H W C and
    T = C^H W R W C.
    """
    c = np.asarray(coeff_matrix, dtype=np.complex128)
    w = _hermitize(weight.entries)
    n = c.shape[1]
    if not 1 <= n_select <= n:
        raise ValueError("n_select must lie in [1, n_candidates]")
    if math.comb(n, n_select) > 10 ** 6:
        raise ValueError("subset count exceeds the enumeration guard")
    wc = w @ c
    gram = _hermitize(c.conj().T @ wc)
    tmat = _hermitize(wc.conj().T @ (prior.second_moment @ wc))
    j_empty = float(np.sum(w * prior.second_moment.T).real)
    eye = lam * np.eye(n_select)
    best_idx, best_cost = None, np.inf
    for combo in combinations(range(n), n_select):
        sel = list(combo)
        a = np.linalg.inv(gram[np.ix_(sel, sel)] + eye)
        cost = j_empty - float(np.sum(a * tmat[np.ix_(sel, sel)].T).real)
        if cost < best_cost:
            best_idx, best_cost = combo, cost
    return best_idx, best_cost


def weight_matrix_quadrature(
    region: CircularRegion,
    cfg: ExpansionConfig,
    freq: Frequency,
    n_radial: int | None = None,
    n_angular: int | None = None,
) -> WeightMatrix:
    """Gram matrix by Gauss-Legendre (radial) x uniform (angular) quadrature.

    The uniform angular rule is exact for the trigonometric polynomials the
    integrand contains once n_angular exceeds twice the top harmonic, hence
    the n_angular >= 4M precondition.
    """
    mmax = cfg.max_order
    if n_angular is None:
        n_angular = max(64, 4 * mmax + 8)
    if n_angular < 4 * mmax:
        raise ValueError("n_angular must be at least 4x the truncation order")
    if n_radial is None:
        n_radial = max(32, mmax + int(math.ceil(freq.wavenumber * region.radius)) + 8)
    nodes, gl_w = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * region.radius * (nodes + 1.0)
    wr = 0.5 * region.radius * gl_w * r  # area element r dr
    th = 2.0 * math.pi * np.arange(n_angular) / n_angular
    wth = 2.0 * math.pi / n_angular
    pts = np.empty((n_radial * n_angular, 2))
    pts[:, 0] = region.center.x + np.outer(r, np.cos(th)).ravel()
    pts[:, 1] = region.center.y + np.outer(r, np.sin(th)).ravel()
    return point_gram(cfg, pts, freq, wth * np.repeat(wr, n_angular))


def sdr(u_des, u_syn):
    """Signal-to-distortion ratio in dB over a uniform sample grid.

    10 log10(sum |u_des|^2 / sum |u_des - u_syn|^2), summed over axis 0 and
    capped at 300 dB for a vanishing error: a float for 1-D samples, one
    value per column for (G, A) samples. Non-finite samples and a desired
    column with zero energy are rejected (_sdr_db).
    """
    des = np.asarray(u_des)
    syn = np.asarray(u_syn)
    if des.shape != syn.shape:
        raise ValueError("field sample arrays must have equal shape")
    sig = np.sum(np.abs(des) ** 2, axis=0)
    return _sdr_db(sig, np.sum(np.abs(des - syn) ** 2, axis=0))



def direct_transfer(points, sources, freq: Frequency, room: RoomModel | None = None):
    """(n_points, n_sources) transfer functions from scipy's order-0 Bessel functions.

    Entry (p, s) is the sum over the images of source s (the source alone
    in free field) of gain * (i/4) (J_0 + i Y_0)(k |point_p - image|), with
    scipy.special.j0 and y0, so no sfsplace seed or recurrence is on its
    path. Sources go in blocks of at most _TRANSFER_BLOCK arguments (at
    least one source).
    """
    pts = _as_points(points)
    pos, gains = _images(sources, room)
    step = max(1, _TRANSFER_BLOCK // max(len(pts) * pos.shape[1], 1))
    out = np.empty((len(pts), len(pos)), dtype=np.complex128)
    for lo in range(0, len(pos), step):
        blk = pos[lo:lo + step]
        kd = freq.wavenumber * np.hypot(
            pts[:, 0, None, None] - blk[None, :, :, 0],
            pts[:, 1, None, None] - blk[None, :, :, 1],
        )
        re, im = scipy.special.j0(kd) @ gains, scipy.special.y0(kd) @ gains
        out[:, lo:lo + step] = 0.25j * (re + 1j * im)
    return out


def build_pressure_matching(
    control_points, sources, desired, freq: Frequency, room: RoomModel | None = None
):
    """Pressure-matching problem triple (C, W, b) over discrete control points.

    C holds transfer functions source -> control point, b the desired
    pressures (desired is a callable mapping an (n, 2) point array to
    complex samples), and W is the identity; the triple plugs into the
    same solvers and placement costs as the coefficient-domain problem.
    The pipeline takes pressure matching through the expansion (the
    control-grid Gram as W); this direct form is its reference.
    """
    pts = _as_points(control_points)
    c = direct_transfer(pts, sources, freq, room)
    b = np.asarray(desired(pts), dtype=np.complex128)
    if b.shape != (len(pts),):
        raise ValueError("desired-field evaluator returned a wrong-shaped array")
    return c, identity_weight(len(pts)), b


def graf_coeffs(positions, cfg, freq: Frequency, room: RoomModel | None = None):
    """(K, S) Graf coefficients summed directly over the images.

    Entry (m, s) is sum_i gain_i (i/4) H_m^(1)(k d_i) e^{-i m phi_i}, with
    scipy's Hankel function and an arctan2 phase per order and image, the
    image geometry rebuilt for this one bin.
    """
    pos, gains = _images(positions, room)
    dx = pos[..., 0] - cfg.center[0]
    dy = pos[..., 1] - cfg.center[1]
    m = cfg.orders[:, None, None]
    h = scipy.special.hankel1(m, freq.wavenumber * np.hypot(dx, dy))
    phase = np.exp(-1j * m * np.arctan2(dy, dx))
    return 0.25j * np.sum(gains * h * phase, axis=2)


def far_translation(sums, signs, j, beta):
    """(2M + 1, S) far part sum_n A_n J_{n-m}(k delta) e^{i (n-m) beta} of each source's column.

    sums is (2 (M + p) + 1, G), each sign group's lattice sums A_{-N..N}; j
    is (p + 1, S), J_0..J_p at k delta of each source, and beta the angle of
    y - s. The rows are R_j = J_j u^j, j = -p..p, with
    R_{-j} = (-1)^j conj(R_j), and the complex fold F takes every sign
    group's window A_{m+j} (mirrored in j where sx != sy) with its sign
    powers, so the part is F R in complex arithmetic.
    """
    p = j.shape[0] - 1
    rows = np.empty((2 * p + 1, j.shape[1]), dtype=np.complex128)
    rows[p:] = j * np.exp(1j * np.outer(np.arange(p + 1), beta))
    rows[:p] = rows[:p:-1].conj() * (-1.0) ** np.arange(p, 0, -1)[:, None]
    order = np.abs(np.arange(-p, p + 1))
    fold = np.zeros((sums.shape[0] - 2 * p, 2 * p + 1), dtype=np.complex128)
    for (sx, sy), col in zip(signs, sums.T):
        window = np.lib.stride_tricks.sliding_window_view(col, 2 * p + 1)
        if sx == sy:
            fold += window * sx ** order
        else:
            fold += window[:, ::-1] * (-sx) ** order
    return fold @ rows


def spot_check_points(grid, region) -> np.ndarray:
    """Indices of the grid points the direct truncation check samples."""
    r = np.hypot(grid[:, 0] - region.center.x, grid[:, 1] - region.center.y)
    rim = np.argsort(-r, kind="stable")[: SPOT_CHECK_POINTS // 2]
    stride = max(1, 2 * len(grid) // SPOT_CHECK_POINTS)
    return np.union1d(rim, np.arange(0, len(grid), stride))


def column_errors(grid, region, sources, coeff, cfg, freq: Frequency, room=None):
    """Relative error ||series - direct|| / ||direct|| of each expansion column.

    Column s of coeff (K, S), the expansion of sources[s] about cfg.center,
    is evaluated at the spot-check points of grid and compared with the
    direct image-source transfer of that source.
    """
    pts = grid[spot_check_points(grid, region)]
    direct = direct_transfer(pts, sources, freq, room)
    series = _basis_matrix(cfg, pts, freq).T @ coeff
    return np.linalg.norm(series - direct, axis=0) / np.linalg.norm(direct, axis=0)
