"""Least-squares sound field synthesis over a circular control region.

Driving signals minimize the regional squared reproduction error expressed
in the cylindrical-harmonic domain,

    F(d) = (C d - b)^H W (C d - b) + lam ||d||^2,

where columns of C hold source transfer-function expansion coefficients,
b the desired-field coefficients, and W the Gram matrix of the basis
functions over the region. For a disc concentric with the expansion the
Gram matrix is diagonal with entries given by the Bessel integral
int_0^x t J_m(t)^2 dt = (x^2/2)(J_m^2 - J_{m-1} J_{m+1}) (DLMF 10.22.5).
Weighting by W is what makes the coefficient-domain residual track the
true regional error, as opposed to plain mode matching (W = I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .room import RoomModel, _source_images
from .wavefield import (
    CircularRegion,
    ExpansionConfig,
    Frequency,
    _basis_matrix,
)

__all__ = [
    "ConditioningError",
    "WeightMatrix",
    "weight_matrix_circle",
    "identity_weight",
    "source_coeff_matrix",
    "solve_wmm",
    "synthesis_lambda",
    "region_grid",
]

SDR_CAP_DB = 300.0


class ConditioningError(ValueError):
    """The regularized normal equations could not be solved reliably."""


@dataclass(frozen=True)
class WeightMatrix:
    """Hermitian PSD Gram matrix of the synthesis basis over the region."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix entries must be finite")
        scale = float(np.max(np.abs(w))) or 1.0
        if np.max(np.abs(w - w.conj().T)) > 1e-12 * scale:
            raise ValueError("weight matrix must be Hermitian")
        trace = float(np.trace(w).real)
        diag = w.diagonal()
        # with every off-diagonal entry exactly zero the eigenvalues are the
        # real diagonal
        if np.count_nonzero(w) == np.count_nonzero(diag):
            low = float(np.min(diag.real))
        else:
            low = np.linalg.eigvalsh(w)[0]
        if low < -1e-10 * max(trace, 1e-300):
            raise ValueError("weight matrix must be positive semidefinite")
        object.__setattr__(self, "entries", w)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def identity_weight(size: int) -> WeightMatrix:
    """Unit weights: plain (unweighted) mode matching, W = I."""
    return WeightMatrix(np.eye(size, dtype=np.complex128))


def _lattice_gram(cfg: ExpansionConfig, grid, spacing: float, freq: Frequency, weight: float):
    """weight * conj(B) B^T for cfg's basis B over a square lattice grid: real, (K x K).

    grid is cfg.center + spacing (i, j) for integers i, j, clipped to a disc
    about cfg.center (region_grid). Over each of its D4 orbits (size mu: 8,
    or 4 on an axis or diagonal, 1 at the center) the phases
    e^{i (n - m) phi} sum to mu cos((n - m) phi) if 4 divides n - m and to 0
    otherwise (Fassler and Stiefel, Group Theoretical Methods and Their
    Applications, 1992). So the wedge 0 <= j <= i gives P as s s^T, with s
    the float64 view (Re, Im interleaved) of the wedge's basis, each point
    scaled by sqrt(weight mu); P is symmetric bit for bit. Raises
    ValueError for a grid off the lattice or not centered on cfg.center.
    """
    offset = (np.asarray(grid, dtype=np.float64) - cfg.center) / spacing
    lattice = np.rint(offset)
    i, j = lattice.T
    wedge = (0.0 <= j) & (j <= i)
    i, j = i[wedge], j[wedge]
    mu = np.where(i == 0.0, 1.0, np.where((j == 0.0) | (j == i), 4.0, 8.0))
    if np.abs(offset - lattice).max(initial=0.0) > 1e-6 or mu.sum() != len(offset):
        raise ValueError("grid is not a square lattice centered on the expansion center")
    origin = ExpansionConfig(cfg.max_order, (0.0, 0.0))
    b = _basis_matrix(origin, spacing * np.c_[i, j], freq).view(np.float64)
    b *= np.repeat(np.sqrt(weight * mu), 2)
    gram = b @ b.T  # one operand: numpy takes BLAS syrk and mirrors its triangle
    m = cfg.orders
    gram[(m[:, None] - m) % 4 != 0] = 0.0
    return gram


def weight_matrix_circle(region: CircularRegion, bins) -> list[WeightMatrix]:
    """Closed-form Gram matrix of each (cfg, freq) bin, for a disc concentric
    with the expansion.

    Angular orthogonality kills every off-diagonal entry and
    W_mm = pi R^2 [J_m(kR)^2 - J_{m-1}(kR) J_{m+1}(kR)]. One
    bessel_j_orders call covers every bin's J(kR) row up to the largest
    order any bin needs. A bin's values depend on its own argument and
    that top order, so weights that must agree bit for bit come from bin
    lists with the same largest order.
    """
    for cfg, _ in bins:
        cx, cy = cfg.center
        if math.hypot(cx - region.center.x, cy - region.center.y) > 1e-12:
            raise ValueError("closed form requires the expansion centered on the region")
    x = np.array([freq.wavenumber * region.radius for _, freq in bins])
    j_all = specfun.bessel_j_orders(max(cfg.max_order for cfg, _ in bins) + 1, x)
    out = []
    for (cfg, _), j in zip(bins, j_all.T):
        top = cfg.max_order
        jprev = np.r_[-j[1], j[:top]]  # J_{-1} = -J_1
        diag_pos = math.pi * region.radius ** 2 * (j[: top + 1] ** 2 - jprev * j[1 : top + 2])
        diag = np.concatenate([diag_pos[:0:-1], diag_pos])  # W_{-m,-m} = W_{m,m}
        out.append(WeightMatrix(np.diag(diag).astype(np.complex128)))
    return out


# An image is far when the sources' spread about their midpoint is at most
# _FAR_RATIO of its distance from the expansion center; the translation of
# its sign's lattice sums then converges at least by that ratio per order.
_FAR_RATIO = 0.35
# orders added to the translation span once the lattice sums grow
# (_translation_span): _FAR_RATIO ** 38 < 1e-17
_GROWTH_ORDERS = math.ceil(math.log(1e-17) / math.log(_FAR_RATIO))
# The size rule of the far split, in direct Hankel terms (one source, one
# image, one order; about 20 ns each). Per source, the translation's Bessel
# row and product cost about as much as 16 far images' direct terms; per
# bin, the lattice stream and the Miller recurrence (a few numpy calls per
# order, a few hundred orders) about 1e4 terms. Measured on a 2-core x86
# machine (numpy 2.4, OpenBLAS) at 100 Hz to 2 kHz in the paper room.
_TRANSLATION_TERMS_PER_SOURCE = 16
_TRANSLATION_TERMS_PER_BIN = 10_000
_SIGNS = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
# OpenBLAS (0.3.31) runs a complex product of at most 2^16 multiply-adds on
# the calling thread. A larger one wakes a second thread, and while the
# machine's other core was busy that took 8 to 48 ms where one thread takes
# 0.4 ms (2-core x86, the paper's 2 kHz translation product). Greedy's
# per-pick update (placement.add_candidate) keeps its (2, K) @ (K, N)
# product up to this limit and takes two matrix-vector products past it:
# at K = 59, N = 4000 they took 0.15 ms median against 0.21-0.24 ms for the
# one product, which packs all of C on every call. Below the limit
# matrix-vector products are not safe: at K = 59, N = 200 (12k complex
# multiply-adds, enough for OpenBLAS to wake a second thread) up to 59 of
# 3000 calls took over 1 ms (max 24 ms) in a series on a busy host, where
# the one product never did. A real product stays on one thread to four
# times as many multiply-adds: real 8-column blocks (2^18) of the 2 kHz
# translation kept a p99 of 0.67 ms over 3000 calls with the other core busy.
_ONE_THREAD_MACS = 1 << 16
# Largest J block of translation rows (orders 0..p of a run of bins, S
# columns each) that one Bessel call forms (_translation_runs)
_TRANSLATION_BLOCK_BYTES = 1 << 19


def source_coeff_matrix(positions, bins, room: RoomModel | None = None) -> list[np.ndarray]:
    """Transfer-function expansion coefficients, one matrix per bin.

    bins holds (cfg, freq) pairs. In each bin's matrix, row m of column s is
    the Graf-theorem coefficient (i/4) H_m^(1)(k d) e^{-i m phi} summed over
    the images of source s (the source alone in free field), (d, phi) being
    the polar coordinates of each image about cfg.center. Sources (and all
    their images) must lie outside each bin's expansion validity disc.

    Bins about one center share the image geometry, which depends on
    neither frequency nor order. The images split by their distance from
    the center (_center_coeffs). Near images are summed directly per source
    (_graf_coeffs). Far images are summed once per mirror sign as the
    images of the sources' midpoint (the lattice sums), and each source
    takes them by one translation (Graf's addition theorem for J, DLMF
    10.23.7; the local-to-local translation of the 2D Helmholtz fast
    multipole method, Rokhlin, J. Comput. Phys. 86(2), 1990). Free field
    is the one-image table, whose image is always near. All the center's
    bins share one Hankel stream of near images and one of lattice sums,
    each argument to its own bin's order, and a few J blocks of
    translation rows; none of these moves a bin's Bessel values. A bin's
    matrix still depends on the bin list in the last bits, as
    weight_matrix_circle's do: the far split takes the list's largest validity
    radius (and the spans follow from it), and each order's contraction is
    one BLAS product over every bin's rows, whose rounding can follow the
    row count (each of the 20 paper bins' matrices is within 3.8e-16 of
    its largest entry of its own one-bin build).
    """
    srcs, table = _source_images(positions, room)
    by_center = {}
    for i, (cfg, _) in enumerate(bins):
        by_center.setdefault(cfg.center, []).append(i)
    out = [None] * len(bins)
    for center, idx in by_center.items():
        for i, coeff in zip(idx, _center_coeffs(srcs, table, center, [bins[i] for i in idx])):
            out[i] = coeff
    return out


def _center_coeffs(srcs, table, center, bins) -> list[np.ndarray]:
    """source_coeff_matrix of bins that share one expansion center c.

    With y the midpoint of the sources' bounding box, image i of source s
    is image i of y shifted by t = sign_i * (s - y), and |t| <= delta_max,
    the largest |s - y|. An image of y at distance D from c is far when
    delta_max <= _FAR_RATIO D and D - delta_max exceeds every bin's
    validity radius, so each of its source images lies outside the disc.
    The far split runs only where it pays: when the far (source, image)
    pairs S I_far outnumber the translation's cost in direct terms, S
    _TRANSLATION_TERMS_PER_SOURCE + _TRANSLATION_TERMS_PER_BIN. So free
    field (I_far <= 1) and a lone source stay direct. Every bin's near
    images are summed in one _graf_coeffs stream that writes each bin's
    own matrix.

    Per sign group the far images of y give the lattice sums A_n, their
    Graf coefficients about c to order N = M + p (_translation_span). All
    bins come from one _graf_coeffs stream, in which each bin is a block
    of the sign groups and runs to its own N. Source s takes them through
    C[m, s] += sum_n A_n J_{n-m}(k delta_s) e^{i (n-m) beta_s}, where
    delta_s e^{i beta_s} = sign * (y - s). The four signs turn e^{i beta}
    into +-u or +-conj(u), u the unit vector of y - s, and
    J_{-j} u^{-j} = (-1)^j conj(J_j u^j), so the groups fold into one real
    matrix (_real_fold) against the real rows J_j(k delta_s) cos(j beta_s)
    and J_j(k delta_s) sin(j beta_s), j >= 0: one
    (2 (2M + 1), 2p + 1) by (2p + 1, S) real product per bin, and no
    (S, I) array for the far images. The rows J_j of a run of bins come
    from one J block (_translation_runs) over the distinct delta_s.
    """
    n_src = len(srcs)
    far = np.zeros(table.gain.size, dtype=bool)
    # the split cannot pay unless it would with every image far
    if n_src * (far.size - _TRANSLATION_TERMS_PER_SOURCE) > _TRANSLATION_TERMS_PER_BIN:
        mid = 0.5 * (srcs.min(axis=0) + srcs.max(axis=0))
        shift = mid - srcs
        delta = np.hypot(shift[:, 0], shift[:, 1])
        lattice = table.at(mid[None])[0] - center
        reach = np.hypot(lattice[:, 0], lattice[:, 1])
        spread = delta.max()
        valid = max(cfg.valid_radius for cfg, _ in bins)
        far = (_FAR_RATIO * reach >= spread) & (reach - spread > valid)
        if n_src * (far.sum() - _TRANSLATION_TERMS_PER_SOURCE) <= _TRANSLATION_TERMS_PER_BIN:
            far[:] = False
    near = np.flatnonzero(~far)
    pos = table.at(srcs, near)
    dx = pos[..., 0] - center[0]
    dy = pos[..., 1] - center[1]
    dist = np.hypot(dx, dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (dx - 1j * dy) / dist  # a zero distance fails the check below
    for cfg, _ in bins:
        bad = np.argwhere(dist <= max(cfg.valid_radius, 1e-12))
        if bad.size:
            raise ValueError(
                "source or image at (%.6g, %.6g) lies inside the expansion validity disc"
                % tuple(pos[tuple(bad[0])])
            )
    wavenumber = np.array([freq.wavenumber for _, freq in bins])
    orders = [cfg.max_order for cfg, _ in bins]
    out = _graf_coeffs(orders, wavenumber[:, None, None] * dist, z, table.gain[near])
    if not far.any():
        return out

    groups = [(sign, np.flatnonzero(far & np.all(table.sign == sign, axis=1))) for sign in _SIGNS]
    groups = [(sign, rows) for sign, rows in groups if rows.size]
    # one width for every group: each repeats its own images, at zero gain
    width = max(rows.size for _, rows in groups)
    rows = np.array([np.resize(rows, width) for _, rows in groups])
    gains = table.gain[rows] * (np.arange(width) < [[r.size] for _, r in groups])
    z_far = (lattice[rows, 0] - 1j * lattice[rows, 1]) / reach[rows]
    nearest = reach[far].min()
    spans = [
        _translation_span(k * spread, cfg.max_order, k * nearest)
        for (cfg, _), k in zip(bins, wavenumber)
    ]
    # each bin is a block of the sign groups as pseudo-sources, to its own N = M + p
    tops = [n + p for n, p in zip(orders, spans)]
    sums = _graf_coeffs(tops, wavenumber[:, None, None] * reach[rows], z_far, gains)
    beta = np.arctan2(shift[:, 1], shift[:, 0])
    phase = np.exp(1j * np.outer(np.arange(max(spans) + 1), beta))  # u_s^j
    signs = [sign for sign, _ in groups]
    # sources share distances from y (a symmetric layout repeats them), so
    # the J rows are taken once per distinct delta and gathered per source
    dists, which = np.unique(delta, return_inverse=True)
    n_dist = len(dists)
    for run in _translation_runs(spans, n_dist):
        # rows J_j(k delta), j = 0..p, of the run's bins from one J block
        block = specfun._j_block(
            np.repeat([spans[b] for b in run], n_dist), (wavenumber[run, None] * dists).ravel()
        )
        for i, b in enumerate(run):
            n, p = orders[b], spans[b]
            # rows a_j = J_j cos(j beta), j = 0..p, then b_j = J_j sin(j beta),
            # j = 1..p, formed in place
            rows = np.empty((2 * p + 1, n_src))
            np.take(block[: p + 1, i * n_dist : (i + 1) * n_dist], which, axis=1, out=rows[: p + 1])
            np.multiply(rows[1 : p + 1], phase.imag[1 : p + 1], out=rows[p + 1 :])
            np.multiply(rows[: p + 1], phase.real[: p + 1], out=rows[: p + 1])
            far_part = _one_thread_product(_real_fold(sums[b], signs, p), rows)
            out[b].real += far_part[: 2 * n + 1]
            out[b].imag += far_part[2 * n + 1 :]
            # the bin's rows, product and lattice sums go before the next bin's exist
            del rows, far_part
            sums[b] = None
    return out


def _translation_runs(spans, n_dist):
    """The bins in descending span, in runs whose translation rows share a J block.

    A run's block has its first (largest) span + 1 rows and n_dist columns
    per bin (one per distinct source distance), at most
    _TRANSLATION_BLOCK_BYTES unless one bin alone is larger. Descending
    spans give the columns Miller's recurrence in the order it runs them
    (specfun._j_orders_miller), so it sorts none.
    """
    runs = []
    for b in sorted(range(len(spans)), key=lambda b: -spans[b]):
        if runs and 8 * (spans[runs[-1][0]] + 1) * n_dist * (len(runs[-1]) + 1) <= (
            _TRANSLATION_BLOCK_BYTES
        ):
            runs[-1].append(b)
        else:
            runs.append([b])
    return runs


def _one_thread_product(a, b):
    """a @ b of real a and b, as column blocks of b that OpenBLAS runs on one thread.

    A block of w columns costs a.size * w real multiply-adds, at most
    4 * _ONE_THREAD_MACS (w >= 2: a single column would go to gemv, whose
    threshold is lower). The blocks are strided views of b and of the
    result, and the columns a whole block does not cover go in one last
    block that overlaps the one before, so nothing is padded or copied.
    """
    out = np.empty((a.shape[0], b.shape[1]))
    width = max(2, 4 * _ONE_THREAD_MACS // a.size)
    n = b.shape[1]
    full = n - n % width
    if full:
        np.matmul(a, _column_blocks(b[:, :full], width), out=_column_blocks(out[:, :full], width))
    if full < n:
        last = max(n - width, 0)
        np.matmul(a, b[:, last:], out=out[:, last:])
    return out


def _column_blocks(x, width):
    """(n / width, rows, width) view of the column blocks of a (rows, n) array.

    x's columns must have unit stride, so the split is a view.
    """
    return x.reshape(x.shape[0], -1, width).transpose(1, 0, 2)


def _translation_span(x, top, growth):
    """Orders p of the translation rows J_j(x) u^j, |j| <= p, at x = k delta_max.

    Past p = x + 10 x^(1/3) + 12 the rows' tail sum_{j>p} |J_j(x)| is below
    2.2e-18 for every x <= 400 (scipy), so the dropped terms are that much
    of the lattice sums while those stay bounded, up to order k D_far
    (growth, D_far the nearest far image's distance). Past k D_far, A_n
    grows, but A_{m+j} J_j falls by delta_max / D_far <= _FAR_RATIO per
    order, so _GROWTH_ORDERS more orders bring the terms below 1e-17 of
    their size at the growth point.
    """
    p = math.ceil(x + 10.0 * x ** (1.0 / 3.0) + 12.0)
    if top + p > growth:
        p += _GROWTH_ORDERS
    return p


def _real_fold(sums, signs, p):
    """(2 (2M + 1), 2p + 1) real matrix X of the far translation [Re C; Im C] = X [a; b].

    sums is (2 (M + p) + 1, G): each sign group's lattice sums A_{-N..N}.
    With R_j = J_j(k delta) u^j = a_j + i b_j, R_{-j} = (-1)^j conj(R_j)
    gives C = sum_{j>=0} G_j a_j + i H_j b_j. A group of sign (sx, sy) has
    e^{i beta} = sx u if sx = sy, else sx conj(u), and either way adds
    sx^j (A_{m+j} + (-1)^j A_{m-j}) to G_j (A_m alone at j = 0) and
    sx sy sx^j (A_{m+j} - (-1)^j A_{m-j}) to H_j. So G and H read four
    signed sums of the groups' lattice sums (weights 1, sx, sx sy, sy) in
    a forward and a mirrored window: S_1 and S_xy at even j, S_x and S_y
    at odd j. X's columns are G_0..G_p, then i H_1..i H_p.
    """
    sx, sy = np.array(signs).T
    s = sums @ np.array([np.ones_like(sx), sx, sx * sy, sy]).T
    window = np.lib.stride_tricks.sliding_window_view
    fwd = window(s[p:], p + 1, axis=0)  # (2M + 1, 4, p + 1): S_{m+j}
    mirror = window(s[: s.shape[0] - p], p + 1, axis=0)[..., ::-1]  # S_{m-j}
    odd = np.arange(p + 1) % 2 == 1
    g = np.where(odd, fwd[:, 1] - mirror[:, 1], fwd[:, 0] + mirror[:, 0])
    g[:, 0] = fwd[:, 0, 0]
    h = np.where(odd, fwd[:, 3] + mirror[:, 3], fwd[:, 2] - mirror[:, 2])[:, 1:]
    return np.block([[g.real, -h.imag], [g.imag, h.real]])


def _graf_coeffs(orders, kd, z, gains):
    """Graf coefficients of images at k d = kd, e^{-i phi} = z, one matrix per block.

    kd is (B, S, I), B blocks of S sources with I images each, and block
    b's matrix is (2 M_b + 1, S), M_b = orders[b]; z is (S, I), the same in
    every block, and gains broadcasts to it: (I,) for the near images of S
    sources, each bin a block, and (S, I) for the lattice sums, each bin a
    block of its sign groups as pseudo-sources with their own gains
    (_center_coeffs). One Hankel stream, each argument to its own block's
    M_b, serves every block. Per order, the (2, B S I) row [J_m; Y_m],
    viewed as (S, 2B, I) (a transposed view, not a copy), times the float64
    view (S, I, 2) of gz = g z^m gives, per source, the real and imaginary
    parts of a = sum_i g J_m z^m and b = sum_i g Y_m z^m of every block in
    one (S, 2B, 2) product: one contraction per source. While m <= M_b,
    row M_b + m of block b's matrix is a + i b and row M_b - m is
    (-1)^m (conj a + i conj b), both formed for every block at once as
    (B, S) arrays. The Hankel rows stream in one order at a time, so the
    working memory is a few (B, S, I) arrays whatever the order count.
    """
    n_bin, n_src, n_img = kd.shape
    rows = specfun.hankel1_rows(np.reshape(orders, (-1, 1, 1)), kd)
    gz = np.empty_like(z)
    gz[...] = gains
    # the (S, 2B, 2) product, stored (2B, S, 2): each part of a and b is then
    # a (B, S) array of one stride (numpy buffers an operand of two strides)
    parts = np.empty((2 * n_bin, n_src, 2))
    sums = parts.transpose(1, 0, 2)
    (ar, ai), (br, bi) = parts[:n_bin].transpose(2, 0, 1), parts[n_bin:].transpose(2, 0, 1)
    pos = np.empty((n_bin, n_src), dtype=np.complex128)
    neg = np.empty_like(pos)
    out = [np.empty((2 * n + 1, n_src), dtype=np.complex128) for n in orders]
    # zip stops at the last order without exhausting the stream. A block's
    # rows past its own M_b may overflow at its smallest arguments; unused.
    with np.errstate(invalid="ignore", over="ignore"):
        for m, row in zip(range(max(orders) + 1), rows):
            gz_parts = gz.view(np.float64).reshape(n_src, n_img, 2)
            np.matmul(row.reshape(2 * n_bin, n_src, n_img).transpose(1, 0, 2), gz_parts, out=sums)
            # a + i b and conj a + i conj b, part by part
            np.subtract(ar, bi, out=pos.real)
            np.add(ai, br, out=pos.imag)
            np.add(ar, bi, out=neg.real)
            np.subtract(br, ai, out=neg.imag)
            if m % 2:
                np.negative(neg, out=neg)
            for c, n, p, q in zip(out, orders, pos, neg):
                if m <= n:
                    c[n + m] = p
                    c[n - m] = q
            # out of place: numpy takes an in-place product of one element
            # as a reduction, rounded unlike its vector loop (_basis_block)
            gz = gz * z
    for c in out:
        c *= 0.25j
    return out


def _normal_system(coeff_matrix, weight: WeightMatrix, target=None):
    c = np.asarray(coeff_matrix, dtype=np.complex128)
    if c.ndim != 2:
        raise ValueError("coefficient matrix must be 2D")
    w = weight.entries
    if w.shape != (c.shape[0], c.shape[0]):
        raise ValueError("weight matrix size must match coefficient rows")
    with np.errstate(invalid="ignore", over="ignore"):
        wc = w @ c
        gram = c.conj().T @ wc
    gram = 0.5 * (gram + gram.conj().T)
    if target is None:
        return gram, None
    b = np.asarray(target)
    if b.ndim not in (1, 2) or b.shape[0] != c.shape[0]:
        raise ValueError("target rows must match coefficient rows")
    return gram, wc.conj().T @ b


def solve_wmm(coeff_matrix, weight, target, lam: float) -> np.ndarray:
    """Ridge-regularized weighted least squares driving signals.

    d = (C^H W C + lam I)^{-1} C^H W b from numpy's Cholesky factor
    G = L L^H: one solve with L, then one with L^H. lam > 0 keeps the
    system well posed even for rank-deficient C.
    A (K, A) target is A right-hand sides sharing one factorization and
    gives (L, A) drivers, one column per target column.
    """
    return _cholesky_solve(*_normal_system(coeff_matrix, weight, target), lam)


def synthesis_lambda(coeff_matrix, weight, scale: float = 1e-3) -> float:
    """Regularizer proportional to the top eigenvalue of C^H W C.

    Returns 0 for an empty or all-zero system, a regularizer that
    solve_wmm rejects: such a system has no driving signals.
    """
    return _top_lambda(_normal_system(coeff_matrix, weight)[0], scale)


def _scaled_solve(coeff_matrix, weight, target, scale: float) -> np.ndarray:
    """solve_wmm at synthesis_lambda(C, W, scale), bit for bit, from one normal system."""
    gram, rhs = _normal_system(coeff_matrix, weight, target)
    return _cholesky_solve(gram, rhs, _top_lambda(gram, scale))


def _top_lambda(gram, scale: float) -> float:
    return scale * float(np.linalg.eigvalsh(gram)[-1]) if gram.size else 0.0


def _cholesky_solve(gram, rhs, lam):
    """(gram + lam I)^{-1} rhs for solve_wmm; gram is overwritten."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("regularization constant must be positive")
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise ConditioningError("normal equations contain non-finite entries")
    gram[np.diag_indices_from(gram)] += lam
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"normal equations not positive definite: {exc}") from None
    d = np.linalg.solve(chol.conj().T, np.linalg.solve(chol, rhs))
    if not np.all(np.isfinite(d)):
        raise ConditioningError("solution contains non-finite entries")
    return d


def region_grid(region: CircularRegion, spacing: float = 0.01) -> np.ndarray:
    """Uniform Cartesian sample grid clipped to the region disc.

    The grid is centered on the region so output layout depends only on
    (radius, spacing); points arrive in row-major (y then x) order.
    """
    if not (spacing > 0.0 and math.isfinite(spacing)):
        raise ValueError("grid spacing must be positive")
    n = int(math.floor(region.radius / spacing + 1e-9))
    offsets = spacing * np.arange(-n, n + 1)
    xx, yy = np.meshgrid(offsets, offsets, indexing="xy")
    keep = np.hypot(xx, yy) <= region.radius + 1e-12
    return np.c_[region.center.x + xx[keep], region.center.y + yy[keep]]


def _coeff_sdr(energy, cross, gram, coeffs):
    """SDR per column of fields given by their expansion coefficients.

    With a the coefficients (K, A), Gm = conj(B) B^T the Gram of the basis
    over the sample grid, X = conj(B) u_des the desired field's projection
    and E = sum |u_des|^2, the error energy is the quadratic form

        sum |u_des - B^T a|^2 = E - 2 Re X^H a + a^H Gm a,

    so no field is sampled. An error that cancels below zero in rounding
    reads as zero (the cap).
    """
    a = np.asarray(coeffs)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite: rejected below
        err = (
            energy
            - 2.0 * np.sum(cross.conj() * a, axis=0).real
            + np.sum(a.conj() * (gram @ a), axis=0).real
        )
    return _sdr_db(energy, err)


def _sdr_db(signal, error):
    """10 log10(signal / error) in dB per column, capped at SDR_CAP_DB.

    Shared by _coeff_sdr and the grid-domain oracle sdr in tests/oracles.py.
    Non-finite energies (from a non-finite sample or coefficient) and a zero
    signal energy are rejected; an error energy at or below zero gives the
    cap.
    """
    sig = np.asarray(signal, dtype=np.float64)
    err = np.asarray(error, dtype=np.float64)
    if not (np.all(np.isfinite(sig)) and np.all(np.isfinite(err))):
        raise ValueError("fields must be finite; SDR undefined")
    if np.any(sig <= 0.0):
        raise ValueError("desired field has zero energy; SDR undefined")
    with np.errstate(divide="ignore"):
        value = np.minimum(10.0 * np.log10(sig / np.maximum(err, 0.0)), SDR_CAP_DB)
    return float(value) if value.ndim == 0 else value
