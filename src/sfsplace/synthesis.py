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
from .room import RoomModel, _images
from .wavefield import (
    CircularRegion,
    ExpansionConfig,
    ExpansionCoeffs,
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
        if np.linalg.eigvalsh(w)[0] < -1e-10 * max(trace, 1e-300):
            raise ValueError("weight matrix must be positive semidefinite")
        object.__setattr__(self, "entries", w)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def identity_weight(size: int) -> WeightMatrix:
    """Unit weights: plain (unweighted) mode matching, W = I."""
    return WeightMatrix(np.eye(size, dtype=np.complex128))


def _point_gram(cfg: ExpansionConfig, points, freq: Frequency, weights) -> WeightMatrix:
    """Gram matrix of the basis under a point quadrature with the given weights.

    The field of coefficients a at point p is sum_m a_m b_m(p), so
    sum_p w_p |u(p)|^2 = a^H W a with W = conj(B) diag(w) B^T.
    """
    basis = _basis_matrix(cfg, points, freq)
    w = (basis.conj() * weights) @ basis.T
    return WeightMatrix(0.5 * (w + w.conj().T))


def weight_matrix_circle(
    region: CircularRegion, cfg: ExpansionConfig, freq: Frequency
) -> WeightMatrix:
    """Closed-form Gram matrix for a disc concentric with the expansion.

    Angular orthogonality kills every off-diagonal entry and
    W_mm = pi R^2 [J_m(kR)^2 - J_{m-1}(kR) J_{m+1}(kR)].
    """
    return _circle_weights(region, [(cfg, freq)])[0]


def _circle_weights(region: CircularRegion, bins) -> list[WeightMatrix]:
    """weight_matrix_circle of each (cfg, freq) bin, from one J block.

    One bessel_j_orders call covers every bin's J(kR) row up to the
    largest order any bin needs. A bin's values depend on the whole bin
    list (Miller's start follows the top order and the largest argument),
    so weights that must agree bit for bit come from the same list.
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


def source_coeff_matrix(positions, bins, room: RoomModel | None = None) -> list[np.ndarray]:
    """Transfer-function expansion coefficients, one matrix per bin.

    bins holds (cfg, freq) pairs. In each bin's matrix, row m of column s is
    the Graf-theorem coefficient (i/4) H_m^(1)(k d) e^{-i m phi} summed over
    the images of source s (the source alone in free field), (d, phi) being
    the polar coordinates of each image about cfg.center. Sources (and all
    their images) must lie outside each bin's expansion validity disc.

    The image geometry (positions, gains, d and z = e^{-i phi}) depends on
    neither frequency nor order, so one call builds it once and every bin
    about the same center shares it. The phases are never evaluated per
    order: the gain-weighted phase g z^m is raised by repeated
    multiplication. Each order m >= 0 is one real batched matmul of that
    order's [J_m; Y_m] row, streamed from specfun.hankel1_rows and dropped
    once used, against g z^m, so no (orders x sources x images) block is
    ever held. The negative orders reuse the same sums through
    H_{-m} = (-1)^m H_m and e^{i m phi} = conj(z^m).
    """
    pos, gains = _images(positions, room)
    center = None
    out = []
    for cfg, freq in bins:
        if cfg.center != center:
            center = cfg.center
            dx = pos[..., 0] - center[0]
            dy = pos[..., 1] - center[1]
            dist = np.hypot(dx, dy)
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (dx - 1j * dy) / dist  # a zero distance fails the check below
        bad = np.argwhere(dist <= max(cfg.valid_radius, 1e-12))
        if bad.size:
            raise ValueError(
                "source or image at (%.6g, %.6g) lies inside the expansion validity disc"
                % tuple(pos[tuple(bad[0])])
            )
        out.append(_graf_coeffs(cfg.max_order, freq.wavenumber * dist, z, gains))
    return out


def _graf_coeffs(top, kd, z, gains):
    """(2 top + 1, S) Graf coefficients of the images at k d = kd, e^{-i phi} = z.

    Per order, the (2, S I) row [J_m; Y_m] viewed as (S, 2, I) times the
    float64 view (S, I, 2) of gz = g z^m gives, per source, the real and
    imaginary parts of a = sum_i g J_m z^m and b = sum_i g Y_m z^m in one
    (S, 2, 2) product. Row top + m is a + i b and row top - m is
    (-1)^m (conj a + i conj b). The Hankel rows stream in one order at a
    time, so the working memory is a few (S, I) arrays whatever the order
    count.
    """
    n_src, n_img = kd.shape
    rows = specfun.hankel1_rows(top, kd.ravel())
    gz = np.empty_like(z)
    gz[...] = gains
    gz_parts = gz.view(np.float64).reshape(n_src, n_img, 2)
    sums = np.empty((n_src, 2, 2))
    a, b = sums.view(np.complex128)[..., 0].T  # views: sum g J_m z^m, sum g Y_m z^m
    out = np.empty((2 * top + 1, n_src), dtype=np.complex128)
    # zip stops at the last order without exhausting the stream, so the
    # stream's buffers are freed only after the result below is allocated.
    # With glibc they then tend to stay below the result on the heap for the
    # next bin to reuse, instead of being returned to the OS and faulted
    # back in. How well depends on the heap's history (2-core x86, glibc
    # 2.36): in loops of paper broadband run_place these builds took 7 to
    # about 800 minor page faults per operation, a bare repeated 20-bin
    # call 11k to 19k.
    for m, row in zip(range(top + 1), rows):
        np.matmul(row.reshape(2, n_src, n_img).transpose(1, 0, 2), gz_parts, out=sums)
        out[top + m] = a + 1j * b
        out[top - m] = (-1) ** m * (a.conj() + 1j * b.conj())
        gz *= z
    return 0.25j * out


def _normal_system(coeff_matrix, weight, target=None):
    c = np.asarray(coeff_matrix, dtype=np.complex128)
    if c.ndim != 2:
        raise ValueError("coefficient matrix must be 2D")
    w = weight.entries if isinstance(weight, WeightMatrix) else np.asarray(weight)
    if w.shape != (c.shape[0], c.shape[0]):
        raise ValueError("weight matrix size must match coefficient rows")
    with np.errstate(invalid="ignore", over="ignore"):
        wc = w @ c
        gram = c.conj().T @ wc
    gram = 0.5 * (gram + gram.conj().T)
    if target is None:
        return gram, None
    b = np.asarray(target.values if isinstance(target, ExpansionCoeffs) else target)
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
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("regularization constant must be positive")
    gram, rhs = _normal_system(coeff_matrix, weight, target)
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


def synthesis_lambda(coeff_matrix, weight, scale: float = 1e-3) -> float:
    """Regularizer proportional to the top eigenvalue of C^H W C.

    Returns 0 for an empty or all-zero system, a regularizer that
    solve_wmm rejects: such a system has no driving signals.
    """
    gram, _ = _normal_system(coeff_matrix, weight)
    if gram.size == 0:
        return 0.0
    return scale * float(np.linalg.eigvalsh(gram)[-1])


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
