"""Least-squares sound field synthesis over a circular control region.

Driving signals minimize the regional squared reproduction error expressed
in the cylindrical-harmonic domain,

    F(d) = (C d - b)^H W (C d - b) + lam ||d||^2,

where columns of C hold source transfer-function expansion coefficients,
b the desired-field coefficients, and W the Gram matrix of the basis
functions over the region. For a disc concentric with the expansion the
Gram matrix is diagonal with entries given by the Bessel integral
int_0^x t J_m(t)^2 dt = (x^2/2)(J_m^2 - J_{m-1} J_{m+1}) (DLMF 10.22.5);
general regions fall back to tensor polar quadrature. Weighting by W is
what makes the coefficient-domain residual track the true regional error,
as opposed to plain mode matching (W = I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import specfun
from .room import RoomModel, _images, transfer_matrix
from .wavefield import (
    CircularRegion,
    ExpansionConfig,
    ExpansionCoeffs,
    Frequency,
    _as_points,
    _basis_matrix,
)

__all__ = [
    "ConditioningError",
    "WeightMatrix",
    "weight_matrix_circle",
    "weight_matrix_quadrature",
    "identity_weight",
    "source_coeff_matrix",
    "solve_wmm",
    "solve_mode_matching",
    "build_pressure_matching",
    "synthesis_lambda",
    "synthesize_field",
    "wmm_residual",
    "region_grid",
    "sdr",
]

SDR_CAP_DB = 300.0


class ConditioningError(Exception):
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
    """Unit weights: plain (unweighted) mode or pressure matching."""
    return WeightMatrix(np.eye(size, dtype=np.complex128))


def weight_matrix_circle(
    region: CircularRegion, cfg: ExpansionConfig, freq: Frequency
) -> WeightMatrix:
    """Closed-form Gram matrix for a disc concentric with the expansion.

    Angular orthogonality kills every off-diagonal entry and
    W_mm = pi R^2 [J_m(kR)^2 - J_{m-1}(kR) J_{m+1}(kR)].
    """
    cx, cy = cfg.center
    if math.hypot(cx - region.center.x, cy - region.center.y) > 1e-12:
        raise ValueError("closed form requires the expansion centered on the region")
    x = freq.wavenumber * region.radius
    j = specfun.bessel_j_orders(cfg.max_order + 1, np.asarray([x]))[:, 0]
    m = np.arange(cfg.max_order + 1)
    jm = j[m]
    jprev = np.where(m >= 1, j[np.maximum(m - 1, 0)], -j[1])  # J_{-1} = -J_1
    jnext = j[m + 1]
    diag_pos = math.pi * region.radius ** 2 * (jm ** 2 - jprev * jnext)
    diag = np.concatenate([diag_pos[:0:-1], diag_pos])  # W_{-m,-m} = W_{m,m}
    return WeightMatrix(np.diag(diag).astype(np.complex128))


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
    basis = _basis_matrix(cfg, pts, freq)
    weights = (wth * np.repeat(wr, n_angular))[None, :]
    w = (basis * weights) @ basis.conj().T
    return WeightMatrix(0.5 * (w + w.conj().T))


def source_coeff_matrix(
    positions, cfg: ExpansionConfig, freq: Frequency, room: RoomModel | None = None
) -> np.ndarray:
    """Transfer-function expansion coefficients, one column per source.

    Row m of column s is the Graf-theorem coefficient (i/4) H_m^(1)(k d)
    e^{-i m phi} summed over the images of source s (the source alone in
    free field), (d, phi) being the polar coordinates of each image about
    cfg.center. Sources (and all their images) must lie outside the
    expansion validity disc.

    The phases are never evaluated per order: z = e^{-i phi} is formed once
    per image and raised order by order (z^m by repeated multiplication),
    and each order m >= 0 is one contraction over the images of the
    gain-weighted Hankel block. The negative orders reuse it through
    H_{-m} = (-1)^m H_m and e^{i m phi} = conj(z^m).
    """
    pos, gains = _images(positions, room)
    cx, cy = cfg.center
    dx = pos[..., 0] - cx
    dy = pos[..., 1] - cy
    dist = np.hypot(dx, dy)
    bad = np.argwhere(dist <= max(cfg.valid_radius, 1e-12))
    if bad.size:
        raise ValueError(
            "source or image at (%.6g, %.6g) lies inside the expansion validity disc"
            % tuple(pos[tuple(bad[0])])
        )
    top = cfg.max_order
    h = specfun.hankel1_orders(top, freq.wavenumber * dist.ravel())
    h = h.reshape((top + 1,) + dist.shape)
    h *= gains
    z = (dx - 1j * dy) / dist
    zm = np.ones_like(z)
    out = np.empty((cfg.size, dist.shape[0]), dtype=np.complex128)
    for m in range(top + 1):
        out[top + m] = np.einsum("si,si->s", h[m], zm)
        out[top - m] = (-1) ** m * np.einsum("si,si->s", h[m], zm.conj())
        zm *= z
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

    d = (C^H W C + lam I)^{-1} C^H W b via a Hermitian positive-definite
    solve; lam > 0 keeps the system well posed even for rank-deficient C.
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
        d = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(f"normal equations not positive definite: {exc}") from None
    if not np.all(np.isfinite(d)):
        raise ConditioningError("solution contains non-finite entries")
    return d


def solve_mode_matching(coeff_matrix, target, lam: float) -> np.ndarray:
    """Unweighted coefficient matching: solve_wmm with W = I."""
    c = np.asarray(coeff_matrix)
    return solve_wmm(c, identity_weight(c.shape[0]), target, lam)


def synthesis_lambda(coeff_matrix, weight, scale: float = 1e-3) -> float:
    """Regularizer proportional to the top eigenvalue of C^H W C.

    Returns 0 for an all-zero system; callers then fall back to their
    selection-stage floor.
    """
    gram, _ = _normal_system(coeff_matrix, weight)
    if gram.size == 0:
        return 0.0
    return scale * float(np.linalg.eigvalsh(gram)[-1])


def wmm_residual(coeff_matrix, weight, target, drivers, lam: float = 0.0) -> float:
    """Regularized weighted residual F(d); the quantity solve_wmm minimizes."""
    c = np.asarray(coeff_matrix, dtype=np.complex128)
    w = weight.entries if isinstance(weight, WeightMatrix) else np.asarray(weight)
    b = np.asarray(target.values if isinstance(target, ExpansionCoeffs) else target)
    d = np.asarray(drivers)
    r = c @ d - b
    val = float((r.conj() @ (w @ r)).real) + lam * float((d.conj() @ d).real)
    return val


def build_pressure_matching(
    control_points, sources, desired, freq: Frequency, room: RoomModel | None = None
):
    """Pressure-matching problem triple (C, W, b) over discrete control points.

    C holds transfer functions source -> control point, b the desired
    pressures (desired is a callable mapping an (n, 2) point array to
    complex samples), and W is the identity; the triple plugs into the
    same solvers and placement costs as the coefficient-domain problem.
    """
    pts = _as_points(control_points)
    c = transfer_matrix(pts, sources, freq, room)
    b = np.asarray(desired(pts), dtype=np.complex128)
    if b.shape != (len(pts),):
        raise ValueError("desired-field evaluator returned a wrong-shaped array")
    return c, identity_weight(len(pts)), b


def synthesize_field(
    sources, drivers, points, freq: Frequency, room: RoomModel | None = None
) -> np.ndarray:
    """Superposed pressure field of driven sources at the given points."""
    srcs = _as_points(sources)
    d = np.asarray(drivers)
    if d.shape != (len(srcs),):
        raise ValueError("one driving signal per source required")
    return transfer_matrix(points, srcs, freq, room) @ d


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


def sdr(u_des, u_syn):
    """Signal-to-distortion ratio in dB over a uniform sample grid.

    10 log10(sum |u_des|^2 / sum |u_des - u_syn|^2), summed over axis 0 and
    capped at 300 dB for a vanishing error: a float for 1-D samples, one
    value per column for (G, A) samples. Non-finite samples and a desired
    column with zero energy are rejected.
    """
    des = np.asarray(u_des)
    syn = np.asarray(u_syn)
    if des.shape != syn.shape:
        raise ValueError("field sample arrays must have equal shape")
    if not (np.all(np.isfinite(des)) and np.all(np.isfinite(syn))):
        raise ValueError("field samples must be finite; SDR undefined")
    sig = np.sum(np.abs(des) ** 2, axis=0)
    if np.any(sig <= 0.0):
        raise ValueError("desired field has zero energy; SDR undefined")
    err = np.sum(np.abs(des - syn) ** 2, axis=0)
    with np.errstate(divide="ignore"):
        value = np.minimum(10.0 * np.log10(sig / err), SDR_CAP_DB)
    return float(value) if value.ndim == 0 else value
