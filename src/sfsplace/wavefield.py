"""2D wave fields and their cylindrical-harmonic expansions.

Conventions (time dependence exp(-i w t)):

* free-field Green's function of a line source: G(r | r_s) = (i/4) H_0^(1)(k |r - r_s|)
* plane wave with propagation angle phi: u(r) = A exp(i k (cos phi, sin phi) . r)
* interior expansion about a center c: u(r) = sum_m a_m J_m(k r') exp(i m phi'),
  with (r', phi') polar coordinates of r - c.

Fields live in the coefficient domain. Plane-wave coefficients follow
from the Jacobi-Anger identity; exterior point sources and their room
images are expanded with Graf's addition theorem by
synthesis.source_coeff_matrix (valid strictly inside the source
distance), which is the one propagation model of the package. A field
is sampled only where a grid needs it, as basis.T @ coefficients for the
basis J_m(k r') e^{i m phi'} of its points: in field dumps, and over the
one wedge of a square lattice grid from which synthesis._lattice_gram
sums the grid's Gram. _basis_blocks builds that basis a block of points
at a time from one Bessel call over the points' distinct radii;
_basis_matrix is its one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import math

import numpy as np

from . import specfun

__all__ = [
    "Point2",
    "Frequency",
    "CircularRegion",
    "ExpansionConfig",
    "truncation_order",
    "expansion_for",
    "planewave_coeffs",
]


class Point2(NamedTuple):
    x: float
    y: float


def _as_xy(p):
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (2,):
        raise ValueError("expected a 2D point")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return float(arr[0]), float(arr[1])


def _as_points(points):
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected an (n, 2) array of points")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class Frequency:
    """Single temporal frequency; wavenumber derives from the sound speed."""

    hz: float
    sound_speed: float = 343.0

    def __post_init__(self):
        if not (math.isfinite(self.hz) and self.hz > 0.0):
            raise ValueError("hz must be positive and finite")
        if not (math.isfinite(self.sound_speed) and self.sound_speed > 0.0):
            raise ValueError("sound_speed must be positive and finite")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.hz

    @property
    def wavenumber(self) -> float:
        return self.omega / self.sound_speed


@dataclass(frozen=True)
class CircularRegion:
    """Disc-shaped target region."""

    center: Point2
    radius: float

    def __post_init__(self):
        cx, cy = _as_xy(self.center)
        object.__setattr__(self, "center", Point2(cx, cy))
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be positive and finite")


@dataclass(frozen=True)
class ExpansionConfig:
    """Truncated interior expansion: orders -max_order..max_order about center.

    valid_radius documents the disc the truncation is calibrated for;
    0 means unchecked. Exterior sources must lie outside that disc.
    """

    max_order: int
    center: Point2
    valid_radius: float = 0.0

    def __post_init__(self):
        if int(self.max_order) != self.max_order or self.max_order < 0:
            raise ValueError("max_order must be a nonnegative integer")
        object.__setattr__(self, "max_order", int(self.max_order))
        cx, cy = _as_xy(self.center)
        object.__setattr__(self, "center", Point2(cx, cy))
        if not (math.isfinite(self.valid_radius) and self.valid_radius >= 0.0):
            raise ValueError("valid_radius must be nonnegative")

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.max_order, self.max_order + 1)

    @property
    def size(self) -> int:
        return 2 * self.max_order + 1


def truncation_order(freq: Frequency, region: CircularRegion) -> int:
    """Expansion order M = ceil(k R) + 10 for a disc of radius R."""
    return int(math.ceil(freq.wavenumber * region.radius)) + 10


def expansion_for(region: CircularRegion, freq: Frequency) -> ExpansionConfig:
    """ExpansionConfig centered on the region with the standard order rule."""
    return ExpansionConfig(
        max_order=truncation_order(freq, region),
        center=region.center,
        valid_radius=region.radius,
    )


_IPOW = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def _ipow(m):
    # exact i**m for integer arrays (avoids cos/sin roundoff at multiples of pi/2)
    return _IPOW[np.mod(m, 4)]


def planewave_coeffs(cfg: ExpansionConfig, freq: Frequency, directions, amplitude=1.0 + 0.0j):
    """Expansion coefficients (2M+1, A) of plane waves, one column per direction (rad).

    Jacobi-Anger: a_m = A i^m exp(-i m phi) exp(i k_vec . center), so
    |a_m| = |A| for every m.
    """
    k = freq.wavenumber
    m = cfg.orders
    cx, cy = cfg.center
    phase = [math.cos(phi) * cx + math.sin(phi) * cy for phi in directions]
    center_phase = np.exp(1j * k * np.array(phase))
    turn = np.exp((-1j * m)[:, None] * np.asarray(directions, dtype=np.float64))
    return (amplitude * _ipow(m))[:, None] * turn * center_phase


def _basis_matrix(cfg: ExpansionConfig, pts: np.ndarray, freq: Frequency) -> np.ndarray:
    """J_m(k r') e^{i m phi'} for all orders x points, shape (2M+1, n).

    The one-block case of _basis_blocks, equal to its blocks bit for bit.
    """
    (basis,) = _basis_blocks(cfg, pts, freq, max(len(pts), 1))
    return basis


def _basis_blocks(cfg: ExpansionConfig, pts: np.ndarray, freq: Frequency, block: int):
    """Yield _basis_matrix's column blocks of at most block (>= 1) points, in order.

    One bessel_j_orders call covers the distinct radii r' of all the
    points (a square grid about the center repeats most of them); a J
    value depends on its argument and order limit alone, so each point's
    column equals a one-point build bit for bit (_basis_block). Only a
    point-source field dump's desired field takes several blocks; other
    dumps and the lattice Gram's wedge take the one-block case.
    """
    cx, cy = cfg.center
    dx = pts[:, 0] - cx
    dy = pts[:, 1] - cy
    radii, which = np.unique(np.hypot(dx, dy), return_inverse=True)
    j_all = specfun.bessel_j_orders(cfg.max_order, freq.wavenumber * radii)
    w_all = np.exp(1j * np.arctan2(dy, dx))
    for start in range(0, max(len(w_all), 1), block):  # no points: one empty block
        cols = slice(start, start + block)
        # built in a call, so the generator holds no block while the next is built
        yield _basis_block(j_all[:, which[cols]], w_all[cols])


def _basis_block(j, w):
    """Basis columns (2M+1, n) from the rows J_0..J_M (M+1, n) and w = e^{i phi'} (n,).

    w^m is stepped by multiplication, and J_{-m} = (-1)^m J_m fills row
    M-m from the same order: no full-size temporary beside the block. The
    step is not in place: numpy takes an in-place product of one element
    as a reduction, rounded differently from its vector loop, and a
    one-point block would then differ from the same point in a wider one.
    """
    top = j.shape[0] - 1
    wm = np.ones_like(w)
    out = np.empty((2 * top + 1, len(w)), dtype=np.complex128)
    for m in range(top + 1):
        out[top + m] = j[m] * wm
        out[top - m] = (-1) ** m * j[m] * wm.conj()
        wm = wm * w
    return out
