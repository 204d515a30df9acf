"""Rectangular-room reverberation via the 2D image source method.

The room is an axis-aligned rectangle centered on the origin with
frequency-independent real reflection coefficients per wall. Mirror
sources follow the Allen-Berkley construction: with corner coordinates
x' = x + Lx/2, the x-line images sit at 2 n Lx +/- x' and carry
beta_left^|n-q| beta_right^|n| (q = 0 keeps +x', q = 1 flips), and the
same along y; a 2D image is a pair of 1D images with the reflection
counts adding. Images are enumerated up to a total reflection count and
summed in the frequency domain against (i/4) H_0^(1)(k d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import specfun
from .wavefield import (
    ExpansionCoeffs,
    ExpansionConfig,
    Frequency,
    Point2,
    _alt_sign,
    _as_points,
    _as_xy,
)

__all__ = [
    "RoomModel",
    "ImageSource",
    "image_sources",
    "room_transfer",
    "room_transfer_many",
    "room_transfer_coeffs",
    "transfer_matrix",
]


@dataclass(frozen=True)
class RoomModel:
    """Axis-aligned rectangular room centered on the origin.

    reflection holds (left, right, bottom, top) wall coefficients in [0, 1].
    """

    size_x: float
    size_y: float
    reflection: tuple[float, float, float, float]
    max_reflection_order: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.size_x) and self.size_x > 0.0):
            raise ValueError("size_x must be positive")
        if not (math.isfinite(self.size_y) and self.size_y > 0.0):
            raise ValueError("size_y must be positive")
        refl = tuple(float(b) for b in self.reflection)
        if len(refl) != 4:
            raise ValueError("reflection must have four wall coefficients")
        if any(not (0.0 <= b <= 1.0) for b in refl):
            raise ValueError("reflection coefficients must lie in [0, 1]")
        object.__setattr__(self, "reflection", refl)
        if int(self.max_reflection_order) != self.max_reflection_order or self.max_reflection_order < 0:
            raise ValueError("max_reflection_order must be a nonnegative integer")
        object.__setattr__(self, "max_reflection_order", int(self.max_reflection_order))

    @classmethod
    def uniform(cls, size_x, size_y, reflection, max_reflection_order=10):
        """All four walls share one reflection coefficient."""
        return cls(size_x, size_y, (reflection,) * 4, max_reflection_order)

    def contains(self, point) -> bool:
        x, y = _as_xy(point)
        return abs(x) < 0.5 * self.size_x and abs(y) < 0.5 * self.size_y


@dataclass(frozen=True)
class ImageSource:
    position: Point2
    gain: float
    order: int


def _axis_images(coord, length, beta_lo, beta_hi, max_count):
    """1D mirror images: (position, gain, reflection count) triples."""
    out = []
    nmax = max_count // 2 + 1
    for n in range(-nmax, nmax + 1):
        for q in (0, 1):
            count = abs(n - q) + abs(n)
            if count > max_count:
                continue
            gain = (beta_lo ** abs(n - q)) * (beta_hi ** abs(n))
            pos = 2.0 * n * length + (coord if q == 0 else -coord)
            out.append((pos, gain, count, n, q))
    return out


def image_sources(room: RoomModel, source) -> list[ImageSource]:
    """All mirror images with nonzero gain up to the room's reflection order.

    The list is deterministically ordered: by total reflection count first,
    so the direct source is always element 0.
    """
    sx, sy = _as_xy(source)
    if not room.contains((sx, sy)):
        raise ValueError("source must lie strictly inside the room")
    bl, br, bb, bt = room.reflection
    order = room.max_reflection_order
    xi = _axis_images(sx + 0.5 * room.size_x, room.size_x, bl, br, order)
    yi = _axis_images(sy + 0.5 * room.size_y, room.size_y, bb, bt, order)
    items = []
    for (px, gx, cx, nx, qx) in xi:
        for (py, gy, cy, ny, qy) in yi:
            count = cx + cy
            if count > order:
                continue
            gain = gx * gy
            if gain == 0.0:
                continue
            items.append((count, nx, ny, qx, qy, px, py, gain))
    items.sort(key=lambda t: t[:5])
    return [
        ImageSource(Point2(px - 0.5 * room.size_x, py - 0.5 * room.size_y), gain, count)
        for (count, nx, ny, qx, qy, px, py, gain) in items
    ]


def _image_arrays(room: RoomModel, source):
    imgs = image_sources(room, source)
    pos = np.array([[im.position.x, im.position.y] for im in imgs])
    gain = np.array([im.gain for im in imgs])
    return pos, gain


# Hankel arguments per block of sources in transfer_matrix (at least one
# source per block): keeps the (points x sources x images) work arrays at a
# few MB however many sources a call holds.
_TRANSFER_BLOCK = 1 << 18


def transfer_matrix(points, sources, freq: Frequency, room: RoomModel | None = None) -> np.ndarray:
    """(n_points, n_sources) transfer functions, free field or reverberant.

    Entry (p, s) is the sum over the images of source s (the source alone
    in free field) of gain * (i/4) H_0^(1)(k |point_p - image|), with
    sources processed in blocks so the work arrays stay bounded.
    """
    pts = _as_points(points)
    srcs = _as_points(sources)
    if room is None:
        pos = srcs[:, None, :]
        gain = np.ones((len(srcs), 1))
    else:
        tables = [_image_arrays(room, s) for s in srcs]
        pos = np.stack([t[0] for t in tables])
        gain = np.stack([t[1] for t in tables])
    per_source = len(pts) * pos.shape[1]
    step = max(1, _TRANSFER_BLOCK // max(per_source, 1))
    out = np.empty((len(pts), len(srcs)), dtype=np.complex128)
    for lo in range(0, len(srcs), step):
        blk = pos[lo:lo + step]
        d = np.hypot(
            pts[:, 0][:, None, None] - blk[None, :, :, 0],
            pts[:, 1][:, None, None] - blk[None, :, :, 1],
        )
        if np.any(d < 1e-12):
            raise ValueError("a receiver point coincides with a source or an image")
        h0 = specfun.hankel1_orders(0, freq.wavenumber * d.ravel())[0].reshape(d.shape)
        out[:, lo:lo + step] = 0.25j * np.einsum("psi,si->ps", h0, gain[lo:lo + step])
    return out


def room_transfer_many(room: RoomModel, points, source, freq: Frequency) -> np.ndarray:
    """Reverberant transfer function at an (n, 2) array of receiver points."""
    return transfer_matrix(points, [_as_xy(source)], freq, room)[:, 0]


def room_transfer(room: RoomModel, receiver, source, freq: Frequency) -> complex:
    """Reverberant transfer function between two points inside the room."""
    rx, ry = _as_xy(receiver)
    return complex(room_transfer_many(room, np.array([[rx, ry]]), source, freq)[0])


def room_transfer_coeffs(
    room: RoomModel, source, cfg: ExpansionConfig, freq: Frequency
) -> ExpansionCoeffs:
    """Interior expansion coefficients of the reverberant field.

    Sums the Graf-theorem coefficients of every mirror image; each image
    must lie outside the expansion validity disc.
    """
    pos, gain = _image_arrays(room, source)
    cx, cy = cfg.center
    dx = pos[:, 0] - cx
    dy = pos[:, 1] - cy
    dist = np.hypot(dx, dy)
    if cfg.valid_radius > 0.0:
        bad = np.flatnonzero(dist <= cfg.valid_radius)
        if bad.size:
            raise ValueError(
                "image source at (%.6g, %.6g) lies inside the expansion validity disc"
                % (pos[bad[0], 0], pos[bad[0], 1])
            )
    elif np.any(dist < 1e-12):
        raise ValueError("an image source coincides with the expansion center")
    phi = np.arctan2(dy, dx)
    m = cfg.orders
    h_pos = specfun.hankel1_orders(cfg.max_order, freq.wavenumber * dist)  # (M+1, n_img)
    h_full = _alt_sign(np.abs(m))[:, None] * h_pos[np.abs(m), :]
    nonneg = m >= 0
    h_full[nonneg] = h_pos[m[nonneg], :]
    vals = 0.25j * ((h_full * np.exp(-1j * np.outer(m, phi))) @ gain)
    return ExpansionCoeffs(vals, cfg)
