"""Rectangular-room reverberation via the 2D image source method.

The room is an axis-aligned rectangle centered on the origin with
frequency-independent real reflection coefficients per wall. Mirror
sources follow the Allen-Berkley construction: with corner coordinates
x' = x + Lx/2, the x-line images sit at 2 n Lx +/- x' and carry
beta_left^|n-q| beta_right^|n| (q = 0 keeps +x', q = 1 flips), and the
same along y; a 2D image is a pair of 1D images with the reflection
counts adding. None of offset 2 n L, sign and gain depends on the
source, so one table per room, up to a total reflection count, places
the images of any number of sources at once. Images of one sign form a
lattice: image i of a source s is image i of any point p shifted by
sign[i] * (s - p). The runtime has one propagation model for them:
synthesis.source_coeff_matrix expands each source's images about the
expansion center with Graf's addition theorem (the far ones of each sign
through that shift), and every field is formed from those coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .wavefield import _as_points

__all__ = ["RoomModel"]


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

    def contains(self, points) -> np.ndarray:
        """Bool array: which of the (n, 2) points lie strictly inside the walls."""
        half = 0.5 * np.array([self.size_x, self.size_y])
        return np.all(np.abs(_as_points(points)) < half, axis=1)


class _ImageTable(NamedTuple):
    """Mirror images of one room, independent of the source position.

    Image i of a source s sits at (offset[i] + sign[i] * (s + half)) - half
    on each axis (half = L/2, L the room size) and carries gain[i] after
    order[i] reflections.
    """

    offset: np.ndarray  # (I, 2) axis offsets 2 n L
    sign: np.ndarray  # (I, 2) +1 keeps, -1 flips the corner coordinate
    gain: np.ndarray  # (I,)
    order: np.ndarray  # (I,)
    half: np.ndarray  # (2,) L/2

    def at(self, points, rows=slice(None)):
        """(P, I, 2) positions of the images (the table's rows) of each point."""
        return (self.offset[rows] + self.sign[rows] * (points[:, None, :] + self.half)) - self.half


# free field as a table: each source is its own single image with unit gain
_FREE_FIELD = _ImageTable(
    np.zeros((1, 2)), np.ones((1, 2)), np.ones(1), np.zeros(1, dtype=int), np.zeros(2)
)


def _axis_images(length, beta_lo, beta_hi, max_count):
    """1D mirror images: (offset, sign, gain, reflection count, n, q) tuples."""
    out = []
    nmax = max_count // 2 + 1
    for n in range(-nmax, nmax + 1):
        for q in (0, 1):
            count = abs(n - q) + abs(n)
            if count > max_count:
                continue
            gain = (beta_lo ** abs(n - q)) * (beta_hi ** abs(n))
            out.append((2.0 * n * length, 1.0 - 2.0 * q, gain, count, n, q))
    return out


def _image_table(room: RoomModel) -> _ImageTable:
    """All images with nonzero gain up to the room's reflection order.

    Rows are ordered by total reflection count first, so the direct source
    is always row 0.
    """
    bl, br, bb, bt = room.reflection
    order = room.max_reflection_order
    rows = []
    for (ox, sx, gx, cx, nx, qx) in _axis_images(room.size_x, bl, br, order):
        for (oy, sy, gy, cy, ny, qy) in _axis_images(room.size_y, bb, bt, order):
            count = cx + cy
            gain = gx * gy
            if count <= order and gain != 0.0:
                rows.append((count, nx, ny, qx, qy, ox, oy, sx, sy, gain))
    rows.sort(key=lambda r: r[:5])
    count, _, _, _, _, ox, oy, sx, sy, gain = zip(*rows)
    return _ImageTable(
        np.column_stack([ox, oy]),
        np.column_stack([sx, sy]),
        np.array(gain),
        np.array(count),
        0.5 * np.array([room.size_x, room.size_y]),
    )


def _source_images(sources, room: RoomModel | None):
    """(sources (S, 2), the image table that places their images).

    In free field the table is the one direct image; in a room every
    source must lie strictly inside it.
    """
    srcs = _as_points(sources)
    if room is None:
        return srcs, _FREE_FIELD
    outside = np.flatnonzero(~room.contains(srcs))
    if outside.size:
        raise ValueError(
            "source %d at (%.6g, %.6g) must lie strictly inside the room"
            % (outside[0], *srcs[outside[0]])
        )
    return srcs, _image_table(room)


def _images(sources, room: RoomModel | None):
    """(positions (S, I, 2), gains (I,)) of the images of every source."""
    srcs, table = _source_images(sources, room)
    return table.at(srcs), table.gain
