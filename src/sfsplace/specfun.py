"""Cylindrical Bessel functions J_m, Y_m and the outgoing Hankel function H_m^(1).

Integer orders, real positive arguments. Everything is built from three
classical pieces (see DLMF chapter 10):

* ascending series for small arguments (Horner over precomputed tables),
* Hankel's large-argument asymptotic expansion for the order-0/1 seeds,
* three-term recurrences in the order index: Miller's downward recurrence
  with series normalization where the order exceeds the argument, upward
  recurrence (stable for J only when m < x, always for Y) elsewhere.

The order-block functions return all orders 0..max_order at once for an
array of arguments; that layout is what the field-expansion code consumes
and is where vectorization pays off.

The ascending series for Y0/Y1 cancels up to ~7 digits by x = 17, so the
band x in [6, 17) is evaluated in extended precision (np.longdouble); on
x86 that keeps the seeds good to ~1e-12 relative, which the downstream
identity tolerances need.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_j",
    "bessel_y",
    "hankel1",
    "bessel_j_orders",
    "bessel_y_orders",
    "hankel1_orders",
]

_EULER_GAMMA = float(np.longdouble("0.577215664901532860606512090082"))

# Seed regime boundaries. Below _X_DOUBLE the ascending series is safe in
# float64; above _X_ASYM the asymptotic expansion's smallest term is below
# 2e-15; in between the series runs in longdouble.
_X_DOUBLE = 6.0
_X_ASYM = 17.0
_TINY_X = 1e-6

_RESCALE = 1e250

_SERIES_DEG = 64
_DEG_LOW = 30       # enough for x < 6  (q < 9)
_DEG_MID = 58       # enough for x < 17 (q < 72.25)
_ASYM_TERMS = 16    # P/Q polynomial degree in 1/x^2


def _build_series_tables():
    one = np.longdouble(1.0)
    g = np.longdouble("0.577215664901532860606512090082")
    j0 = np.empty(_SERIES_DEG + 1, dtype=np.longdouble)
    j1 = np.empty_like(j0)
    y0 = np.empty_like(j0)
    y1 = np.empty_like(j0)
    u = one            # (-1)^k / (k!)^2
    v = one            # (-1)^k / (k! (k+1)!)
    h = np.longdouble(0.0)
    j0[0] = u
    j1[0] = v
    y0[0] = 0.0
    y1[0] = one - 2.0 * g
    for k in range(1, _SERIES_DEG + 1):
        u = -u / np.longdouble(k * k)
        v = -v / np.longdouble(k * (k + 1))
        h = h + one / np.longdouble(k)
        j0[k] = u
        j1[k] = v
        y0[k] = -h * u
        y1[k] = (2.0 * h + one / np.longdouble(k + 1) - 2.0 * g) * v
    return j0, j1, y0, y1


_J0C, _J1C, _Y0C, _Y1C = _build_series_tables()
_J0C64 = _J0C.astype(np.float64)
_J1C64 = _J1C.astype(np.float64)
_Y0C64 = _Y0C.astype(np.float64)
_Y1C64 = _Y1C.astype(np.float64)


def _build_asym_tables():
    # J_nu ~ amp (P cos w - Q sin w), Y_nu ~ amp (P sin w + Q cos w),
    # P = sum_k (-1)^k a_{2k}/x^{2k}, Q = sum_k (-1)^k a_{2k+1}/x^{2k+1}.
    out = {}
    for nu in (0, 1):
        mu = 4.0 * nu * nu
        c = 1.0
        pc = np.zeros(_ASYM_TERMS)
        qc = np.zeros(_ASYM_TERMS)
        pc[0] = 1.0
        for j in range(2 * _ASYM_TERMS - 1):
            c = c * (mu - (2 * j + 1) ** 2) / (8.0 * (j + 1))
            sign = -1.0 if ((j + 1) // 2) % 2 else 1.0
            if (j + 1) % 2:
                qc[(j + 1) // 2] = sign * c
            else:
                pc[(j + 1) // 2] = sign * c
    # note: table depends on nu; store per nu
        out[nu] = (pc, qc)
    return out


_ASYM_TABLES = _build_asym_tables()


def _horner(coeffs, q):
    acc = np.full_like(q, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * q + c
    return acc


def _series_seeds(x, dtype, deg, want_y, want_one):
    """Ascending series (DLMF 10.2.2, 10.8.1-2) for x below _X_ASYM."""
    xl = x.astype(dtype)
    q = 0.25 * xl * xl
    ld = dtype is np.longdouble
    j0 = _horner((_J0C if ld else _J0C64)[: deg + 1], q)
    half = 0.5 * xl
    j1 = half * _horner((_J1C if ld else _J1C64)[: deg + 1], q) if (want_one or want_y) else None
    if not want_y:
        return (
            j0.astype(np.float64),
            j1.astype(np.float64) if want_one else None,
            None,
            None,
        )
    log_half = np.log(half)
    two_over_pi = 2.0 / np.pi
    y0 = two_over_pi * ((log_half + _EULER_GAMMA) * j0 + _horner((_Y0C if ld else _Y0C64)[: deg + 1], q))
    y1 = None
    if want_one:
        y1s = _horner((_Y1C if ld else _Y1C64)[: deg + 1], q)
        y1 = two_over_pi * (log_half * j1 - 1.0 / xl) - (xl / (2.0 * np.pi)) * y1s
    return (
        j0.astype(np.float64),
        j1.astype(np.float64) if want_one else None,
        y0.astype(np.float64),
        y1.astype(np.float64) if want_one else None,
    )


def _asym_seeds(x, want_y, want_one):
    """Hankel asymptotic expansion (DLMF 10.17.3) for x >= _X_ASYM."""
    amp = np.sqrt(2.0 / (np.pi * x))
    z = 1.0 / (x * x)
    vals = []
    for nu in (0, 1) if want_one else (0,):
        pc, qc = _ASYM_TABLES[nu]
        p = _horner(pc, z)
        q = _horner(qc, z) / x
        omega = x - nu * (np.pi / 2.0) - np.pi / 4.0
        c, s = np.cos(omega), np.sin(omega)
        jv = amp * (p * c - q * s)
        yv = amp * (p * s + q * c) if want_y else None
        vals.append((jv, yv))
    j0, y0 = vals[0]
    j1, y1 = vals[1] if want_one else (None, None)
    return j0, j1, y0, y1


def _seeds(x, want_y, want_one):
    """Order-0/1 values for a positive 1-d array, piecewise by regime."""
    j0 = np.empty_like(x)
    j1 = np.empty_like(x) if want_one else None
    y0 = np.empty_like(x) if want_y else None
    y1 = np.empty_like(x) if (want_y and want_one) else None

    lo = x < _X_DOUBLE
    mid = ~lo & (x < _X_ASYM)
    hi = x >= _X_ASYM
    for mask, fn in (
        (lo, lambda xs: _series_seeds(xs, np.float64, _DEG_LOW, want_y, want_one)),
        (mid, lambda xs: _series_seeds(xs, np.longdouble, _DEG_MID, want_y, want_one)),
        (hi, lambda xs: _asym_seeds(xs, want_y, want_one)),
    ):
        if mask.any():
            a, b, c, d = fn(x[mask])
            j0[mask] = a
            if want_one:
                j1[mask] = b
            if want_y:
                y0[mask] = c
                if want_one:
                    y1[mask] = d
    return j0, j1, y0, y1


def _j_orders_tiny(max_order, x):
    """Two-term ascending series; adequate below x = 1e-6, exact at x = 0."""
    out = np.empty((max_order + 1, x.size))
    half = 0.5 * x
    q = half * half
    r = np.ones_like(x)
    out[0] = 1.0 - q
    for m in range(1, max_order + 1):
        r = r * half / m
        out[m] = r * (1.0 - q / (m + 1))
    return out


def _j_orders_miller(max_order, x):
    """Downward recurrence normalized by J0 + 2*sum J_{2k} = 1 (DLMF 10.12)."""
    n = x.size
    m_top = max(max_order, int(math.ceil(float(x.max()))))
    start = m_top + int(math.ceil(math.sqrt(40.0 * m_top))) + 12
    out = np.zeros((max_order + 1, n))
    fprev = np.zeros(n)                  # value at order start + 1
    fcur = np.full(n, 1e-30)             # arbitrary-scale value at order start
    norm = 2.0 * fcur.copy() if start % 2 == 0 else np.zeros(n)
    for m in range(start, 0, -1):
        fnext = (2.0 * m / x) * fcur - fprev
        fprev = fcur
        fcur = fnext
        order = m - 1
        if order <= max_order:
            out[order] = fcur
        if order == 0:
            norm += fcur
        elif order % 2 == 0:
            norm += 2.0 * fcur
        big = np.abs(fcur) > _RESCALE
        if big.any():
            fcur[big] *= 1.0 / _RESCALE
            fprev[big] *= 1.0 / _RESCALE
            norm[big] *= 1.0 / _RESCALE
            out[:, big] *= 1.0 / _RESCALE
    out /= norm
    return out


def _j_orders_upward(max_order, x, j0, j1):
    out = np.empty((max_order + 1, x.size))
    out[0] = j0
    if max_order >= 1:
        out[1] = j1
    for m in range(1, max_order):
        out[m + 1] = (2.0 * m / x) * out[m] - out[m - 1]
    return out


def _as_positive_array(x, name, allow_zero):
    arr = np.asarray(x, dtype=np.float64)
    flat = np.atleast_1d(arr).ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{name} must be finite")
    if allow_zero:
        if np.any(flat < 0.0):
            raise ValueError(f"{name} must be nonnegative")
    elif np.any(flat <= 0.0):
        raise ValueError(f"{name} must be positive")
    return arr, flat


def bessel_j_orders(max_order, x):
    """J_m(x) for all orders m = 0..max_order.

    Parameters
    ----------
    max_order : int, >= 0
    x : array_like, nonnegative

    Returns
    -------
    ndarray, shape (max_order + 1,) + shape(x)
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    arr, flat = _as_positive_array(x, "x", allow_zero=True)
    out = np.empty((max_order + 1, flat.size))
    tiny = flat < _TINY_X
    if tiny.any():
        out[:, tiny] = _j_orders_tiny(max_order, flat[tiny])
    rest = ~tiny
    if rest.any():
        xr = flat[rest]
        if max_order <= 1:
            j0, j1, _, _ = _seeds(xr, want_y=False, want_one=(max_order == 1))
            sub = np.empty((max_order + 1, xr.size))
            sub[0] = j0
            if max_order == 1:
                sub[1] = j1
            out[:, rest] = sub
        else:
            split = 2.0 * max_order + 20.0
            low = xr < split
            cols = np.where(rest)[0]
            if low.any():
                out[:, cols[low]] = _j_orders_miller(max_order, xr[low])
            high = ~low
            if high.any():
                xh = xr[high]
                j0, j1, _, _ = _seeds(xh, want_y=False, want_one=True)
                out[:, cols[high]] = _j_orders_upward(max_order, xh, j0, j1)
    return out.reshape((max_order + 1,) + arr.shape)


def bessel_y_orders(max_order, x):
    """Y_m(x) for all orders m = 0..max_order; x must be strictly positive.

    Entries whose true magnitude exceeds the float64 range come back as -inf.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    arr, flat = _as_positive_array(x, "x", allow_zero=False)
    _, _, y0, y1 = _seeds(flat, want_y=True, want_one=(max_order >= 1))
    out = np.empty((max_order + 1, flat.size))
    out[0] = y0
    if max_order >= 1:
        out[1] = y1
    with np.errstate(invalid="ignore", over="ignore"):
        for m in range(1, max_order):
            out[m + 1] = (2.0 * m / flat) * out[m] - out[m - 1]
    bad = ~np.isfinite(out)
    if bad.any():
        out[np.maximum.accumulate(bad, axis=0)] = -np.inf
    return out.reshape((max_order + 1,) + arr.shape)


def hankel1_orders(max_order, x):
    """H_m^(1)(x) = J_m(x) + i Y_m(x) for orders 0..max_order; x > 0."""
    if max_order <= 1:
        # fast path for field grids: one piecewise pass computes both parts
        arr, flat = _as_positive_array(x, "x", allow_zero=False)
        j0, j1, y0, y1 = _seeds(flat, want_y=True, want_one=(max_order == 1))
        out = np.empty((max_order + 1, flat.size), dtype=np.complex128)
        out[0] = j0 + 1j * y0
        if max_order == 1:
            out[1] = j1 + 1j * y1
        return out.reshape((max_order + 1,) + arr.shape)
    j = bessel_j_orders(max_order, x)
    out = np.empty(j.shape, dtype=np.complex128)
    out.real = j
    out.imag = bessel_y_orders(max_order, x)
    return out


def _scalar_series_j(m, x):
    # sum_k (-1)^k (x/2)^(m+2k) / (k! (m+k)!), log-scaled leading factor
    lead = m * math.log(0.5 * x) - math.lgamma(m + 1)
    if lead < -745.0:
        return 0.0
    t = math.exp(lead)
    q = 0.25 * x * x
    acc = t
    for k in range(1, 10):
        t *= -q / (k * (m + k))
        acc += t
    return acc


def _check_order(order):
    idx = int(order)
    if idx != order:
        raise ValueError("order must be an integer")
    return idx


def _check_scalar_x(x):
    if isinstance(x, complex) or not math.isfinite(float(x)):
        raise ValueError("x must be a finite real number")
    return float(x)


def bessel_j(order, x):
    """Bessel function of the first kind, integer order, x >= 0.

    Negative orders use the reflection J_{-m} = (-1)^m J_m.
    """
    order = _check_order(order)
    x = _check_scalar_x(x)
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    m = abs(order)
    if x == 0.0:
        val = 1.0 if m == 0 else 0.0
    elif x < 0.5:
        val = _scalar_series_j(m, x)
    else:
        val = float(bessel_j_orders(m, np.asarray([x]))[m, 0])
    if order < 0 and m % 2:
        val = -val
    return float(val)


def bessel_y(order, x):
    """Bessel function of the second kind, integer order, x > 0.

    Negative orders use the reflection Y_{-m} = (-1)^m Y_m.
    """
    order = _check_order(order)
    x = _check_scalar_x(x)
    if x <= 0.0:
        raise ValueError("x must be positive")
    m = abs(order)
    val = float(bessel_y_orders(m, np.asarray([x]))[m, 0])
    if order < 0 and m % 2:
        val = -val
    return val


def hankel1(order, x):
    """Outgoing Hankel function H_m^(1)(x) = J_m(x) + i Y_m(x), x > 0."""
    return complex(bessel_j(order, x) + 1j * bessel_y(order, x))
