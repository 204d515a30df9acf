"""Cylindrical Bessel functions J_m, Y_m and the outgoing Hankel function H_m^(1).

Integer orders, real positive arguments, float64 throughout. Everything is
built from three classical pieces (see DLMF chapter 10):

* Neumann's expansions of Y_0 and Y_1 in the J_m for the order-0/1 seeds
  of small arguments,
* Hankel's large-argument asymptotic expansion for the seeds of large ones,
* three-term recurrences in the order index: upward recurrence for Y
  always, and for J wherever every order is below the argument
  (x >= limit + 1 for an order limit >= 2), where it is stable; Miller's
  downward recurrence with series normalization for J below that.

Upward J is only as good as its order-0/1 seeds, the same seeds Y recurs
up from, so the [J_m; Y_m] rows stay as accurate as their Y half. The
Hankel rows measured 8.3e-14 relative to scipy, all of it from the
expansion at x >= 17 (1.3e-14 below). J is within 7.6e-14
column-relative of scipy.special.jv for max_order 2..80 and
max_order + 1 <= x <= 2 max_order + 20.

One row stream, _rows, serves both entry points: it yields one order at
a time for an array of arguments, as a (1, n) row [J_m] or a (2, n) row
[J_m; Y_m], so work is vectorized over the arguments and J and Y share
one upward recurrence. hankel1_rows hands the [J_m; Y_m] rows out as
they are to the one caller that needs Hankel functions, the Graf
contraction in synthesis (the near images, and the far images' lattice
sums), which consumes an order and drops it. bessel_j_orders copies the
[J_m] rows into a block of every order for the grid basis, the disc
Gram, the prior's Jacobi-Anger rows, the rim rows of evaluation's
truncation check and the Graf translation rows J_j(k delta), which take
the lattice sums to each source.

Each argument has its own order limit: both entry points take max_order
as an int or an int array broadcasting against x, and run to the
largest. The limit picks the argument's J method (upward from the seeds
where x >= limit + 1, Miller's recurrence below, the two-term series
below 1e-6), and Miller's recurrence starts each column past its own
max(limit, ceil x). An argument's values to its own limit thus depend on
its x and that limit alone, never on the other arguments of the call,
and its rows past that limit are unused. So one call serves many
frequency bins, each to its own order: the Graf build streams every
bin's near images in one call and takes the translation rows of several
bins from one J block.

The order-0/1 seeds come from one of four regimes, picked by each
argument's own x (never by the other arguments of a call):

* x < 17: J_0 and J_1 from Miller's block to order 57 (the two-term
  series below 1e-6), and Y_0 and Y_1 from Neumann's expansions over its
  even and odd orders (_neumann_seeds). One order for every argument keeps
  each seed a function of its own x. The seeds are within 3.7e-15 of
  scipy on max(|ref|, sqrt(2 / (pi x))) over 1e-9 < x < 17;
* x >= 17: Hankel's expansion with the fewest P/Q terms (each, in powers
  of 1/x^2) whose first omitted term is below the float64 floor: 10 terms
  for 17 <= x < 30, 6 for 30 <= x < 60 and 4 for x >= 60. One cos/sin
  pair serves both orders.

The stream computes the seeds once per argument, and the [J_0; Y_0] and
[J_1; Y_1] rows start the recurrence. Each yielded row is patched where
the recurrence does not serve it: J columns that Miller's recurrence or
the tiny-argument series serve, and Y entries past the float64 range
(-inf). The patch goes into the recurrence state itself. That changes
no other value, because every column recurs on its own, a patched J
column is patched again at every order, and a non-finite Y stays
non-finite under the recurrence.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

__all__ = ["bessel_j_orders", "hankel1_rows"]

_EULER_GAMMA = 0.5772156649015329

_TINY_X = 1e-6

_RESCALE = 1e250

# order of Miller's block behind the seeds below x = 17, J_0..J_57: the
# Neumann sums stop at J_57(17) = 6.6e-25, far below the float64 floor
_NEUMANN_TOP = 57
# Hankel expansion terms (P and Q each) of the widest band, 17 <= x < 30
_ASYM_MAX_TERMS = 10


def _build_asym_tables():
    # J_nu ~ amp (P cos w - Q sin w), Y_nu ~ amp (P sin w + Q cos w),
    # P = sum_k (-1)^k a_{2k}/x^{2k}, Q = sum_k (-1)^k a_{2k+1}/x^{2k+1}.
    out = {}
    for nu in (0, 1):
        mu = 4.0 * nu * nu
        c = 1.0
        pc = np.zeros(_ASYM_MAX_TERMS)
        qc = np.zeros(_ASYM_MAX_TERMS)
        pc[0] = 1.0
        for j in range(2 * _ASYM_MAX_TERMS - 1):
            c = c * (mu - (2 * j + 1) ** 2) / (8.0 * (j + 1))
            sign = -1.0 if ((j + 1) // 2) % 2 else 1.0
            if (j + 1) % 2:
                qc[(j + 1) // 2] = sign * c
            else:
                pc[(j + 1) // 2] = sign * c
        out[nu] = (pc, qc)
    return out


_ASYM_TABLES = _build_asym_tables()


def _horner(coeffs, q):
    acc = np.full_like(q, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * q + c
    return acc


def _neumann_seeds(x, want_y, want_one):
    """J0 and J1 from Miller's block to order _NEUMANN_TOP, Y0 and Y1 from Neumann's expansions.

    Y_0 = (2/pi)(ln(x/2) + gamma) J_0 - (4/pi) sum_k (-1)^k J_{2k} / k and
    Y_1 = -Y_0' = (2/pi)((ln(x/2) + gamma) J_1 - J_0 / x)
    + (2/pi) sum_k (-1)^k (J_{2k-1} - J_{2k+1}) / k, k = 1..28 (Abramowitz
    and Stegun 9.1.88 and its derivative). The block has one order limit
    for every argument (_j_fixed: the two-term series below _TINY_X), and
    the sums run elementwise from the top order down, so each value
    depends on its own x alone.
    """
    j = _j_fixed(_NEUMANN_TOP, x)
    j0, j1 = j[0].copy(), j[1].copy()  # no view holds the block past the call
    if not want_y:
        return j0, (j1 if want_one else None), None, None
    s0 = np.zeros_like(x)
    s1 = np.zeros_like(x)
    for k in range(_NEUMANN_TOP // 2, 0, -1):
        s0 += ((-1.0) ** k / k) * j[2 * k]
        s1 += ((-1.0) ** k / k) * (j[2 * k - 1] - j[2 * k + 1])
    log_term = np.log(0.5 * x) + _EULER_GAMMA
    y0 = (2.0 / np.pi) * (log_term * j0 - 2.0 * s0)
    if not want_one:
        return j0, None, y0, None
    y1 = (2.0 / np.pi) * (log_term * j1 - j0 / x + s1)
    return j0, j1, y0, y1


def _asym_seeds(x, want_y, want_one, terms):
    """Hankel's expansion (DLMF 10.17.3) to `terms` P and Q terms each.

    One cos/sin pair serves both orders: with omega_1 = omega_0 - pi/2,
    cos omega_1 = sin omega_0 and sin omega_1 = -cos omega_0.
    """
    amp = np.sqrt(2.0 / (np.pi * x))
    z = 1.0 / (x * x)
    omega = x - np.pi / 4.0
    c, s = np.cos(omega), np.sin(omega)
    pc, qc = _ASYM_TABLES[0]
    p = _horner(pc[:terms], z)
    q = _horner(qc[:terms], z) / x
    j0 = amp * (p * c - q * s)
    y0 = amp * (p * s + q * c) if want_y else None
    if not want_one:
        return j0, None, y0, None
    pc, qc = _ASYM_TABLES[1]
    p = _horner(pc[:terms], z)
    q = _horner(qc[:terms], z) / x
    j1 = amp * (p * s + q * c)
    y1 = amp * (q * s - p * c) if want_y else None
    return j0, j1, y0, y1


# (lower edge, upper edge, seed function) of each regime in the module docstring
_SEED_REGIMES = (
    (0.0, 17.0, _neumann_seeds),
    (17.0, 30.0, partial(_asym_seeds, terms=_ASYM_MAX_TERMS)),
    (30.0, 60.0, partial(_asym_seeds, terms=6)),
    (60.0, math.inf, partial(_asym_seeds, terms=4)),
)


def _seeds(x, want_y, want_one):
    """(J0, J1, Y0, Y1) of a positive 1-d array, None where not wanted.

    Each argument takes the regime of its own x, so a value never depends
    on the other arguments of the call.
    """
    parts = None
    for lo, hi, fn in _SEED_REGIMES:
        mask = (x >= lo) & (x < hi)
        if parts is None and mask.all():
            return fn(x, want_y, want_one)
        if not mask.any():
            continue
        values = fn(x[mask], want_y, want_one)
        if parts is None:
            parts = tuple(None if v is None else np.empty_like(x) for v in values)
        for part, v in zip(parts, values):
            if part is not None:
                part[mask] = v
    return parts


def _j_orders_tiny(top, x):
    """Two-term ascending series; adequate below x = 1e-6, exact at x = 0."""
    out = np.empty((top + 1, x.size))
    half = 0.5 * x
    q = half * half
    r = np.ones_like(x)
    out[0] = 1.0 - q
    for m in range(1, top + 1):
        r = r * half / m
        out[m] = r * (1.0 - q / (m + 1))
    return out


def _j_orders_miller(max_order, x):
    """Downward recurrence normalized by J0 + 2*sum J_{2k} = 1 (DLMF 10.12).

    Each column starts past its own m_top = max(limit, ceil x), limit being
    its entry of max_order (an int or an int array broadcasting against x),
    and joins the one downward loop there, so its values depend on its own
    x and limit alone. The loop works on a prefix of the columns taken in
    descending start; columns that do not come in that order are sorted
    into it, and the block sorted back at the end. The block has rows
    0..max(max_order).
    """
    top = _top(max_order)
    m_top = np.maximum(max_order, np.ceil(x))
    start = (m_top + np.ceil(np.sqrt(40.0 * m_top)) + 12.0).astype(np.int64)
    cols = None
    if np.any(start[1:] > start[:-1]):
        cols = np.argsort(-start, kind="stable")
        x, start = x[cols], start[cols]
    joined = np.searchsorted(-start, -np.arange(start[0], 0, -1), side="right").tolist()
    out = np.zeros((top + 1, x.size))
    norm = np.where(start % 2 == 0, 2.0 * 1e-30, 0.0)
    fprev = fcur = np.empty(0)  # the joined columns' values at orders m + 1 and m
    for m, a in zip(range(int(start[0]), 0, -1), joined):
        if a > fcur.size:  # columns that start at m join at 0 and 1e-30
            fprev = np.concatenate([fprev, np.zeros(a - fcur.size)])
            fcur = np.concatenate([fcur, np.full(a - fcur.size, 1e-30)])
            xs, ns, rows = x[:a], norm[:a], out[:, :a]
        fnext = (2.0 * m / xs) * fcur - fprev
        fprev = fcur
        fcur = fnext
        order = m - 1
        if order <= top:
            rows[order] = fcur
        if order == 0:
            ns += fcur
        elif order % 2 == 0:
            ns += 2.0 * fcur
        big = np.abs(fcur) > _RESCALE
        if big.any():
            fcur[big] *= 1.0 / _RESCALE
            fprev[big] *= 1.0 / _RESCALE
            ns[big] *= 1.0 / _RESCALE
            rows[:, big] *= 1.0 / _RESCALE
    out /= norm
    if cols is None:
        return out
    back = np.empty_like(out)
    back[:, cols] = out
    return back


def _j_seeded(max_order, x):
    """Arguments whose J block recurs upward from the order-0/1 seeds.

    Upward recurrence is stable for J while every order m < x (Gautschi,
    SIAM Rev. 9(1), 1967; DLMF 10.74(iv)), so it serves x >= limit + 1,
    limit being each column's entry of max_order (an int or an int array
    broadcasting against x); below that Miller's recurrence takes over, and
    below _TINY_X the two-term series. Upward J is as good as its seeds,
    the same seeds Y recurs up from (accuracy in the module docstring). The
    rule depends on each x and its limit alone, and hankel1_rows and
    bessel_j_orders share it, so their J values agree bit for bit.
    """
    return x >= np.where(max_order <= 1, _TINY_X, max_order + 1.0)


def _top(max_order) -> int:
    """The largest order limit of an int or an int array."""
    return int(max_order.max(initial=0)) if isinstance(max_order, np.ndarray) else int(max_order)


def _j_fixed(max_order, x):
    """J block of arguments the upward recurrence does not seed.

    The two-term series below _TINY_X, Miller's recurrence above; with no
    tiny argument Miller's block is returned as it is.
    """
    tiny = x < _TINY_X
    if x.size and not tiny.any():
        return _j_orders_miller(max_order, x)
    out = np.empty((_top(max_order) + 1, x.size))
    out[:, tiny] = _j_orders_tiny(out.shape[0] - 1, x[tiny])
    if not tiny.all():
        out[:, ~tiny] = _j_orders_miller(np.broadcast_to(max_order, x.shape)[~tiny], x[~tiny])
    return out


def _as_orders(max_order, shape):
    """max_order as an int, or flat int64 limits broadcast to the arguments' shape.

    Booleans, non-integral or negative limits and a shape that does not
    broadcast raise ValueError."""
    m = np.asarray(max_order)
    ok = m.dtype.kind in "iuf" and np.all(np.isfinite(m) & (m >= 0) & (m == np.floor(m)))
    try:
        m = np.broadcast_to(m, shape) if m.ndim else m
    except ValueError:
        ok = False
    if not ok:
        msg = "max_order must be a nonnegative integer or integer array broadcasting against x"
        raise ValueError("%s, got %r" % (msg, max_order))
    return m.astype(np.int64).ravel() if m.ndim else int(m)


def _rows(max_order, x, want_y):
    """Iterator over the rows of orders 0..max(max_order) at the arguments x.

    x is an array of any shape, taken flat, and max_order an int or an int
    array broadcasting against it: each argument's own order limit. Each
    row is [J_m(x)], shape (1, n), or with want_y [J_m(x); Y_m(x)], shape
    (2, n); x is nonnegative, and positive with want_y (neither is
    checked). An argument's values to its own limit depend on it and that
    limit alone; past the limit its J is unused and may be anything. J's
    fixed block and the seed pass run on the call, before any row is
    requested, so their temporaries are freed before the caller's own
    working arrays exist.
    """
    top = _top(max_order)
    order = np.broadcast_to(max_order, np.shape(x)).ravel()
    x = x.ravel()
    fixed = np.flatnonzero(~_j_seeded(order, x))
    block = _j_fixed(order[fixed], x[fixed]) if fixed.size else None
    seeds = _seeds(x, want_y=want_y, want_one=(top >= 1))
    return _recur(top, x, seeds, fixed, block, 2 if want_y else 1)


def _recur(top, x, seeds, fixed, block, width):
    """Yield rows f_0..f_top by f_{m+1} = (2m/x) f_m - f_{m-1}.

    seeds is (J0, J1, Y0, Y1); row m holds the first `width` of J_m, Y_m.
    A yielded row is the recurrence's state, one of three generations:
    read it, never write it; it is overwritten once the third row after
    it is requested. Each row is patched as the module docstring says, the
    fixed columns' J to the block's last order, their largest limit.
    Non-finite values are expected (upward J outside its seeded columns,
    Y past the float64 range) and warn of nothing. The seeds are dropped
    once rows 0 and 1 hold them, before the third generation exists.
    """
    gens = []
    step = np.empty_like(x)
    for m in range(top + 1):
        if m < 3:
            gens.append(np.empty((width, x.size)))
        row = gens[m % 3]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if m < 2:
                for k in range(width):
                    row[k] = seeds[2 * k + m]
                if m == 1:
                    seeds = None
            else:
                np.divide(2.0 * (m - 1), x, out=step)
                np.multiply(step, gens[(m - 1) % 3], out=row)
                np.subtract(row, gens[(m - 2) % 3], out=row)
            if block is not None and m < block.shape[0]:
                row[0, fixed] = block[m]
            if width == 2 and not math.isfinite(row[1].sum()):
                row[1, ~np.isfinite(row[1])] = -np.inf
        yield row


def bessel_j_orders(max_order, x):
    """J_m(x) for all orders m = 0..max(max_order).

    Parameters
    ----------
    max_order : int >= 0, or an int array broadcasting against x, each
        argument's own order limit (integral floats are accepted)
    x : array_like, nonnegative

    Returns
    -------
    ndarray, shape (max(max_order) + 1,) + shape(x). Each argument's rows
    to its own limit equal its single-argument call at that limit, bit
    for bit; rows past it are unused.
    """
    arr = np.asarray(x, dtype=np.float64)
    order = _as_orders(max_order, arr.shape)
    flat = arr.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("x must be finite")
    if np.any(flat < 0.0):
        raise ValueError("x must be nonnegative")
    if not _j_seeded(order, flat).any():
        out = _j_fixed(order, flat)  # Miller and the tiny series serve every column
    else:
        out = np.empty((_top(order) + 1, flat.size))
        for dest, row in zip(out, _rows(order, flat, want_y=False)):
            dest[...] = row[0]
    return out.reshape(out.shape[:1] + arr.shape)


def hankel1_rows(max_order, x):
    """Iterator over [J_m(x); Y_m(x)] = [Re H_m^(1)(x); Im H_m^(1)(x)], m = 0..max(max_order).

    x is a positive float64 array of any shape, taken flat (not
    validated), and max_order an int or an int array broadcasting against
    it, each argument's own order limit. Each order is one read-only (2, n)
    float row; an argument's J entries to its own limit equal
    bessel_j_orders' at that limit bit for bit, and past it they are
    unused. Entries of Y past the float64 range read -inf. The stream
    holds three row generations and never a block of every order; a row is
    valid until the next is requested. The seed pass runs on the call
    (_rows).
    """
    return _rows(max_order, x, want_y=True)
