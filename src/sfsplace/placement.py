"""Greedy secondary-source placement minimizing expected synthesis error.

The cost of a candidate subset S is the expected regularized regional
reproduction error over a statistical prior of desired fields,

    J(S) = E_b[ min_d (C_S d - b)^H W (C_S d - b) + lam ||d||^2 ]
         = tr(Q_S R),   Q_S = W - W C_S (C_S^H W C_S + lam I)^{-1} C_S^H W,

with R = Sigma + mu mu^H the second moment of the prior on the desired-field
coefficients b. Only (mu, Sigma) enter J, so any two-moment-matched
distribution gives the same cost. Greedy selection keeps, per frequency
bin, the residual Q_S (K x K) and two real quadratic forms per candidate
column c_n, num_n = z_n^H R z_n and den_n = c_n^H z_n with z_n = Q_S c_n.
Adding candidate c changes J by -num_c / (lam + den_c). A pick is one
rank-one update of Q_S, and both forms follow from one (2, K) @ (K, N)
product with C (two matrix-vector products for a large C): each step
costs O(K^2 + K N) per bin, the state holds no K x N array besides C,
and the denominator never falls below lam. One SelectionState holds
every bin of a problem, its forms as (bins x N) arrays, so a broadband
pick loops over bins only for the O(K^2) work and the product; the form
updates, the gamma-weighted sum and the tie screen run once over all
bins. The forms drift from their direct values faster than Q_S does, so
near-best candidates are re-costed from Q_S before a tie goes to the
lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .synthesis import _ONE_THREAD_MACS, WeightMatrix
from .wavefield import (
    CircularRegion,
    ExpansionConfig,
    Frequency,
    _as_points,
    _ipow,
)
from . import specfun

__all__ = [
    "FieldPrior",
    "DirectionRangePrior",
    "prior_from_direction_range",
    "SelectionState",
    "placement_cost",
    "state_cost",
    "candidate_deltas",
    "add_candidate",
    "PlacementResult",
    "FrequencyProblem",
    "BroadbandSpec",
    "greedy_place_broadband",
    "broadband_cost",
    "regular_placement_a",
    "regular_placement_b",
]


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------------------
# desired-field priors


@dataclass(frozen=True)
class FieldPrior:
    """First two moments of the desired-field expansion coefficients."""

    mean: np.ndarray
    covariance: np.ndarray
    second_moment: np.ndarray | None = None

    def __post_init__(self):
        mu = np.ascontiguousarray(self.mean, dtype=np.complex128)
        sig = np.ascontiguousarray(self.covariance, dtype=np.complex128)
        if mu.ndim != 1 or sig.shape != (mu.size, mu.size):
            raise ValueError("covariance shape must match the mean length")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sig))):
            raise ValueError("prior moments must be finite")
        scale = max(float(np.max(np.abs(sig))), float(np.max(np.abs(mu))) ** 2, 1e-300)
        if np.max(np.abs(sig - sig.conj().T)) > 1e-12 * scale:
            raise ValueError("covariance must be Hermitian")
        # near-degenerate priors: judge negativity against the overall
        # moment scale, not the (possibly vanishing) covariance trace
        if np.linalg.eigvalsh(sig)[0] < -1e-10 * scale:
            raise ValueError("covariance must be positive semidefinite")
        r = self.second_moment
        if r is None:
            r = sig + np.outer(mu, mu.conj())
        else:
            r = np.ascontiguousarray(r, dtype=np.complex128)
            if np.max(np.abs(r - (sig + np.outer(mu, mu.conj())))) > 1e-12 * scale:
                raise ValueError("second moment inconsistent with mean and covariance")
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "covariance", sig)
        object.__setattr__(self, "second_moment", _hermitize(r))

    @classmethod
    def fixed_field(cls, coeffs) -> "FieldPrior":
        """Point-mass prior: one known desired field, zero covariance."""
        b = np.asarray(coeffs)
        return cls(b, np.zeros((b.size, b.size), dtype=np.complex128))

    @property
    def size(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class DirectionRangePrior:
    """Plane-wave desired field with direction uniform on [angle_min, angle_max]."""

    angle_min: float
    angle_max: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not (math.isfinite(self.angle_min) and math.isfinite(self.angle_max)):
            raise ValueError("angle range must be finite")
        if not self.angle_min < self.angle_max:
            raise ValueError("angle_min must be strictly below angle_max")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    @property
    def width(self) -> float:
        return self.angle_max - self.angle_min

    @property
    def mean_angle(self) -> float:
        return 0.5 * (self.angle_min + self.angle_max)


def _interval_phase_mean(q, lo: float, hi: float) -> np.ndarray:
    """(1/(hi-lo)) * int_lo^hi e^{-j q phi} dphi for integer arrays q.

    Written as e^{-j q mid} sinc(q w / 2) so narrow intervals do not
    cancel catastrophically.
    """
    q = np.asarray(q, dtype=np.float64)
    half = 0.5 * (hi - lo)
    return np.exp(-1j * q * (0.5 * (lo + hi))) * np.sinc(q * half / np.pi)


def prior_from_direction_range(p: DirectionRangePrior, bins) -> list[FieldPrior]:
    """Closed-form moments of plane-wave coefficients over a direction range,
    one prior per (cfg, freq) bin.

    The phase-average integrals reduce to elementary exponentials; a
    non-origin expansion center additionally mixes in a Jacobi-Anger
    series of the center phase factor e^{j k . center} (DLMF 10.12.2),
    truncated well past its k*|center| transition. The second moment is
    center-independent because the center phase has unit modulus.

    One bessel_j_orders call gives the Jacobi-Anger rows J_q(k rho) of
    every bin with an off-origin center, to the largest truncation any of
    them needs; a column's values depend on its own argument and that top
    order. The phase means and powers of i depend only on an integer
    difference of orders, so one table over the largest difference of the
    call serves every bin.
    """
    lo, hi = p.angle_min, p.angle_max
    amp = complex(p.amplitude)
    rho = [math.hypot(*cfg.center) for cfg, _ in bins]
    off = [r >= 1e-15 for r in rho]
    k_rho = np.array([freq.wavenumber * r for (_, freq), r in zip(bins, rho)])
    tops = [int(math.ceil(x)) + 20 for x in k_rho]
    if any(off):
        # a centered bin's column takes the tiny-argument series, unused,
        # and moves no other column
        j_all = specfun.bessel_j_orders(max(t for t, o in zip(tops, off) if o), k_rho)
    # |m - n| <= 2 M within a bin's moments, |m - q| <= M + T against its
    # Jacobi-Anger rows; both tables are read at index reach + difference
    reach = max(
        cfg.max_order + max(cfg.max_order, t if o else 0) for (cfg, _), t, o in zip(bins, tops, off)
    )
    diff = np.arange(-reach, reach + 1)
    mean_of, ipow_of = _interval_phase_mean(diff, lo, hi), _ipow(diff)
    out = []
    for b, (cfg, _) in enumerate(bins):
        m = reach + cfg.orders
        if not off[b]:
            mu = amp * ipow_of[m] * mean_of[m]
        else:
            q = np.arange(-tops[b], tops[b] + 1)
            a = np.abs(q)
            j_q = np.where(q < 0, (-1.0) ** a, 1.0) * j_all[a, b]  # J_{-n} = (-1)^n J_n
            phi_c = math.atan2(cfg.center[1], cfg.center[0])
            weights = ipow_of[reach + q] * j_q * np.exp(-1j * q * phi_c)
            mu = amp * ipow_of[m] * (mean_of[m[:, None] - q[None, :]] @ weights)
        d = m[:, None] - m[None, :] + reach
        r = (abs(amp) ** 2) * ipow_of[d] * mean_of[d]
        sigma = _hermitize(r - np.outer(mu, mu.conj()))
        out.append(FieldPrior(mu, sigma, second_moment=_hermitize(r)))
    return out


# ---------------------------------------------------------------------------
# selection state and cost

# Decreases within this fraction of the best one count as tied, so the
# lowest index wins even when the last bit of rounding splits an exact tie
# (mirror-image candidates under a mirror-symmetric prior). It is applied
# to decreases recomputed directly from Q_S, never to the incremental ones.
TIE_RTOL = 1e-12

# The incremental forms drift from their direct values (1.8e-10 of the
# best decrease over 100 picks of freefield-n4000, far more at a pick that
# collapses every decrease). Greedy re-costs every candidate within this
# fraction of the best incremental decrease from Q_S before TIE_RTOL
# decides, and candidate_deltas rebuilds the forms when the leading
# candidate drifts past a tenth of it.
SCREEN_RTOL = 1e-8

# Largest block of Q_S C (and of R Q_S C) formed while the forms are built
# from Q_S, so a state never holds a K x N array besides C.
BUILD_BLOCK_BYTES = 256 * 1024


def _real_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_k conj(a_kn) b_kn per column of two complex arrays.

    Reads the float64 views (K x 2N, re/im interleaved), so no conjugate
    copy is made; each array's last axis must be contiguous.
    """
    t = np.einsum("kn,kn->n", a.view(np.float64), b.view(np.float64))
    return t[0::2] + t[1::2]


def _forms(q: np.ndarray, r: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z^H R z, c^H z) per column c of cols, z = Q c, by direct products."""
    z = q @ cols
    return _real_inner(z, r @ z), _real_inner(cols, z)


def _gain(num, den, lam: float):
    """-Delta = num / (lam + den), both forms clipped at zero (PSD)."""
    return np.maximum(num, 0.0) / (lam + np.maximum(den, 0.0))


@dataclass(eq=False)
class SelectionState:
    """Greedy-selection state of a whole problem in residual form, updated in place.

    One state serves every frequency bin b of a problem (B = 1 for a
    single frequency). Bin b keeps its own coeff[b] = C_b (K_b x N),
    second_moment[b] = R_b and q[b] = Q_S,b (K_b x K_b); gamma holds the
    bins' weights. num and den are (B, N) arrays of the two real quadratic
    forms the cost change reads, per bin and candidate column c_n:
    num[b, n] = z^H R_b z and den[b, n] = c_n^H z with z = Q_S,b c_n. Each
    bin's rows are built from its q a column block of at most
    BUILD_BLOCK_BYTES at a time, so the state holds no K x N array besides
    coeff. The state copies the q it is given and never writes to coeff or
    second_moment; add_candidate updates the state itself.

    Numerical-health readouts, (B,) arrays: min_denominator is the
    smallest update denominator lam + c^H Q_S,b c of add_candidate,
    max_drift the largest relative gap between the bin's leading
    candidate's incremental and direct cost change seen by
    candidate_deltas, and refreshes counts the rebuilds of the bin's num
    and den rows from q that drift past SCREEN_RTOL / 10 triggered.
    """

    coeff: tuple[np.ndarray, ...]
    second_moment: tuple[np.ndarray, ...]
    lam: float
    q: list[np.ndarray]
    gamma: np.ndarray | None = None
    selected: tuple[int, ...] = ()
    num: np.ndarray = field(init=False, repr=False)
    den: np.ndarray = field(init=False, repr=False)
    min_denominator: np.ndarray = field(init=False)
    max_drift: np.ndarray = field(init=False)
    refreshes: np.ndarray = field(init=False)

    def __post_init__(self):
        self.coeff = tuple(np.ascontiguousarray(c, dtype=np.complex128) for c in self.coeff)
        self.second_moment = tuple(self.second_moment)
        self.q = [np.array(q, dtype=np.complex128, order="C") for q in self.q]
        bins, n = len(self.coeff), self.n_candidates
        if len(self.second_moment) != bins or len(self.q) != bins:
            raise ValueError("every bin needs a coefficient matrix, a second moment and a q")
        if any(c.shape[1] != n for c in self.coeff):
            raise ValueError("all bins must share one candidate list")
        self.gamma = np.ones(bins) if self.gamma is None else np.array(self.gamma, dtype=np.float64)
        if self.gamma.shape != (bins,):
            raise ValueError("gamma needs one weight per bin")
        self.selected = tuple(int(i) for i in self.selected)
        self.num, self.den = np.empty((bins, n)), np.empty((bins, n))
        self.min_denominator = np.full(bins, math.inf)
        self.max_drift = np.zeros(bins)
        self.refreshes = np.zeros(bins, dtype=np.int64)
        # per bin, the rows conj(z_c) and conj(Q y_c) of add_candidate's product
        self._rows = [np.empty((2, c.shape[0]), dtype=np.complex128) for c in self.coeff]
        for b in range(bins):
            self._build_forms(b)

    def _build_forms(self, b: int) -> None:
        c, r, q = self.coeff[b], self.second_moment[b], self.q[b]
        step = max(1, BUILD_BLOCK_BYTES // (16 * c.shape[0]))
        for a in range(0, c.shape[1], step):
            blk = slice(a, a + step)
            self.num[b, blk], self.den[b, blk] = _forms(q, r, c[:, blk])

    @classmethod
    def from_problem(cls, spec: BroadbandSpec, lam: float) -> SelectionState:
        """State of every bin of spec before any pick: bin b's coeff, its
        weight as the starting q, its prior's second moment and its gamma."""
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ValueError("regularization constant must be positive")
        for b in spec.bins:
            k = b.coeff.shape[0]
            if b.coeff.ndim != 2 or b.weight.entries.shape != (k, k):
                raise ValueError("coefficient and weight shapes are inconsistent")
            if b.prior.size != k:
                raise ValueError("prior dimension must match coefficient rows")
        return cls(
            coeff=[b.coeff for b in spec.bins],
            second_moment=[b.prior.second_moment for b in spec.bins],
            lam=lam,
            # hermitized one bin at a time, as the state copies each q
            q=(_hermitize(b.weight.entries) for b in spec.bins),
            gamma=[b.gamma for b in spec.bins],
        )

    @property
    def n_candidates(self) -> int:
        return self.coeff[0].shape[1]


def state_cost(state: SelectionState) -> float:
    """J for the state's current selection: sum_b gamma_b tr(Q_S,b R_b), O(K^2) per bin."""
    # R is Hermitian, so vdot(R, Q) = sum conj(R_ij) Q_ij = tr(Q R)
    bins = zip(state.gamma, state.second_moment, state.q)
    return float(sum(g * np.vdot(r, q).real for g, r, q in bins))


def _free_gains(state: SelectionState) -> np.ndarray:
    """(B, N) gains -Delta from the incremental forms; -inf for selected candidates."""
    gains = _gain(state.num, state.den, state.lam)
    gains[:, list(state.selected)] = -np.inf
    return gains


def _weighted_deltas(state: SelectionState, gains: np.ndarray) -> np.ndarray:
    """-sum_b gamma_b gains[b], summed in bin order; +inf where gains are -inf.

    Scales gains in place.
    """
    gains *= state.gamma[:, None]
    deltas = np.sum(gains, axis=0)
    return np.negative(deltas, out=deltas)


def candidate_deltas(state: SelectionState) -> np.ndarray:
    """J change for adding each candidate; +inf for selected ones.

    Delta_n = -sum_b gamma_b num[b, n] / (lam + den[b, n]), read from the
    state's incremental forms in O(B N). Both forms are PSD and clipped at
    zero, so every change is <= 0 and no denominator falls below lam. Each
    bin's own leading candidate is re-costed from its q in O(K_b^2); a bin
    whose incremental change is off the direct one by more than
    SCREEN_RTOL / 10 has its num and den rows rebuilt from q once before
    the changes are returned.
    """
    gains = _free_gains(state)
    if len(state.selected) == state.n_candidates:
        return _weighted_deltas(state, gains)
    for b, lead in enumerate(np.argmax(gains, axis=1)):
        mine, direct = float(gains[b, lead]), _direct_gain(state, b, lead)
        scale = max(mine, direct)
        drift = abs(mine - direct) / scale if scale > 0.0 else 0.0
        state.max_drift[b] = max(state.max_drift[b], drift)
        if drift > 0.1 * SCREEN_RTOL:
            state._build_forms(b)
            state.refreshes[b] += 1
            gains[b] = _gain(state.num[b], state.den[b], state.lam)
            gains[b, list(state.selected)] = -np.inf
    return _weighted_deltas(state, gains)


def _direct_gain(state: SelectionState, b: int, index: int) -> float:
    """Bin b's -Delta for one candidate, recomputed from its q in O(K_b^2)."""
    c = state.coeff[b][:, index]
    z = state.q[b] @ c
    num, den = np.vdot(z, state.second_moment[b] @ z).real, np.vdot(c, z).real
    return float(_gain(num, den, state.lam))


def _direct_deltas(state: SelectionState, indices) -> np.ndarray:
    """Delta for the given candidates, recomputed from every bin's q in O(K_b^2) each."""
    gains = [
        _gain(*_forms(q, r, np.ascontiguousarray(c[:, indices])), state.lam)
        for c, r, q in zip(state.coeff, state.second_moment, state.q)
    ]
    return _weighted_deltas(state, np.array(gains))


def add_candidate(state: SelectionState, index: int) -> SelectionState:
    """Select one more candidate: rank-one updates of every bin's q, num and den.

    In bin b, with z_c = Q c, y_c = R z_c and delta = lam + c^H z_c
    (O(K^2)), Q' = Q - z_c z_c^H / delta. One (2, K) @ (K, N) product of
    the rows z_c^H and (Q y_c)^H with C, or two matrix-vector products for
    a large C, gives w = z_c^H C and v = (Q y_c)^H C, and with u = w / delta
    every candidate's forms follow in O(N), for all bins at once:

        den' = den - Re(conj(u) w),
        num' = num + |u|^2 Re(z_c^H y_c) - 2 Re(conj(u) v).

    The update is made in place and the same state is returned; a
    rejected index leaves it unchanged.
    """
    index = int(index)
    if not 0 <= index < state.n_candidates:
        raise ValueError("candidate index out of range")
    if index in state.selected:
        raise ValueError("candidate already selected")
    bins = len(state.q)
    wv = np.empty((bins, 2, state.n_candidates), dtype=np.complex128)
    dens, zys = np.empty(bins), np.empty(bins)
    per_bin = zip(state.coeff, state.second_moment, state.q, state._rows)
    for b, (c, r, q, rows) in enumerate(per_bin):
        zc = q @ c[:, index]
        yc = r @ zc
        zys[b] = np.vdot(zc, yc).real
        dens[b] = state.lam + max(np.vdot(c[:, index], zc).real, 0.0)
        np.conjugate(zc, out=rows[0])
        np.conjugate(q @ yc, out=rows[1])
        # q - z_c z_c^H / delta bit for bit: numpy divides a complex array
        # by a real scalar as a product with its reciprocal, and so does the
        # float64 view here without the complex arithmetic
        dq = np.multiply.outer(zc, rows[0])
        np.multiply(dq.view(np.float64), -1.0 / dens[b], out=dq.view(np.float64))
        q += dq
        # one (2, K) @ (K, N) product on one thread up to _ONE_THREAD_MACS,
        # two matrix-vector products past it (see there)
        if 2 * c.size > _ONE_THREAD_MACS:
            np.matmul(rows[0], c, out=wv[b, 0])
            np.matmul(rows[1], c, out=wv[b, 1])
        else:
            np.matmul(rows, c, out=wv[b])
    np.minimum(state.min_denominator, dens, out=state.min_denominator)
    # read re/im interleaved from the float64 view
    wv = wv.view(np.float64)
    w_re, w_im, v_re, v_im = wv[:, 0, 0::2], wv[:, 0, 1::2], wv[:, 1, 0::2], wv[:, 1, 1::2]
    w_abs2 = w_re * w_re + w_im * w_im
    state.den -= w_abs2 / dens[:, None]
    zy_scale, v_scale = (zys / (dens * dens))[:, None], (2.0 / dens)[:, None]
    state.num += w_abs2 * zy_scale - (w_re * v_re + w_im * v_im) * v_scale
    state.selected += (index,)
    return state


def placement_cost(selected, prior: FieldPrior, coeff_matrix, weight, lam: float) -> float:
    """Reference J(S) = tr(Q_S R) by a direct factorization.

    With W = B B^H and the full SVD B^H C_S = U diag(s) V^H,
    Q_S = (B U) diag(f) (B U)^H, f_i = lam / (s_i^2 + lam) (1 past the
    rank). Nothing cancels, so Q_S stays accurate on both sides of L = K:
    the Woodbury form W - W C_S A C_S^H W loses digits once the selection
    spans the mode space, and the push-through form lam (W C_S C_S^H +
    lam I)^{-1} W before it does.
    """
    c = np.asarray(coeff_matrix, dtype=np.complex128)
    w = weight.entries
    sel = [int(i) for i in selected]
    if len(set(sel)) != len(sel) or any(not 0 <= i < c.shape[1] for i in sel):
        raise ValueError("selected indices must be unique and in range")
    if sel:
        evals, evecs = np.linalg.eigh(_hermitize(w))
        b = evecs * np.sqrt(np.clip(evals, 0.0, None))
        u, s, _ = np.linalg.svd(b.conj().T @ c[:, sel])
        f = np.ones(w.shape[0])
        f[: s.size] = lam / (s ** 2 + lam)
        g = b @ u
        q = (g * f) @ g.conj().T
    else:
        q = w
    j = complex(np.sum(q * prior.second_moment.T))
    scale = max(abs(j), abs(float(np.sum(w * prior.second_moment.T).real)), 1e-300)
    if abs(j.imag) > 1e-9 * scale:
        raise ValueError("placement cost has a non-negligible imaginary part")
    return j.real


# ---------------------------------------------------------------------------
# greedy selection


@dataclass(frozen=True)
class PlacementResult:
    """Selection order and the J trace (J(empty set) first)."""

    indices: tuple[int, ...]
    cost_trace: np.ndarray


@dataclass(frozen=True)
class FrequencyProblem:
    """Placement inputs of one frequency bin, in the coefficient domain.

    coeff holds one expansion column per candidate; gamma weighs the bin
    in a broadband cost. freq and cfg name the bin's frequency and
    expansion when it comes from a config (experiment.build_problems).
    """

    coeff: np.ndarray
    weight: WeightMatrix
    prior: FieldPrior
    gamma: float = 1.0
    freq: Frequency | None = None
    cfg: ExpansionConfig | None = None

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("bin weight gamma must be positive")


@dataclass(frozen=True)
class BroadbandSpec:
    """The bins of one placement problem, one or many, sharing one candidate list."""

    bins: tuple[FrequencyProblem, ...]

    def __post_init__(self):
        bins = tuple(self.bins)
        if not bins:
            raise ValueError("broadband spec needs at least one bin")
        n = bins[0].coeff.shape[1]
        if any(b.coeff.shape[1] != n for b in bins):
            raise ValueError("all bins must share one candidate list")
        object.__setattr__(self, "bins", bins)

    @property
    def n_candidates(self) -> int:
        return self.bins[0].coeff.shape[1]


def greedy_place_broadband(
    spec: BroadbandSpec,
    lam: float,
    n_select: int | None = None,
    min_decrease: float | None = None,
) -> PlacementResult:
    """Greedy selection on the gamma-weighted cost sum over spec's bins.

    The one greedy entry point: a single frequency is a spec of one bin.
    Stops after n_select picks, or earlier once the best available cost
    decrease falls below min_decrease (finite, >= 0) relative to the
    empty-set cost. Candidates within SCREEN_RTOL of the best incremental
    decrease are re-costed directly from each Q_S, and ties among those
    (within TIE_RTOL of the best direct decrease) go to the lowest
    candidate index. Each trace entry is the exact weighted tr(Q_S R). One
    SelectionState holds every bin and a pick updates it in place, so
    memory stays one generation (Q_S per bin, num and den) plus one build
    block.
    """
    n = spec.n_candidates
    if n == 0:
        raise ValueError("empty candidate set")
    if n_select is None and min_decrease is None:
        raise ValueError("a stopping rule is required")
    if min_decrease is not None and not 0.0 <= min_decrease < math.inf:
        raise ValueError("min_decrease must be finite and non-negative, got %r" % (min_decrease,))
    limit = n if n_select is None else int(n_select)
    if not 0 <= limit <= n:
        raise ValueError("n_select must lie in [0, n_candidates]")
    state = SelectionState.from_problem(spec, lam)
    trace = [state_cost(state)]
    for _ in range(limit):
        deltas = candidate_deltas(state)
        best = float(np.min(deltas))
        contenders = np.flatnonzero(deltas <= best + SCREEN_RTOL * abs(best))
        pick, change = int(contenders[0]), best
        if contenders.size > 1:
            direct = _direct_deltas(state, contenders)
            top = float(np.min(direct))
            i = int(np.flatnonzero(direct <= top + TIE_RTOL * abs(top))[0])
            pick, change = int(contenders[i]), float(direct[i])
        if min_decrease is not None and -change < min_decrease * trace[0]:
            break
        add_candidate(state, pick)
        trace.append(state_cost(state))
    return PlacementResult(state.selected, np.asarray(trace))


def broadband_cost(spec: BroadbandSpec, selected, lam: float) -> float:
    """Gamma-weighted sum of per-bin placement costs."""
    return sum(
        b.gamma * placement_cost(selected, b.prior, b.coeff, b.weight, lam)
        for b in spec.bins
    )


# ---------------------------------------------------------------------------
# equal-spacing baselines


def regular_placement_b(candidates, n_select: int) -> tuple[int, ...]:
    """Equal index spacing around the full candidate loop, starting at 0."""
    n = len(_as_points(candidates))
    if not 1 <= n_select <= n:
        raise ValueError("n_select must lie in [1, n_candidates]")
    return tuple((i * n) // n_select for i in range(n_select))


def _ray_loop_hit(pts, seg, seglen, s_pos, origin, direction):
    """Arc-length position where a ray first crosses the candidate loop."""
    d = np.asarray(direction, dtype=np.float64)
    rhs = pts - np.asarray(origin, dtype=np.float64)
    det = seg[:, 0] * d[1] - seg[:, 1] * d[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (seg[:, 0] * rhs[:, 1] - seg[:, 1] * rhs[:, 0]) / det
        w = (d[0] * rhs[:, 1] - d[1] * rhs[:, 0]) / det
    ok = (np.abs(det) > 1e-14) & (t > 1e-9) & (w >= -1e-12) & (w < 1.0 - 1e-12)
    if not np.any(ok):
        raise ValueError("ray does not cross the candidate loop")
    i = np.flatnonzero(ok)[np.argmin(t[ok])]
    return s_pos[i] + float(np.clip(w[i], 0.0, 1.0)) * seglen[i]


def regular_placement_a(
    candidates, region: CircularRegion, angles: DirectionRangePrior, n_select: int
) -> tuple[int, ...]:
    """Equal spacing along the boundary arc facing the incoming directions.

    The candidate list must trace a closed loop around the region. The
    admissible arc runs between the points where the loop meets the two
    region-tangent lines parallel to the extreme prior directions, on the
    side waves arrive from (the side not containing the exit point of the
    mean-direction ray). Degenerates to regular_placement_b for a
    full-circle prior.
    """
    pts = _as_points(candidates)
    n = len(pts)
    if angles.width >= 2.0 * math.pi * (1.0 - 1e-12):
        return regular_placement_b(pts, n_select)
    seg = pts[(np.arange(n) + 1) % n] - pts
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    s_pos = np.concatenate([[0.0], np.cumsum(seglen)])[:n]
    total = float(np.sum(seglen))
    center = np.array(region.center, dtype=np.float64)

    hits = []
    for theta, side in ((angles.angle_max, 1.0), (angles.angle_min, -1.0)):
        u = np.array([math.cos(theta), math.sin(theta)])
        normal = side * np.array([math.sin(theta), -math.cos(theta)])
        tangent_point = center + region.radius * normal
        hits.append(_ray_loop_hit(pts, seg, seglen, s_pos, tangent_point, -u))
    mean = angles.mean_angle
    exit_s = _ray_loop_hit(
        pts, seg, seglen, s_pos, center, np.array([math.cos(mean), math.sin(mean)])
    )

    start, end = hits
    if (exit_s - start) % total <= (end - start) % total:
        start, end = end, start
    width = (end - start) % total
    keys = (s_pos - start) % total
    admissible = np.flatnonzero(keys <= width + 1e-12)
    if admissible.size == 0:
        raise ValueError("no candidate lies on the admissible arc")
    ordered = admissible[np.argsort(keys[admissible], kind="stable")]
    if n_select > ordered.size:
        raise ValueError("n_select exceeds the admissible candidate count")
    picks = np.round(np.linspace(0.0, ordered.size - 1.0, n_select)).astype(int)
    return tuple(int(ordered[p]) for p in picks)
