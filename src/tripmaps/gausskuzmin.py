"""Gauss-Kuzmin digit statistics: invariant densities, cylinder-set
measures in closed form, the two printed closed-form families, and seeded
Monte Carlo digits.

cylinder_measures evaluates p(k) = mu(cylinder k) in closed form, with no
quadrature.  Each of the 18 densities is C g, g = |h| its eigenfunction, and
_law reads off the TRIP construction (trip) the row's affine forms c and d
and its shift a, for which the k-th term of the transfer sum of g is
1/(A_k A_{k+1}), A_k = d + (k + a) c.  c is 0 at one vertex and 1 at the
other two, and d is 1 at that vertex and 1 and 2 at the others; along the
level segments of c, p(k) = C int_tri dp / (A_k A_{k+1}) integrates to

    p(k) = C D(k + a),  D(z) = Li2(-z) - 2 Li2(-z-1) + Li2(-z-2),

and normalisation fixes C, since sum_k D(k + a) = Li2(-a) - Li2(-a-1).  On
6 rows a = 0 and C = 12/pi^2, so p(k) is p_closed_eee(k); on the other 12,
a = -1 and C = 6/pi^2, so p(0) = 1/2 and p(k) = p_closed_eee(k - 1)/2:
p_closed_eee, which is 12/pi^2 D, evaluates both.  The pullback cubature of
the claims registry (claims.pullback_measures) checks the law on every row.

empirical_digits counts the digits of walkers.  Each starts from an exact
draw of the invariant density (_draws, rejection against one envelope
that covers all 18 densities), so it stays distributed by the density
after every step and needs no burn-in.  Walkers take WALKER_STEPS steps
each, MC_CHUNK of them in lockstep through maps._solve.  Successive digits
of one walker are correlated: on (e,23,e) at 2 steps the k = 0 standard
error is about 1.2 times the binomial one.  The batches are groups of
whole walkers, so they are independent and their spread is an honest
error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import PermutationTriple, in_triangle
from .errors import EnvelopeExceeded, NoClosedLaw, NoDensity
from .maps import K_MAX_DEFAULT, _solve, off_boundary
from .specfun import dilog
from .tables.eigen import DENSITIES, EIGENFUNCTIONS
from .transfer import TruncationPolicy, apply_transfer_batch
from .trip import _V, _adjugate, _trip

PI2 = math.pi ** 2


# walkers are split into this many consecutive groups of (nearly) equal
# size for the batch-means standard error
MC_BATCHES = 20
# the digits each walker counts, and the walkers drawn and stepped at
# once; a chunk's temporaries in maps._solve take about 200 bytes a walker
WALKER_STEPS = 2
MC_CHUNK = 2 ** 12
# digits below this are tallied in a fixed table per batch; the rest (2.6 %
# of e,e,e digits), which reach 1e9 and more next to the y = 0 edge, are
# kept as codes and sorted once per run
_TABLE = 2 ** 8
# every density is at most _ENVELOPE * g (see _draws); _ROUNDING allows
# for the rounding of r and g where the bound is tight, next to a vertex.
# _draws makes at most _PROPOSALS proposals at once
_ENVELOPE = 12.0 / PI2
_ROUNDING = 1e-12
_PROPOSALS = 2 ** 13


@dataclass(frozen=True)
class EmpiricalStats:
    n_steps: int
    counts: dict[int, int]
    restarts: int = 0
    # (batch length, digit counts) per consecutive group of whole walkers
    batches: tuple[tuple[int, dict[int, int]], ...] = ()

    def frequency(self, k: int) -> float:
        return self.counts.get(k, 0) / self.n_steps

    def batch_stderr(self, k: int) -> float:
        """Standard error of frequency(k) from the spread of the batch
        frequencies; unlike the binomial one it allows for correlation
        between the successive digits of one walker.  0 with fewer than
        two batches."""
        if len(self.batches) < 2:
            return 0.0
        freqs = [c.get(k, 0) / m for m, c in self.batches]
        mean = math.fsum(freqs) / len(freqs)
        var = math.fsum((f - mean) ** 2 for f in freqs) / (len(freqs) - 1)
        return math.sqrt(var / len(freqs))


def density(t: PermutationTriple):
    """Normalized invariant density r(x, y), or NoDensity."""
    r = DENSITIES.get(t.key)
    if r is None:
        raise NoDensity(f"no tabulated invariant density for {t}")
    return r


_CONIC_POINTS = tuple((Fraction(x, 12), Fraction(y, 12))
                      for x, y in ((6, 3), (8, 2), (9, 6), (10, 1), (11, 9), (7, 5)))
# C pi^2/12 per shift a: C = 1/sum_k D(k + a) = 1/(Li2(-a) - Li2(-a-1))
_SHARE = {0: 1.0, -1: 0.5}


def _branches(key):
    """The integer (M0, M1) of the row key: its branch k is M0 + k M1 =
    V (I + k E) F0 V^-1 on (x, y, 1), as F1^k = I + k E for E = F1 - I
    where E^2 = 0 (det V = 1).  NoClosedLaw on a parity row."""
    f0, f1 = _trip(key)
    e = f1 - np.eye(3, dtype=np.int64)
    if (e @ e).any():
        raise NoClosedLaw(f"{key} is a parity row: (F1 - I)^2 is not 0")
    return _V @ f0 @ _adjugate(_V), _V @ e @ f0 @ _adjugate(_V)


@functools.cache
def _law(key) -> tuple[float, int]:
    """(C pi^2/12, a) of the row key: p(k) = C D(k + a) = (C pi^2/12)
    p_closed_eee(k + a).  Branch k, M_k = M0 + k M1 (det +-1), has weight
    1/|d + k c|^3, c and d the last rows of M1 and M0; with A_j =
    d + (j + a) c, d + k c = A_{k-a}.  Its term of the transfer sum of
    g = 1/|c A_0| is 1/(A_k A_{k+1}) for every k exactly where, as
    quadratic forms in p = (x, y, z), with one sign s for all k,

        c(M_k p) A_0(M_k p) = s z A_{k+1+a}(p).

    Both sides have degree at most 2 in k: their matrices (u v^T plus its
    transpose) are compared at k = 0, 1, 2, and exactly one a of 0 and -1
    must pass.  h c A_0 must be one sign at the _CONIC_POINTS, on no
    common conic (monomial determinant 85/5971968), so that they pin a
    quadratic 1/h.  NoClosedLaw otherwise, or at a pole of h."""
    m0, m1 = _branches(key)
    c, d = m1[2], m0[2]

    def holds(a, s, k):
        # A_{k+1+a} = d + (k + 1 + 2a) c
        m = m0 + k * m1
        q = np.outer(c @ m, (d + a * c) @ m) - s * np.outer((0, 0, 1), d + (k + 1 + 2 * a) * c)
        return not (q + q.T).any()

    shifts = [a for a in _SHARE if any(all(holds(a, s, k) for k in range(3)) for s in (1, -1))]
    if len(shifts) != 1:
        raise NoClosedLaw(f"{key}: terms 1/(A_k A_k+1) at the shifts {shifts}, not at one")
    a, h = shifts[0], EIGENFUNCTIONS[key]
    try:
        signs = {h(x, y) * (c @ (x, y, 1)) * ((d + a * c) @ (x, y, 1)) for x, y in _CONIC_POINTS}
    except ZeroDivisionError:
        raise NoClosedLaw(f"the eigenfunction of {key} has a pole at a point") from None
    if signs not in ({1}, {-1}):
        raise NoClosedLaw(f"the eigenfunction of {key} is not +-1/(c A_0): h c A_0 = {signs}")
    return _SHARE[a], a


def cylinder_measures(t: PermutationTriple, ks) -> np.ndarray:
    """mu of the digit-k cylinder for each k of the one-dimensional integer
    (or integral float) array ks: C D(k + a), the closed law of t's row."""
    ks = np.asarray(ks)
    if ks.ndim != 1 or ks.dtype.kind not in "iuf":
        raise ValueError(f"ks must be a one-dimensional array of integers, not {ks.dtype} "
                         f"of shape {ks.shape}")
    # checked before the cast, which would truncate 1.5 to 1
    if ks.dtype.kind == "f" and not (np.isfinite(ks) & (ks == np.trunc(ks))).all():
        raise ValueError("k must be an integer")
    # and before the cast, which would wrap 2**63 to a negative digit
    if not (ks < 2 ** 63).all():
        raise ValueError("k must be below 2**63")
    ks = ks.astype(np.int64)
    if (ks < 0).any():
        raise ValueError("k must be non-negative")
    density(t)  # NoDensity for a triple without one
    share, a = _law(t.key)
    # p_closed_eee(z) = 12/pi^2 D(z), and D(-1) = Li2(1) + Li2(-1) = pi^2/12
    return np.array([share * (p_closed_eee(k + a) if k + a >= 0 else 1.0)
                     for k in ks.tolist()], dtype=float)


def cylinder_measure(t: PermutationTriple, k: int) -> float:
    """mu of the digit-k cylinder: the one-digit face of cylinder_measures."""
    return float(cylinder_measures(t, [k])[0])


def p_closed_eee(k: int) -> float:
    """Closed-form p(k) for the (e,e,e) map.  The printed k > 0 formula
    contains the symbol (k_1); it is implemented as (k+1), the reading
    the pullback cubature confirms at k = 1..5.

    The printed 4 ln(k+1)^2 - 2 ln(k(k+2)) ln(k+1) subtracts two terms of
    size ln(k)^2 from a result of size ln(k)/k^2; it is evaluated as
    -2 ln(k+1) log1p(-1/(k+1)^2), and ln((k+2)/(k+1)) as log1p(1/(k+1)).
    So written, p(k) stays within 1e-15 relative of the printed formula
    at 50 digits (k = 1..10, 50, 200, 1e3, 3e3, 1e4, 1e6, 1e9 tested).
    It is 12/pi^2 D(k), the law of 6 of the 18 rows (see _law)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 1.0 - (6.0 * dilog(0.25) + 12.0 * math.log(2.0) ** 2) / PI2
    return (6.0 / PI2) * (
        dilog(1.0 / (k + 1) ** 2)
        - dilog(1.0 / (k + 2) ** 2)
        - 2.0 * math.log(k + 1.0) * math.log1p(-1.0 / (k + 1) ** 2)
        - 2.0 * math.log1p(1.0 / (k + 1.0)) ** 2)


def p_integral_e23e(k: int) -> float:
    """p(k) for the (e,23,e) map: the printed two-piece iterated integral
    in closed form; p(0) = 1/2 exactly.

    With the inner dy integral done, the pieces are
    6/pi^2 int ln((k+x)/(k+1)) - ln(1-x) dx/x over [1/(k+2), 1/(k+1)] and
    6/pi^2 int ln((k+x)/(k+1)) - ln((k-1+x)/k) dx/x over [1/(k+1), 1],
    through int ln(c+x)/x dx = ln c ln x - Li2(-x/c) (ln(x)^2/2 at c = 0,
    k = 1) and int ln(1-x)/x dx = -Li2(x); the Li2(-1/(k(k+1))) terms
    cancel.  Written with log1p, p(k) stays within 1e-13 relative of the
    printed integral as it falls with k (k <= 1e4 tested).

    It is the shifted law of 12 of the 18 rows (see _law): p(k) equals
    p_closed_eee(k - 1)/2, within 2.5e-14 relative at k = 1..200, 1e3 and
    1e4.  Beyond 1e4 this two-piece form drifts from it, by 3.9e-11
    relative at k = 1e6 and 4.7e-9 at 1e9, where p_closed_eee stays
    within 1e-15 of mpmath."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 0.5
    if k == 1:
        ln2 = math.log(2.0)
        return (6.0 / PI2) * (dilog(0.5) - dilog(1.0 / 3.0) + dilog(-1.0 / 3.0)
                              - ln2 * math.log(1.5) + PI2 / 12.0 - 0.5 * ln2 * ln2)
    a, b = 1.0 / (k + 2.0), 1.0 / (k + 1.0)
    return (6.0 / PI2) * (
        dilog(b) - dilog(a) + dilog(-a / k)
        - math.log1p(1.0 / k) * math.log1p(b)
        - dilog(-1.0 / k) + dilog(-1.0 / (k - 1.0)) - dilog(-b / (k - 1.0))
        + math.log1p(-1.0 / (k * k)) * math.log(b))


# the triples whose p(k) has a closed or printed iterated-integral form
CLOSED_FORMS = {("e", "e", "e"): p_closed_eee, ("e", "23", "e"): p_integral_e23e}


def _draws(rng: np.random.Generator, r, m: int):
    """m points (xs, ys) drawn exactly from the density r, by rejection
    against the envelope _ENVELOPE * g, g = 1/x + 1/(1-y) + 1/(1-x+y).

    Each density is c/(L1*L2) with c <= 12/pi^2, and each factor L is
    either a vertex factor (x, 1-y or 1-x+y: at most 1, and 0 at one
    vertex) or at least 1.  Two vertex factors sum to at least 1, so
    1/(V1*V2) <= 1/V1 + 1/V2, and r <= _ENVELOPE * g on all 18 rows.  Each
    term of g has mass 1 on the triangle: a proposal picks a vertex, takes
    its factor t uniform on (0, 1) and places the point uniformly on the
    cross-section where the factor is t.  Acceptance is pi^2/36."""
    xs, ys = np.empty(0), np.empty(0)
    while xs.size < m:
        # about 4 proposals per point needed, at most _PROPOSALS at once
        pick, t, v, accept = rng.random((4, min(4 * (m - xs.size) + 16, _PROPOSALS)))
        pick *= 3.0
        # the vertex factor t is x at (0, 0) (pick < 1), 1 - x + y at
        # (1, 0) and 1 - y at (1, 1) (pick >= 2); the last two cross-
        # sections share x = 1 - t + t*v
        x = np.where(pick < 1.0, t, 1.0 - t + t * v)
        y = np.where(pick >= 2.0, 1.0 - t, t * v)
        inside = in_triangle((x, y))
        x, y, accept = x[inside], y[inside], accept[inside]
        ratio = r(x, y) / (_ENVELOPE * (1.0 / x + 1.0 / (1.0 - y) + 1.0 / (1.0 - x + y)))
        if np.any(ratio > 1.0 + _ROUNDING):
            i = int(np.argmax(ratio))
            raise EnvelopeExceeded(f"density {ratio[i]} times its envelope at ({x[i]}, {y[i]})")
        keep = accept < ratio
        xs, ys = np.concatenate((xs, x[keep])), np.concatenate((ys, y[keep]))
    return xs[:m], ys[:m]


def empirical_digits(t: PermutationTriple, n: int, seed: int) -> EmpiricalStats:
    """Digit counts over n steps of walkers that start from exact draws of
    the invariant density, from a seeded counter-based stream, also per
    batch of MC_BATCHES consecutive groups of whole walkers.  Each walker
    counts WALKER_STEPS digits (the last one what is left of n); MC_CHUNK
    walkers step in lockstep, one maps._solve call per step.  An image
    that fails maps.off_boundary is not counted: the walker is replaced by
    a fresh draw, tallied in the restarts field."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    r = density(t)
    key = t.key
    walkers = -(-n // WALKER_STEPS)
    n_batches = min(MC_BATCHES, walkers)
    # batch b holds walkers bounds[b] .. bounds[b + 1] - 1
    bounds = [walkers * i // n_batches for i in range(n_batches + 1)]
    sizes = [min(n, WALKER_STEPS * hi) - WALKER_STEPS * lo for lo, hi in zip(bounds, bounds[1:])]
    # the counts of each (batch, digit) below _TABLE, and the (digit, batch)
    # codes k * n_batches + b of the deeper digits
    table = np.zeros((n_batches, _TABLE), dtype=np.int64)
    deep = []
    restarts = 0
    for first in range(0, walkers, MC_CHUNK):
        ids = np.arange(first, min(first + MC_CHUNK, walkers))
        left = np.minimum(n - WALKER_STEPS * ids, WALKER_STEPS)
        xs, ys = _draws(rng, r, ids.size)
        active = np.arange(ids.size)
        counted, found = [], []
        while active.size:
            k, xp, yp = _solve(key, xs[active], ys[active], K_MAX_DEFAULT)
            ok = off_boundary(xp, yp)
            counted.append(active[ok])
            found.append(k[ok])
            left[active[ok]] -= 1
            xs[active], ys[active] = xp, yp
            lost = active[~ok]
            if lost.size:
                restarts += lost.size
                xs[lost], ys[lost] = _draws(rng, r, lost.size)
            active = active[left[active] > 0]
        k = np.concatenate(found)
        batch = np.searchsorted(bounds, ids[np.concatenate(counted)], side="right") - 1
        small = k < _TABLE
        table += np.bincount(batch[small] * _TABLE + k[small],
                             minlength=table.size).reshape(table.shape)
        deep.append(k[~small] * n_batches + batch[~small])
    codes, deep_counts = np.unique(np.concatenate(deep), return_counts=True)
    deep_k, deep_b = np.divmod(codes, n_batches)
    batches = []
    for b, row in enumerate(table):
        k, mine = np.flatnonzero(row), deep_b == b
        batches.append(dict(zip(k.tolist() + deep_k[mine].tolist(),
                                row[k].tolist() + deep_counts[mine].tolist())))
    # deep_k is sorted, as the codes are
    totals = table.sum(axis=0)
    k, start = np.unique(deep_k, return_index=True)
    counts = dict(zip(np.flatnonzero(totals).tolist() + k.tolist(),
                      totals[totals > 0].tolist() + np.add.reduceat(deep_counts, start).tolist()))
    return EmpiricalStats(n_steps=n, counts=counts, restarts=restarts,
                          batches=tuple(zip(sizes, batches)))


def _rectangles(rng: np.random.Generator, count: int):
    rects = []
    while len(rects) < count:
        x0, x1 = sorted(rng.uniform(0.08, 0.95, 2))
        y0, y1 = sorted(rng.uniform(0.04, x0 - 0.02, 2))
        if x1 - x0 > 0.05 and y1 - y0 > 0.03:
            rects.append((x0, x1, y0, y1))
    return rects


def invariance_check(t: PermutationTriple, abs_tol: float = 1e-6,
                     seed: int = 7) -> float:
    """max over 20 seeded rectangles R inside the triangle of
    |mu(T^-1 R) - mu(R)|.  Change of variables turns the difference into
    int_R (Lr - r), evaluated by a 6x6 midpoint grid; the integrand is the
    pointwise eigen-residual of the density, ~1e-10, so a crude grid
    already lands far below abs_tol."""
    r = density(t)
    rng = np.random.default_rng(seed)
    pol = TruncationPolicy(eps=abs_tol / 100.0)
    grid_n = 6
    # one (rectangle, i, j) entry per midpoint, x from i and y from j
    x0, x1, y0, y1 = np.array(_rectangles(rng, 20)).T[..., None, None]
    hx, hy = (x1 - x0) / grid_n, (y1 - y0) / grid_n
    mid = np.arange(grid_n) + 0.5
    xs, ys = np.broadcast_arrays(x0 + mid[:, None] * hx, y0 + mid * hy)
    lr, _, _ = apply_transfer_batch(t, r, xs.ravel(), ys.ravel(), pol)
    acc = np.sum((lr.reshape(xs.shape) - r(xs, ys)) * hx * hy, axis=(1, 2))
    return float(np.max(np.abs(acc)))
