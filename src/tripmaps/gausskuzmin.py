"""Gauss-Kuzmin digit statistics: invariant densities, cylinder-set
measures in closed form, the two printed closed-form families, and seeded
Monte Carlo digits.

cylinder_measures evaluates p(k) = mu(cylinder k) in closed form, with no
quadrature.  Each of the 18 densities is C g, g = |h| its eigenfunction,
and the k-th term of the transfer sum of g is 1/(A_k A_{k+1}) with
A_k = k c + d for two affine forms c and d on the triangle, so

    p(k) = C int_tri dp / (A_k A_{k+1}).

_law derives c and d of a row from the tables, in exact arithmetic: c is
the vertex factor (x, 1 - y or 1 - x + y) that vanishes at one vertex V,
d(V) = 1, and d differs by 1 between the other two vertices S and E.
Integrating along the level segments of c then gives

    p(k) = C D(k + a),  D(z) = Li2(-z) - 2 Li2(-z-1) + Li2(-z-2),

with a = min(d(S), d(E)) - 1, and normalisation fixes C, since
sum_k D(k + a) = Li2(-a) - Li2(-a-1).  On 6 rows a = 0 and C = 12/pi^2,
so p(k) is p_closed_eee(k); on the other 12, a = -1 and C = 6/pi^2, so
p(0) = 1/2 and p(k) = p_closed_eee(k - 1)/2: p_closed_eee, which is
12/pi^2 D, evaluates both.  The pullback cubature of the claims registry checks the law on every
row (claims.pullback_measures).

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
from .tables.transfer_rows import TRANSFER
from .transfer import TruncationPolicy, apply_transfer_batch

PI2 = math.pi ** 2


# walkers are split into this many consecutive groups of (nearly) equal
# size for the batch-means standard error
MC_BATCHES = 20
# the digits each walker counts, and the walkers drawn and stepped at
# once; a chunk's temporaries in maps._solve take about 230 bytes a walker
WALKER_STEPS = 2
MC_CHUNK = 2 ** 12
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


# the vertices of the triangle, in integers so that Fraction arithmetic
# stays exact, and the points _law reads a row at, as barycentric weights:
# three at weights (1/2, 1/4, 1/4), whose values of an affine form give its
# vertex values, the centroid, and one point whose three weights differ,
# so that its value of c names the vertex V
_VERTICES = ((0, 0), (1, 0), (1, 1))
_LAW_POINTS = tuple(tuple(Fraction(w, n) for w in ws) for ws, n in (
    ((2, 1, 1), 4), ((1, 2, 1), 4), ((1, 1, 2), 4), ((1, 1, 1), 3), ((1, 2, 3), 6)))
# C times pi^2/12, per shift a: C = 1/sum_k D(k + a) = 1/(Li2(-a) - Li2(-a-1)),
# 12/pi^2 at a = 0 and 6/pi^2 at a = -1
_SHARE = {0: 1.0, -1: 0.5}


@functools.cache
def _law(h, row) -> tuple[float, int]:
    """(C pi^2/12, a) of the density with eigenfunction h and transfer row
    row: p(k) = C D(k + a) = (C pi^2/12) p_closed_eee(k + a).  Derived in Fraction
    from g = |h| and the terms w_k g(branch_k) of the transfer sum of g,
    k = 0, 1, 2, at _LAW_POINTS: c^2 = 1/(g - term_0) - 1/g at the last
    point names the vertex V whose factor (1 minus its barycentric weight)
    is c, d = 1/(c g), and every term must equal 1/(A_k A_{k+1}),
    A_k = k c + d, at every point.  NoClosedLaw where c is no vertex
    factor, d is not affine, a term differs, d(V) is not 1, d does not
    differ by 1 between the other two vertices, a is not 0 or -1, or a
    point is a pole."""
    def at(lam):
        x, y = (sum(w * v[i] for w, v in zip(lam, _VERTICES)) for i in (0, 1))
        g = abs(h(x, y))
        terms = []
        for k in range(3):
            s = Fraction((-1) ** k)
            a, b = row.branch(k, x, y, s)
            terms.append(row.weight(k, x, y, s) * abs(h(a, b)))
        return g, terms

    try:
        values = [at(lam) for lam in _LAW_POINTS]
        g, terms = values[-1]
        c2 = 1 / (g - terms[0]) - 1 / g
        vertex = [i for i, w in enumerate(_LAW_POINTS[-1]) if (1 - w) ** 2 == c2]
        if len(vertex) != 1:
            raise NoClosedLaw(f"c^2 = {c2} at {_LAW_POINTS[-1]} is no vertex factor squared")
        v = vertex[0]
        d_at = [1 / (g * (1 - lam[v])) for lam, (g, _) in zip(_LAW_POINTS, values[:3])]
        d_vertex = [4 * d - sum(d_at) for d in d_at]
        for lam, (g, terms) in zip(_LAW_POINTS, values):
            c, d = 1 - lam[v], sum(w * dv for w, dv in zip(lam, d_vertex))
            if c * d * g != 1 or any(t != 1 / ((k * c + d) * ((k + 1) * c + d))
                                     for k, t in enumerate(terms)):
                raise NoClosedLaw(f"the transfer terms at {lam} are not 1/(A_k A_k+1)")
    except ZeroDivisionError:
        raise NoClosedLaw("a pole of the row at a point of _LAW_POINTS") from None
    ends = d_vertex[:v] + d_vertex[v + 1:]
    a = min(ends) - 1
    if d_vertex[v] != 1 or abs(ends[0] - ends[1]) != 1 or a not in _SHARE:
        raise NoClosedLaw(f"d = {d_vertex} at the vertices, c vanishing at {_VERTICES[v]}")
    return _SHARE[a], int(a)


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
    share, a = _law(EIGENFUNCTIONS[t.key], TRANSFER[t.key])
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
    batches: list[dict[int, int]] = [{} for _ in range(n_batches)]
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
        # digits reach 1e9 and more next to the y = 0 edge: tally (digit,
        # batch) pairs by sorting, never by a table indexed by digit
        batch = np.searchsorted(bounds, ids[np.concatenate(counted)], side="right") - 1
        codes, counts = np.unique(np.concatenate(found) * n_batches + batch, return_counts=True)
        for code, c in zip(codes.tolist(), counts.tolist()):
            k, b = divmod(code, n_batches)
            batches[b][k] = batches[b].get(k, 0) + c
    totals: dict[int, int] = {}
    for batch in batches:
        for k, c in batch.items():
            totals[k] = totals.get(k, 0) + c
    return EmpiricalStats(n_steps=n, counts=totals, restarts=restarts,
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
