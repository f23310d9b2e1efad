"""Gauss-Kuzmin digit statistics: invariant densities, cylinder-set
measures, the two closed-form families, and seeded Monte Carlo orbits.

cylinder_measure evaluates p(k) = mu(cylinder k) through the inverse
branch: the k-th branch maps the whole triangle onto the cylinder, so

    p(k) = int_tri r(branch_k(q)) * weight(k, q) dq

by change of variables.  The integrand is smooth, which is what lets the
adaptive quadrature actually reach 1e-8; a pointwise digit-indicator
integral would stall at the cylinder boundary.  The indicator route is
kept in the test suite as a coarse cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import NoDensity
from .maps import _digit, off_boundary
from .specfun import dilog, integrate_triangle
from .tables.eigen import DENSITIES
from .tables.transfer_rows import TRANSFER
from .transfer import TruncationPolicy, apply_transfer_batch

PI2 = math.pi ** 2


# orbit steps are split into this many consecutive batches of (nearly)
# equal length for the batch-means standard error
MC_BATCHES = 20


@dataclass(frozen=True)
class EmpiricalStats:
    n_steps: int
    counts: dict[int, int]
    restarts: int = 0
    # (batch length, digit counts) per consecutive batch of steps
    batches: tuple[tuple[int, dict[int, int]], ...] = ()

    def frequency(self, k: int) -> float:
        return self.counts.get(k, 0) / self.n_steps

    def batch_stderr(self, k: int) -> float:
        """Standard error of frequency(k) from the spread of the batch
        frequencies; unlike the binomial one it allows for correlation
        between successive digits of an orbit.  0 with fewer than two
        batches."""
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


def cylinder_measure(t: PermutationTriple, k: int) -> float:
    """mu of the digit-k cylinder, via the inverse-branch pullback, to an
    absolute 1e-9."""
    if k < 0:
        raise ValueError("k must be non-negative")
    r = density(t)
    row = TRANSFER[t.key]
    s = -1.0 if (k & 1) else 1.0
    kf = float(k)

    def fun(x, y):
        w = row.weight(kf, x, y, s)
        a, b = row.branch(kf, x, y, s)
        return w * r(a, b)

    return integrate_triangle(fun, 1e-9)


def p_closed_eee(k: int) -> float:
    """Closed-form p(k) for the (e,e,e) map.  The printed k > 0 formula
    contains the symbol (k_1); it is implemented as (k+1), the reading
    the cylinder-measure quadrature confirms at k = 1..5."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 1.0 - (6.0 * dilog(0.25) + 12.0 * math.log(2.0) ** 2) / PI2
    return (6.0 / PI2) * (
        dilog(1.0 / (k + 1) ** 2)
        - dilog(1.0 / (k + 2) ** 2)
        + 4.0 * math.log(k + 1.0) ** 2
        - 2.0 * math.log((k + 2.0) / (k + 1.0)) ** 2
        - 2.0 * math.log(k * (k + 2.0)) * math.log(k + 1.0))


_GL_N, _GL_W = np.polynomial.legendre.leggauss(24)


def _gl_panels(f, a: float, b: float, panels: int = 8) -> float:
    # all panels in one call of f; the panel sums are added in panel order
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = half[:, None] * _GL_N + 0.5 * (edges[1:] + edges[:-1])[:, None]
    return np.cumsum(half * np.sum(_GL_W * f(xs), axis=1))[-1]


def p_integral_e23e(k: int) -> float:
    """p(k) for the (e,23,e) map: the printed two-piece iterated integral
    with the inner dy integral in closed log form; p(0) = 1/2 exactly."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 0.5

    def inner(x, y_lo, y_hi):
        # int_{y_lo}^{y_hi} 6/(pi^2 x (1-y)) dy
        return 6.0 / (PI2 * x) * (np.log(1.0 - y_lo) - np.log(1.0 - y_hi))

    piece1 = _gl_panels(
        lambda x: inner(x, (1.0 - x) / (k + 1.0), x),
        1.0 / (k + 2.0), 1.0 / (k + 1.0))
    piece2 = _gl_panels(
        lambda x: inner(x, (1.0 - x) / (k + 1.0), (1.0 - x) / k),
        1.0 / (k + 1.0), 1.0)
    return piece1 + piece2


# the triples whose p(k) has a closed or printed iterated-integral form
CLOSED_FORMS = {("e", "e", "e"): p_closed_eee, ("e", "23", "e"): p_integral_e23e}


def _envelope(r) -> float:
    # the rejection constant for _draw_start, from a margin-0.01 grid, so
    # the unbounded boundary sliver is sampled slightly flat.  One long
    # orbit washes that out; many short ones from fresh starts do not
    grid = [(x, y)
            for x in np.linspace(0.02, 0.99, 40)
            for y in np.linspace(0.01, 1.0, 40) * x
            if 0.01 < y < x - 0.01]
    return 1.1 * max(r(x, y) for x, y in grid)


def _draw_start(rng: np.random.Generator, r, envelope: float) -> TrianglePoint:
    # rejection against Lebesgue on the triangle
    while True:
        u1, u2 = rng.random(2)
        x, y = max(u1, u2), min(u1, u2)
        if not 0.0 < y < x < 1.0:
            continue
        if rng.random() * envelope <= r(x, y):
            return TrianglePoint(x, y)


def empirical_digits(t: PermutationTriple, n: int, seed: int) -> EmpiricalStats:
    """Digit counts over n orbit steps of a seeded counter-based stream,
    also per batch of MC_BATCHES consecutive batches; the orbit starts from
    a density-sampled point, a boundary hit restarts it from a fresh one
    and is tallied in the restarts field."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    r = density(t)
    envelope = _envelope(r)
    key = t.key
    p = _draw_start(rng, r, envelope)
    x, y = p.x, p.y
    n_batches = min(MC_BATCHES, n)
    sizes = [n * (i + 1) // n_batches - n * i // n_batches for i in range(n_batches)]
    batches: list[dict[int, int]] = []
    restarts = 0
    for size in sizes:
        counts: dict[int, int] = {}
        left = size
        while left:
            # near-corner points carry digits ~1/y; the default cap of
            # _digit is far beyond them
            k, xp, yp = _digit(key, x, y)
            if not off_boundary(xp, yp):
                restarts += 1
                p = _draw_start(rng, r, envelope)
                x, y = p.x, p.y
                continue
            counts[k] = counts.get(k, 0) + 1
            left -= 1
            x, y = xp, yp
        batches.append(counts)
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
