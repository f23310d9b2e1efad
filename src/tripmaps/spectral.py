"""Spectral verification: eigenfunction residuals, Banach summand bounds,
order preservation, and empirical boundedness constants.

"The leading eigenvalue is one" is checked through its testable faces:
each tabulated eigenfunction h satisfies Lh = h pointwise on an interior
grid, the weighted-norm summand sums converge with a grid-uniform bound,
and truncated operator iterates preserve strict pointwise order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import NoBanachRow, NoEigenfunction, TruncationFailure
from .tables.banach import BANACH
from .tables.eigen import EIGENFUNCTIONS
from .transfer import TruncationPolicy, _tail_sum, apply_transfer, partial_transfer


@dataclass(frozen=True)
class GridSpec:
    margin: float = 0.05
    density: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.margin < 1.0 / 3.0):
            raise ValueError("margin must lie in (0, 1/3)")
        if self.density < 2:
            raise ValueError("density must be at least 2")

    def points(self) -> list[TrianglePoint]:
        m, n = self.margin, self.density
        pts = []
        for i in range(n):
            x = 2 * m + (1.0 - 3 * m) * i / (n - 1)
            for j in range(n):
                y = m + (x - 2 * m) * j / (n - 1)
                pts.append(TrianglePoint(x, y))
        return pts


@dataclass(frozen=True)
class ResidualReport:
    triple: PermutationTriple
    grid: list[TrianglePoint]
    max_rel_residual: float
    truncation_k: int


@dataclass(frozen=True)
class SumBoundReport:
    triple: PermutationTriple
    grid: list[TrianglePoint]
    max_sum: float
    converged: list[bool] = field(default_factory=list)


def eigen_residual(t: PermutationTriple, grid_spec: GridSpec = GridSpec(),
                   eps: float = 1e-9) -> ResidualReport:
    """Max over the interior grid of |Lh(p) - h(p)| / |h(p)| for the
    tabulated eigenfunction h.  The transfer tolerance is eps/10 so the
    truncation error cannot masquerade as a residual.  The residual is
    sign-agnostic: L is linear, so an overall sign on h cancels."""
    h = EIGENFUNCTIONS.get(t.key)
    if h is None:
        raise NoEigenfunction(f"no tabulated eigenfunction for {t}")
    pol = TruncationPolicy(eps=eps / 10.0)
    worst = 0.0
    k_used = 0
    for p in grid_spec.points():
        stats: dict = {}
        val, _ = apply_transfer(t, h, p, pol, stats=stats)
        hp = h(p.x, p.y)
        worst = max(worst, abs(val - hp) / abs(hp))
        k_used = max(k_used, stats.get("K", 0))
    return ResidualReport(triple=t, grid=grid_spec.points(),
                          max_rel_residual=worst, truncation_k=k_used)


def summand_sum(t: PermutationTriple, p: TrianglePoint, eps: float = 1e-9) -> float:
    """sum_k |summand(k, x, y)| for the Theorem-2.1 weight row of t.  The
    summand decays like k^-2, so the tail is summed by the same
    Euler-Maclaurin device the transfer operator uses."""
    row = BANACH.get(t.key)
    if row is None:
        raise NoBanachRow(f"no weighted-norm row for {t}")
    x, y = p.x, p.y

    def u_at(k: float) -> float:
        return abs(row.summand(k, x, y))

    K = 32
    while True:
        direct = math.fsum(u_at(float(k)) for k in range(K))
        tail, terr = _tail_sum(lambda m: u_at(K + m), float(K))
        if terr <= eps:
            return direct + tail
        if K > 100_000:
            raise TruncationFailure(
                f"summand tail estimate {terr:.3e} > {eps:.3e} at K={K}")
        K *= 2


def summand_bound(t: PermutationTriple, grid_spec: GridSpec = GridSpec(),
                  eps: float = 1e-9) -> SumBoundReport:
    """Grid maximum of summand_sum; the numerical face of "a bound
    independent of (x, y)"."""
    pts = grid_spec.points()
    sums = []
    converged = []
    for p in pts:
        try:
            sums.append(summand_sum(t, p, eps))
            converged.append(True)
        except TruncationFailure:
            sums.append(float("inf"))
            converged.append(False)
    return SumBoundReport(triple=t, grid=pts, max_sum=max(sums), converged=converged)


def _random_smooth(rng: np.random.Generator):
    a = rng.uniform(-1.0, 1.0, size=4)
    return lambda x, y: a[0] + a[1] * x + a[2] * y + a[3] * x * y


def _random_bump(rng: np.random.Generator):
    # strictly positive on the closed triangle
    c = rng.uniform(0.0, 1.0, size=3)
    return lambda x, y: 0.05 + c[0] * x * (1 - x) + c[1] * y + c[2] * (x - y)


def monotonicity_check(t: PermutationTriple, n: int = 2, trials: int = 20,
                       seed: int = 0, branches: int = 16) -> bool:
    """f < g pointwise implies L^n f < L^n g pointwise.  Checked on random
    pairs g = f + bump at random interior points; the operator iterates use
    a fixed-K truncated branch sum, which preserves strict order termwise
    because every weight is positive."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)

    def iterate(fun, depth):
        if depth == 0:
            return fun
        inner = iterate(fun, depth - 1)
        return lambda x, y: partial_transfer(t, inner, TrianglePoint(x, y), branches)

    for _ in range(trials):
        f = _random_smooth(rng)
        bump = _random_bump(rng)
        g = lambda x, y, f=f, bump=bump: f(x, y) + bump(x, y)
        x = rng.uniform(0.15, 0.85)
        y = rng.uniform(0.1, 0.9) * x
        y = min(max(y, 0.05), x - 0.05)
        lf = iterate(f, n)(x, y)
        lg = iterate(g, n)(x, y)
        if not lf < lg:
            return False
    return True


def boundedness_ratio(t: PermutationTriple, f, grid_spec: GridSpec = GridSpec()) -> float:
    """Empirical constant B with -B h < f < B h: the grid max of |f/h|."""
    h = EIGENFUNCTIONS.get(t.key)
    if h is None:
        raise NoEigenfunction(f"no tabulated eigenfunction for {t}")
    return max(abs(f(p.x, p.y) / h(p.x, p.y)) for p in grid_spec.points())
