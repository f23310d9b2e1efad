"""Spectral verification: eigenfunction residuals, Banach summand bounds,
and order preservation.

"The leading eigenvalue is one" is checked through its testable faces:
each tabulated eigenfunction h satisfies Lh = h pointwise on an interior
grid, the weighted-norm summand sums converge with a grid-uniform bound,
and truncated operator iterates preserve strict pointwise order, which
is checked as the positivity of every weight of their preimage trees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import NoBanachRow, NoEigenfunction, TruncationFailure
from .tables.banach import BANACH
from .tables.eigen import EIGENFUNCTIONS
from .transfer import (
    _ALL_K,
    _blocks,
    TruncationPolicy,
    apply_transfer_batch,
    branch_sums,
    preimage_tree,
)


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
    max_rel_residual: float
    truncation_k: int


def eigen_residual(t: PermutationTriple, grid_spec: GridSpec = GridSpec(),
                   eps: float = 1e-9) -> ResidualReport:
    """Max over the interior grid of |Lh(p) - h(p)| / |h(p)| for the
    tabulated eigenfunction h.  The transfer tolerance is eps/10 so the
    truncation error cannot masquerade as a residual.  The residual is
    sign-agnostic: L is linear, so an overall sign on h cancels."""
    h = EIGENFUNCTIONS.get(t.key)
    if h is None:
        raise NoEigenfunction(f"no tabulated eigenfunction for {t}")
    pts = grid_spec.points()
    xs, ys = np.array([p.x for p in pts]), np.array([p.y for p in pts])
    lh, _, cutoff = apply_transfer_batch(t, h, xs, ys, TruncationPolicy(eps=eps / 10.0))
    hp = h(xs, ys)
    return ResidualReport(max_rel_residual=float(np.max(np.abs(lh - hp) / np.abs(hp))),
                          truncation_k=int(np.max(cutoff)))


# one doubling beyond the transfer default: a summand sum stops after K = 2**17
_SUMMAND_K_MAX = 2 ** 17


def _summand_sums(t: PermutationTriple, xs: np.ndarray, ys: np.ndarray,
                  eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    row = BANACH.get(t.key)
    if row is None:
        raise NoBanachRow(f"no weighted-norm row for {t}")
    # the summands read no s: every k is one class, even on a parity row
    return branch_sums(lambda x, y, k, s: np.abs(row.summand(k, x, y)), xs, ys,
                       _ALL_K, TruncationPolicy(eps=eps, k_max=_SUMMAND_K_MAX))


def summand_sum(t: PermutationTriple, p: TrianglePoint, eps: float = 1e-9) -> float:
    """sum_k |summand(k, x, y)| for the Theorem-2.1 weight row of t.  The
    summand decays like k^-2, so the tail is summed by the same
    Euler-Maclaurin device the transfer operator uses."""
    value, err, cutoff = _summand_sums(t, np.array([p.x]), np.array([p.y]), eps)
    if not err[0] <= eps:
        raise TruncationFailure(
            f"summand tail estimate {err[0]:.3e} > {eps:.3e} at K={cutoff[0]}")
    return float(value[0])


def summand_bound(t: PermutationTriple, grid_spec: GridSpec = GridSpec(),
                  eps: float = 1e-9) -> float:
    """Grid maximum of summand_sum; the numerical face of "a bound
    independent of (x, y)".  A point whose sum does not converge counts
    as inf, so the maximum is finite exactly when every sum converged."""
    pts = grid_spec.points()
    value, err, _ = _summand_sums(t, np.array([p.x for p in pts]),
                                  np.array([p.y for p in pts]), eps)
    return float(np.max(np.where(err <= eps, value, np.inf)))


# lower and upper ends of a root's x and of y / x
_DRAW_LO = np.array([0.15, 0.1])
_DRAW_HI = np.array([0.85, 0.9])


def _draw_trials(seed: int, trials: int):
    """The root (x, y) of each trial from one (trials, 2) draw of the
    seeded stream: x and y / x in the _DRAW_LO, _DRAW_HI box, then y
    clipped to [0.05, x - 0.05]."""
    u = np.random.default_rng(seed).random((trials, 2))
    x, y_over_x = (_DRAW_LO + (_DRAW_HI - _DRAW_LO) * u).T
    return x, np.clip(y_over_x * x, 0.05, x - 0.05)


def monotonicity_check(t: PermutationTriple, n: int = 2, trials: int = 20,
                       seed: int = 0, branches: int = 16) -> bool:
    """Order preservation of the fixed-K truncated operator L^n at random
    interior roots, checked as what it rests on: L^n g - L^n f = L^n(g - f)
    is a sum of tree weights times values of g - f, so positive weights
    carry f < g pointwise to L^n f < L^n g.  Returns whether every weight
    of every level of each root's preimage tree, branches**n leaves deep n
    levels, is > 0; a zero weight fails it although the order could hold.
    The trials share trees, as many roots per tree as fit in the block
    budget of transfer (_blocks); a weight or branch point that is not
    finite, in any trial, raises EvaluationSingularity."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if branches < 1:
        raise ValueError("branches must be at least 1")
    xs, ys = _draw_trials(seed, trials)
    positive = True
    for roots in _blocks(trials, branches ** n):
        _, _, weights = preimage_tree(t, xs[roots], ys[roots], n, branches)
        positive &= all(bool((w > 0).all()) for w in weights)
    return positive
