"""Spectral verification: eigenfunction residuals, Banach summand bounds,
and order preservation.

"The leading eigenvalue is one" is checked through its testable faces:
each tabulated eigenfunction h satisfies Lh = h pointwise on an interior
grid, the weighted-norm summand sums converge with a grid-uniform bound,
and truncated operator iterates preserve strict pointwise order.
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
    fold_tree,
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


def _smooth(a: np.ndarray, x, y):
    return a[0] + a[1] * x + a[2] * y + a[3] * x * y


def _bump(c: np.ndarray, x, y):
    # strictly positive on the closed triangle
    return 0.05 + c[0] * x * (1 - x) + c[1] * y + c[2] * (x - y)


# lower and upper ends of a trial's nine draws: a (4), c (3), x and y / x
_DRAW_LO = np.array([-1.0, -1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.15, 0.1])
_DRAW_HI = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.85, 0.9])


def _draw_trials(seed: int, trials: int):
    """The coefficients a of f, c of the bump and the root (x, y) of each
    trial, one row per trial, from one draw of the seeded stream."""
    d = _DRAW_LO + (_DRAW_HI - _DRAW_LO) * np.random.default_rng(seed).random((trials, 9))
    x = d[:, 7]
    return d[:, :4], d[:, 4:7], x, np.clip(d[:, 8] * x, 0.05, x - 0.05)


def monotonicity_check(t: PermutationTriple, n: int = 2, trials: int = 20,
                       seed: int = 0, branches: int = 16) -> bool:
    """f < g pointwise implies L^n f < L^n g pointwise.  Checked on random
    pairs g = f + bump at random interior points; the operator iterates use
    a fixed-K truncated branch sum, which preserves strict order termwise
    because every weight is positive.  As L^n g - L^n f = L^n(bump) with a
    positive bump, the check can fail only if some tree weight is <= 0 or
    not finite.  The trials share preimage trees of branches**n leaves per
    root, as many roots per tree as fit in the block budget of transfer
    (_blocks); a singular branch in any trial raises EvaluationSingularity."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if branches < 1:
        raise ValueError("branches must be at least 1")
    a, c, xs, ys = _draw_trials(seed, trials)
    leaves = branches ** n
    ordered = True
    for roots in _blocks(trials, leaves):
        lx, ly, weights = preimage_tree(t, xs[roots], ys[roots], n, branches)
        lx, ly = lx.reshape(-1, leaves), ly.reshape(-1, leaves)
        f = _smooth(a[roots].T[..., None], lx, ly)
        g = f + _bump(c[roots].T[..., None], lx, ly)
        lf, lg = fold_tree(weights, np.stack((f.ravel(), g.ravel())))
        ordered &= bool((lf < lg).all())
    return ordered
