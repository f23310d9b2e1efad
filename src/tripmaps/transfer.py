"""Transfer-operator application with controlled truncation error.

The branch sum has terms decaying like k^-3 (k^-2 against weighted test
functions), so plain truncation cannot reach the 1e-8 .. 1e-10 tolerances
the eigenvalue tests need.  Instead the first K terms are summed directly
and the tail is evaluated by Euler-Maclaurin: tabulated rows take the
parity sign as an explicit argument, so each parity class extends to a
smooth function of real k and

    sum_{m>=0} u(m) = int_0^inf u + u(0)/2 - u'(0)/12 + u'''(0)/720 + ...

applies per class.  The integral is done by 64-point Gauss-Legendre under
m = scale*v/(1-v), which turns the polynomial tail into a polynomial in v;
derivatives use five-point central differences (evaluating u at small
negative m is legal, it only shifts k below K).

The sums run on arrays of points.  The table lambdas are plain arithmetic,
so they broadcast over points x k: branch_sums evaluates a block of points
at every k its cutoff K needs (the direct terms k < K and the 69 tail
abscissae of each parity class) in one call, adds the direct terms of each
point with math.fsum, and doubles K only for the points whose tail
estimate is still above eps.  apply_transfer_batch is the transfer
operator on that path and apply_transfer its one-point face.  The fixed-K
sums of the order-preservation checks form one preimage tree over an
array of roots, built once, evaluated at its leaves and folded back level
by level to one value per root; partial_transfer is its one-level,
one-root face.  A test function f is called with
arrays of branch points; a scalar result is broadcast, and an f that
cannot take arrays raises NotArrayNative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import EvaluationSingularity, StencilOutOfDomain, TruncationFailure
from .specfun import _eval_vec
from .tables.transfer_rows import TRANSFER

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)   # map to (0, 1)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
# m = 0, 1/2, -1/2, 1, -1: u(0) and the central differences of u'(0), u'''(0)
_STENCIL = np.array([0.0, 0.5, -0.5, 1.0, -1.0])
_TAIL_N = _GL_NODES.size + _STENCIL.size
# points x columns evaluated at once (24 to 40 points at the first K): each
# temporary is 32 KB however far K doubles, small enough that the allocator
# reuses it instead of growing the heap
_BLOCK_TERMS = 1 << 12


@dataclass(frozen=True)
class TruncationPolicy:
    eps: float = 1e-8
    k_max: int = 100_000

    def __post_init__(self) -> None:
        if self.eps <= 0 or self.k_max < 1:
            raise ValueError("invalid truncation policy")


def _row(t: PermutationTriple):
    return TRANSFER[t.key]


def _branch_raw(row, k, x, y):
    s = -1.0 if (int(round(k)) & 1) else 1.0
    try:
        return row.branch(k, x, y, s)
    except ZeroDivisionError as exc:
        raise EvaluationSingularity(f"branch singular at k={k}, ({x}, {y})") from exc


def branch_point(t: PermutationTriple, k: int, p: TrianglePoint) -> TrianglePoint:
    if k < 0:
        raise ValueError("k must be non-negative")
    a, b = _branch_raw(_row(t), k, p.x, p.y)
    return TrianglePoint(a, b)


def weight(t: PermutationTriple, k: int, p: TrianglePoint) -> float:
    if k < 0:
        raise ValueError("k must be non-negative")
    row = _row(t)
    s = -1.0 if (k & 1) else 1.0
    try:
        w = row.weight(k, p.x, p.y, s)
    except ZeroDivisionError as exc:
        raise EvaluationSingularity(f"weight singular at k={k}, {p}") from exc
    return w


def _signs(K: int) -> np.ndarray:
    return np.where(np.arange(K) & 1, -1.0, 1.0)


def _tail_points(scale: float) -> np.ndarray:
    """The m at which _tail_sum needs u: the Gauss-Legendre abscissae
    scale*v/(1-v), then _STENCIL."""
    return np.concatenate((scale * _GL_NODES / (1.0 - _GL_NODES), _STENCIL))


def _tail_sum(vals: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """sum_{m=0}^inf u(m) for smooth polynomially decaying u, one sum per
    row of vals, the values of u at _tail_points(scale); (value, err)."""
    # the weighted sum stays out of BLAS: a threaded matrix-vector product
    # burns CPU on every core for no wall-clock gain at these sizes
    jac = _GL_WEIGHTS * scale / (1.0 - _GL_NODES) ** 2
    quad = np.sum(vals[:, :_GL_NODES.size] * jac, axis=-1)
    u0, up1, um1, up2, um2 = vals[:, _GL_NODES.size:].T
    d1 = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / 6.0
    d3 = (up2 - 2.0 * up1 + 2.0 * um1 - um2) / 0.25
    value = quad + 0.5 * u0 - d1 / 12.0 + d3 / 720.0
    err = np.abs(d3) / 720.0 * 0.25 + (np.abs(quad) + np.abs(u0)) * 1e-15
    return value, err


def _columns(K: int, parity: bool):
    """k and s of every term at cutoff K: the direct terms k < K, then the
    tail abscissae of each parity class; and (first column, scale) of each
    tail class."""
    kd, sd = np.arange(K, dtype=float), _signs(K)
    ones = np.ones(_TAIL_N)
    if not parity:
        k = np.concatenate((kd, K + _tail_points(float(K))))
        return k, np.concatenate((sd, ones)), ((K, float(K)),)
    # K is a power of two, so the class k = K + 2m is the even one
    m = _tail_points(K / 2.0)
    k = np.concatenate((kd, K + 2.0 * m, K + 1 + 2.0 * m))
    s = np.concatenate((sd, ones, -ones))
    return k, s, ((K, K / 2.0), (K + _TAIL_N, K / 2.0))


def branch_sums(terms: Callable, xs: np.ndarray, ys: np.ndarray, parity: bool,
                pol: TruncationPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sum_{k>=0} u(k, x, y) at each point of the 1-d arrays xs, ys, where
    terms(x, y, k, s) gives u on a column of points x, y and a row of real
    k with signs s.  Each point starts at K = 32 and doubles K until its
    tail estimate is at most pol.eps, or until doubling would pass
    pol.k_max.  Returns the value, the error estimate and the final K of
    each point; a point whose estimate never met eps keeps those of its
    last K."""
    n = xs.size
    value, err = np.empty(n), np.empty(n)
    cutoff = np.zeros(n, dtype=int)
    todo = np.arange(n)
    K = 32
    while True:
        k, s, tails = _columns(K, parity)
        step = max(1, _BLOCK_TERMS // k.size)
        for lo in range(0, todo.size, step):
            idx = todo[lo:lo + step]
            x, y = xs[idx, None], ys[idx, None]
            u = np.broadcast_to(terms(x, y, k, s), (idx.size, k.size))
            finite = np.isfinite(u).all(axis=1)
            if not finite.all():
                i = idx[np.argmin(finite)]
                raise EvaluationSingularity(
                    f"branch sum term not finite near ({xs[i]}, {ys[i]})")
            direct = np.array([math.fsum(r) for r in u[:, :K].tolist()])
            tail, terr = 0.0, 0.0
            for first, scale in tails:
                tc, ec = _tail_sum(u[:, first:first + _TAIL_N], scale)
                tail, terr = tail + tc, terr + ec
            value[idx], err[idx], cutoff[idx] = direct + tail, terr, K
        todo = todo[~(err[todo] <= pol.eps)]     # nan stays to be refined
        if todo.size == 0 or 2 * K > pol.k_max:
            return value, err, cutoff
        K *= 2


def apply_transfer_batch(t: PermutationTriple, f: Callable, xs: np.ndarray,
                         ys: np.ndarray, pol: TruncationPolicy = TruncationPolicy()
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L_t f) at the points (xs[i], ys[i]) of two 1-d arrays: the value,
    the error estimate and the cutoff K of each point.  Raises
    TruncationFailure if some estimate cannot be brought under pol.eps
    within pol.k_max terms."""
    row = _row(t)

    def terms(x, y, k, s):
        shape = (x.size, k.size)
        a, b = row.branch(k, x, y, s)
        return row.weight(k, x, y, s) * _eval_vec(
            f, np.broadcast_to(a, shape), np.broadcast_to(b, shape))

    value, err, cutoff = branch_sums(terms, xs, ys, row.parity, pol)
    bad = ~(err <= pol.eps)
    if bad.any():
        i = np.argmax(bad)
        raise TruncationFailure(
            f"tail estimate {err[i]:.3e} > eps {pol.eps:.3e} at K={cutoff[i]}, "
            f"k_max={pol.k_max}")
    return value, err, cutoff


def apply_transfer(t: PermutationTriple, f: Callable[[float, float], float],
                   p: TrianglePoint, pol: TruncationPolicy = TruncationPolicy(),
                   stats: dict | None = None) -> tuple[float, float]:
    """(L_t f)(p) with an error estimate; raises TruncationFailure if the
    estimate cannot be brought under pol.eps within pol.k_max terms.
    When a dict is passed as stats, the direct-summation cutoff K is
    recorded under "K"."""
    value, err, cutoff = apply_transfer_batch(t, f, np.array([p.x]), np.array([p.y]), pol)
    if stats is not None:
        stats["K"] = int(cutoff[0])
    return float(value[0]), float(err[0])


def preimage_tree(t: PermutationTriple, xs: np.ndarray, ys: np.ndarray, depth: int,
                  K: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The branches k < K of each root (xs[r], ys[r]), of their branches,
    and so on depth times: the R*K**depth leaves as arrays xs, ys, root
    r's leaves forming the block r*K**depth .. (r+1)*K**depth - 1, and the
    weights of each level, level l of shape (R*K**l, K) with node i's k-th
    child at leaf index i*K + k of the next level."""
    row = _row(t)
    k, s = np.arange(K, dtype=float), _signs(K)
    roots = xs, ys
    weights = []
    for level in range(depth):
        x, y = xs[:, None], ys[:, None]
        shape = (xs.size, K)
        a, b = row.branch(k, x, y, s)
        w, a, b = (np.broadcast_to(v, shape) for v in (row.weight(k, x, y, s), a, b))
        finite = np.isfinite(w) & np.isfinite(a) & np.isfinite(b)
        if not finite.all():
            r = np.argmin(finite.all(axis=1)) // K ** level
            raise EvaluationSingularity(
                f"branch of {t} singular below ({roots[0][r]}, {roots[1][r]})")
        weights.append(w)
        xs, ys = a.ravel(), b.ravel()
    return xs, ys, weights


def fold_tree(weights: list[np.ndarray], leaf_values: np.ndarray) -> np.ndarray:
    """Fold leaf values back to the roots, sum_k w * value one level at a
    time: one value per root.  The leaves run along the last axis of
    leaf_values; leading axes fold independently, and the result has
    them followed by one axis over the roots."""
    vals = leaf_values
    for w in reversed(weights):
        vals = np.sum(w * vals.reshape(vals.shape[:-1] + w.shape), axis=-1)
    return vals


def partial_transfer(t: PermutationTriple, f: Callable[[float, float], float],
                     p: TrianglePoint, K: int) -> float:
    """Plain truncated branch sum over k < K; exact termwise positivity
    makes this the right tool for order-preservation checks."""
    xs, ys, weights = preimage_tree(t, np.array([p.x]), np.array([p.y]), 1, K)
    return float(fold_tree(weights, _eval_vec(f, xs, ys))[0])


def jacobian_residual(t: PermutationTriple, k: int, p: TrianglePoint) -> float:
    """Relative gap between the tabulated weight and the central-difference
    Jacobian determinant of the inverse branch, step h = 1e-5; raises
    StencilOutOfDomain for p within h of an edge."""
    x, y, h = p.x, p.y, 1e-5
    for (xx, yy) in ((x + h, y), (x - h, y), (x, y + h), (x, y - h)):
        if not (0.0 < yy < xx < 1.0):
            raise StencilOutOfDomain(f"stencil leaves the triangle at ({xx}, {yy})")
    row = _row(t)
    axp, ayp = _branch_raw(row, float(k), x + h, y)
    axm, aym = _branch_raw(row, float(k), x - h, y)
    bxp, byp = _branch_raw(row, float(k), x, y + h)
    bxm, bym = _branch_raw(row, float(k), x, y - h)
    j11 = (axp - axm) / (2 * h)
    j21 = (ayp - aym) / (2 * h)
    j12 = (bxp - bxm) / (2 * h)
    j22 = (byp - bym) / (2 * h)
    det = abs(j11 * j22 - j12 * j21)
    w = weight(t, k, p)
    return abs(w - det) / w
