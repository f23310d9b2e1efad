"""Transfer-operator application with controlled truncation error.

The branch sum has terms decaying like k^-3 (k^-2 against weighted test
functions), so plain truncation cannot reach the 1e-8 .. 1e-10 tolerances
the eigenvalue tests need.  Instead the first K terms are summed directly
and the tail is evaluated by Euler-Maclaurin: tabulated rows take the
parity sign as an explicit argument, so each parity class extends to a
smooth function of real k and

    sum_{m>=0} u(m) = int_0^inf u + u(0)/2 - u'(0)/12 + u'''(0)/720 + ...

applies per class.  The classes of a row, k = first + step*m with one
sign s each, are listed once, by trip._parities: every k on a parity-free
row, even and odd k on a parity row.  The tail columns loop over them.
The integral is done by 64-point Gauss-Legendre under m = scale*v/(1-v),
which turns the polynomial tail into a polynomial in v; derivatives use
five-point central differences (evaluating u at small negative m is
legal, it only shifts k below K).

Every numeric evaluation of a transfer row goes through _inverse, with s
from trip.parity_sign or from a class of trip._parities: it returns the
weight and the branch point broadcast to one shape, inf or nan where the
row is singular.  The one-point faces, the branch sums and the preimage
trees report a non-finite value as EvaluationSingularity.

The sums run on arrays of points.  The table lambdas are plain arithmetic,
so they broadcast over points x k: branch_sums evaluates a block of points
at every k its cutoff K needs (the direct terms k < K and the 69 tail
abscissae of each parity class) in one call, adds the direct terms of each
point with math.fsum, and doubles K only for the points whose tail
estimate is still above eps.  apply_transfer_batch is the transfer
operator on that path and apply_transfer its one-point face.  The fixed-K
branches k < K of an array of roots, of their branches and so on, form
one preimage tree, built once: the order-preservation check reads the
weights of its every level, partial_transfer sums f over a one-level,
one-root tree, and maps.branch_roundtrip takes its branch points from a
one-level tree.  A test function f is called with arrays of branch
points; a scalar result is broadcast, and an f that cannot take arrays
raises NotArrayNative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import PermutationTriple, TrianglePoint, in_triangle, integer
from .errors import EvaluationSingularity, StencilOutOfDomain, TruncationFailure
from .specfun import _eval_vec
from .tables.transfer_rows import TRANSFER
from .trip import _parities, parity_sign

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)   # map to (0, 1)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
# m = 0, 1/2, -1/2, 1, -1: u(0) and the central differences of u'(0), u'''(0)
_STENCIL = np.array([0.0, 0.5, -0.5, 1.0, -1.0])
_TAIL_N = _GL_NODES.size + _STENCIL.size
# points x columns of a branch sum, or leaves of an order-check tree,
# evaluated at once (_blocks): 48 to 81 points at the first K, 4 roots of
# 12**3 leaves.  For a pointwise test function each temporary is 64 KB
# however far K doubles.  A test function that integrates at each point
# multiplies that by its node count, 48 or 64 dm nodes for the transforms
# of hilbert, which sum one point at a time.  Chosen on the untraced
# operator-sweep benchmark, median verify_s of 6 runs each on 2 vCPUs:
# 0.434 s at 4096, 0.350 s at 8192, 0.350 s at 16384 and 0.353 s at 32768
# terms, with peak RSS 39.8, 39.9, 40.6 and 41.7 MB.  It is the smallest
# budget as fast as the fastest; no value depends on it.
_BLOCK_TERMS = 1 << 13


@dataclass(frozen=True)
class TruncationPolicy:
    eps: float = 1e-8
    k_max: int = 100_000

    def __post_init__(self) -> None:
        # written so that a nan eps fails too
        if not (0.0 < self.eps < math.inf):
            raise ValueError("invalid truncation policy")
        object.__setattr__(self, "k_max", integer("k_max", self.k_max, 1))


def _row(t: PermutationTriple):
    return TRANSFER[t.key]


def _broadcast(values, *args):
    """values broadcast to the shape of args together, each left as it is
    where it has that shape: one value per k and point, whichever of them
    a table formula reads."""
    shape = np.broadcast(*args).shape
    return [v if np.shape(v) == shape else np.broadcast_to(v, shape) for v in values]


def _inverse(row, k, x, y, s):
    """The weight and branch point (w, a, b) of the transfer row at k with
    sign s, broadcast to one shape over k, x and y; inf or nan where the
    row is singular.  Every numeric evaluation of a transfer row goes
    through here.  x and y are float arrays or numpy float scalars, so a
    vanishing denominator divides as numpy does; on scalars ** has the
    bits of Python's, not those of numpy's vector pow."""
    with np.errstate(all="ignore"):
        w = row.weight(k, x, y, s)
        a, b = row.branch(k, x, y, s)
    return _broadcast((w, a, b), k, x, y)


def _checked(t: PermutationTriple, k: int, x, y):
    """_inverse of t's row at an integer k >= 0; raises
    EvaluationSingularity where w, a or b is not finite."""
    k = integer("k", k)
    w, a, b = _inverse(_row(t), k, x, y, parity_sign(k))
    if not np.isfinite((w, a, b)).all():
        raise EvaluationSingularity(f"branch {k} of {t} singular at ({x}, {y})")
    return w, a, b


def branch_point(t: PermutationTriple, k: int, p: TrianglePoint) -> TrianglePoint:
    _, a, b = _checked(t, k, np.float64(p.x), np.float64(p.y))
    return TrianglePoint(float(a), float(b))


def weight(t: PermutationTriple, k: int, p: TrianglePoint) -> float:
    return float(_checked(t, k, np.float64(p.x), np.float64(p.y))[0])


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


def _columns(K: int, parities):
    """k and s of every term at cutoff K: the direct terms k < K, then the
    tail abscissae of each class of parities; and (first column, scale) of
    each tail class.  K is a power of two, so the class k = K + first +
    step*m has the sign of first."""
    ks, ss, tails = [np.arange(K, dtype=float)], [parity_sign(np.arange(K))], []
    for first, step, s in parities:
        tails.append((K + len(tails) * _TAIL_N, K / step))
        ks.append(K + first + step * _tail_points(K / step))
        ss.append(np.full(_TAIL_N, s))
    return np.concatenate(ks), np.concatenate(ss), tails


def _blocks(n: int, width: int) -> list[slice]:
    """Slices cutting range(n) into blocks of _BLOCK_TERMS // width items,
    at least one: the one chunking of branch sums (width = columns per
    point) and of order-check trees (width = leaves per root)."""
    step = max(1, _BLOCK_TERMS // width)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def branch_sums(terms: Callable, xs: np.ndarray, ys: np.ndarray, parities,
                pol: TruncationPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sum_{k>=0} u(k, x, y) at each point of the 1-d arrays xs, ys, where
    terms(x, y, k, s) gives u on a column of points x, y and a row of real
    k with signs s, and parities lists the classes of k (_parities) along
    which u is smooth.  Each point starts at K = 32 and doubles K until its
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
        k, s, tails = _columns(K, parities)
        for block in _blocks(todo.size, k.size):
            idx = todo[block]
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
        w, a, b = _inverse(row, k, x, y, s)
        return w * _eval_vec(f, a, b)

    value, err, cutoff = branch_sums(terms, xs, ys, _parities(t.key), pol)
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
    child at leaf index i*K + k of the next level.  Raises
    EvaluationSingularity where a weight or branch point is not finite."""
    row = _row(t)
    k = np.arange(K)
    s = parity_sign(k)
    roots = xs, ys
    weights = []
    for level in range(depth):
        w, a, b = _inverse(row, k, xs[:, None], ys[:, None], s)
        finite = np.isfinite(w) & np.isfinite(a) & np.isfinite(b)
        if not finite.all():
            r = np.argmin(finite.all(axis=1)) // K ** level
            raise EvaluationSingularity(
                f"branch of {t} singular below ({roots[0][r]}, {roots[1][r]})")
        weights.append(w)
        xs, ys = a.ravel(), b.ravel()
    return xs, ys, weights


def partial_transfer(t: PermutationTriple, f: Callable[[float, float], float],
                     p: TrianglePoint, K: int) -> float:
    """Plain truncated branch sum over k < K, the one level of a one-root
    preimage tree: sum_k w_k(p) f(branch_k(p)) with no tail."""
    xs, ys, (w,) = preimage_tree(t, np.array([p.x]), np.array([p.y]), 1, K)
    return float(np.sum(w * _eval_vec(f, xs, ys).reshape(w.shape), axis=-1)[0])


def jacobian_residual(t: PermutationTriple, k: int, p: TrianglePoint) -> float:
    """Relative gap between the tabulated weight and the central-difference
    Jacobian determinant of the inverse branch, step h = 1e-5, over |w|,
    so a weight of the wrong sign reads about 2; raises
    StencilOutOfDomain for p within h of an edge."""
    x, y, h = p.x, p.y, 1e-5
    xs, ys = np.array([x + h, x - h, x, x]), np.array([y, y, y + h, y - h])
    inside = in_triangle((xs, ys))
    if not inside.all():
        i = int(np.argmin(inside))
        raise StencilOutOfDomain(
            f"stencil leaves the triangle at ({float(xs[i])}, {float(ys[i])})")
    # the four stencil points in one call: the branch formulas hold no **,
    # so an array has the bits of four scalar calls
    _, a, b = _checked(t, k, xs, ys)
    j11, j12 = (a[0::2] - a[1::2]) / (2 * h)
    j21, j22 = (b[0::2] - b[1::2]) / (2 * h)
    det = abs(j11 * j22 - j12 * j21)
    w = weight(t, k, p)
    return float(abs(w - det) / abs(w))
