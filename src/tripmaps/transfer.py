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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import EvaluationSingularity, StencilOutOfDomain, TruncationFailure
from .tables.transfer_rows import TRANSFER

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)   # map to (0, 1)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


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


def _tail_sum(u: Callable[[float], float], scale: float) -> tuple[float, float]:
    """sum_{m=0}^inf u(m) for smooth polynomially decaying u; (value, err)."""
    vals = 0.0
    for v, w in zip(_GL_NODES, _GL_WEIGHTS):
        m = scale * v / (1.0 - v)
        vals += w * u(m) * scale / (1.0 - v) ** 2
    u0 = u(0.0)
    up1, um1 = u(0.5), u(-0.5)
    up2, um2 = u(1.0), u(-1.0)
    d1 = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / 6.0
    d3 = (up2 - 2.0 * up1 + 2.0 * um1 - um2) / 0.25
    value = vals + 0.5 * u0 - d1 / 12.0 + d3 / 720.0
    err = abs(d3) / 720.0 * 0.25 + (abs(vals) + abs(u0)) * 1e-15
    return value, err


def apply_transfer(t: PermutationTriple, f: Callable[[float, float], float],
                   p: TrianglePoint, pol: TruncationPolicy = TruncationPolicy(),
                   stats: dict | None = None) -> tuple[float, float]:
    """(L_t f)(p) with an error estimate; raises TruncationFailure if the
    estimate cannot be brought under pol.eps within pol.k_max terms.
    When a dict is passed as stats, the direct-summation cutoff K is
    recorded under "K"."""
    row = _row(t)
    x, y = p.x, p.y

    def term(k: float, s: float) -> float:
        w = row.weight(k, x, y, s)
        a, b = row.branch(k, x, y, s)
        return w * f(a, b)

    K = 32
    while True:
        try:
            direct = math.fsum(
                term(float(k), -1.0 if (k & 1) else 1.0) for k in range(K))
            if not row.parity:
                tail, terr = _tail_sum(lambda m: term(K + m, 1.0), float(K))
            else:
                s_even = -1.0 if (K & 1) else 1.0
                t0, e0 = _tail_sum(lambda m: term(K + 2.0 * m, s_even), K / 2.0)
                t1, e1 = _tail_sum(lambda m: term(K + 1 + 2.0 * m, -s_even), K / 2.0)
                tail, terr = t0 + t1, e0 + e1
        except ZeroDivisionError as exc:
            raise EvaluationSingularity(f"transfer term singular near {p}") from exc
        if terr <= pol.eps:
            if stats is not None:
                stats["K"] = K
            return direct + tail, terr
        if 2 * K > pol.k_max:
            raise TruncationFailure(
                f"tail estimate {terr:.3e} > eps {pol.eps:.3e} at K={K}, "
                f"k_max={pol.k_max}")
        K *= 2


def partial_transfer(t: PermutationTriple, f: Callable[[float, float], float],
                     p: TrianglePoint, K: int) -> float:
    """Plain truncated branch sum over k < K; exact termwise positivity
    makes this the right tool for order-preservation checks."""
    row = _row(t)
    x, y = p.x, p.y
    total = 0.0
    for k in range(K):
        s = -1.0 if (k & 1) else 1.0
        w = row.weight(float(k), x, y, s)
        a, b = row.branch(float(k), x, y, s)
        total += w * f(a, b)
    return total


def jacobian_residual(t: PermutationTriple, k: int, p: TrianglePoint,
                      h: float = 1e-5) -> float:
    """Relative gap between the tabulated weight and the finite-difference
    Jacobian determinant of the inverse branch."""
    x, y = p.x, p.y
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
