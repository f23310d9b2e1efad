"""Forward iteration: branch formulas, digit extraction, orbit steps.

Digit extraction inverts the implicit partition of the triangle: digit k is
the branch index whose formula maps the point back into the closed
triangle, the lowest one where rounding admits a run of them.

Every digit comes from one solver, _solve, on arrays of points; an orbit
step and extract_digit call it on one-element arrays.  Every numeric
evaluation of a forward row goes through _images, and of an inverse row
through transfer._inverse; only the exact ranges call a row directly, on
rationals.

On parity-free rows, which include all 18 density rows and both ergodic
maps, both image components are affine in k, and the line through the
images at k = 0 and 1 brackets the digit in two evaluations (_lines,
_bracket).

On parity rows the window comes from a search.  The inverse branches are
F1^k F0, F0 the digit-0 branch, so the points of digit at least K form the
nested triangle F1^K(triangle), and a point p lies in it exactly when
F1^-K(p) = branch_0(T_K(p)) does, T_K the forward formula of digit K.
That test is monotone in K: a galloping search (K = 1, 2, 4, ..., then
bisection) finds the digit in O(log k) evaluations, for arrays of points
at once, and the membership test confirms the integers next to it.

Far out either window loses the digit: T_K carries terms of size K, and
next to a vertex their rounding smears the test over up to millions of
steps.  So beyond _SHALLOW, and wherever the confirmation is not clean,
the digit comes from the row formula evaluated in exact rational
arithmetic: within one parity class (k even, or k odd) both image
components are linear-fractional in k, (a + b k)/(1 + d k), with one
shared pole, so three exact samples fix each membership constraint
y' >= 0, x' - y' >= 0, x' <= 1, and each holds on a half-line on each side
of the pole.  A scan over the 64 steps on each side of the ranges so
found applies the tie rules in rounded arithmetic, as a scan from k = 0
would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domain import PermutationTriple, TrianglePoint, in_triangle
from .errors import (
    AmbiguousDigit,
    BoundaryHit,
    DigitNotFound,
    EvaluationSingularity,
    OutsideTriangle,
)
from .tables.forward import FORWARD
from .tables.transfer_rows import TRANSFER
from .transfer import _broadcast, _inverse, _parities, parity_sign, preimage_tree

MEMBERSHIP_TOL = 1e-12
# orbits drift arbitrarily close to the corner, where the digit grows like
# 1/y; digit extraction costs O(log k) evaluations below _SHALLOW and a
# fixed number beyond it, so the default cap is huge on purpose
K_MAX_DEFAULT = 10 ** 12

# the galloping search stops here.  Beyond it rounding smears the composed
# test and the eps*k allowance widens, so the exact path decides; below it
# a wrong answer of the search finds no clean run of hits, and goes to the
# exact path all the same
_SHALLOW = 2 ** 20
# a range of exact candidates wider than this is far longer than a
# boundary tie
_MAX_WIDTH = 64
# the scan over exact candidates reaches this far on each side of them:
# far out the rounded images, which the tie rules judge, can put the hits
# some steps off the exact range
_REACH = 64
# exact samples on a pole are retried from these bases
_BASES = (0, 2, 5)


@dataclass(frozen=True)
class OrbitStep:
    digit: int
    image: TrianglePoint


def _images(key, k, x, y):
    """The image (x', y') of each point under the digit-k branch formula
    of the row key, s derived from the integer k, broadcast to one shape
    over k, x and y; inf or nan where the formula is singular.  Every
    numeric evaluation of a forward row goes through here, the exact
    ranges apart.  x and y are float arrays or numpy float scalars."""
    with np.errstate(all="ignore"):
        xp, yp = FORWARD[key].f(k, x, y, parity_sign(k))
    return _broadcast((xp, yp), k, x, y)


def apply_branch_formula(t: PermutationTriple, k: int, p: TrianglePoint):
    """Raw Appendix-table value; no membership check on the result."""
    if k < 0:
        raise ValueError("k must be non-negative")
    xp, yp = _images(t.key, k, np.float64(p.x), np.float64(p.y))
    if not (np.isfinite(xp) and np.isfinite(yp)):
        raise EvaluationSingularity(
            f"branch formula {t.key} singular at k={k}, point=({p.x}, {p.y})")
    return float(xp), float(yp)


# --- search: digit >= k is monotone in k -----------------------------------

def _deeper(key, k, x, y):
    """Whether the digit of (x, y) is at least k under the row key: whether
    F1^-k(x, y) = branch_0(T_k(x, y)) is in the closed triangle."""
    _, a, b = _inverse(TRANSFER[key], 0, *_images(key, k, x, y), 1.0)
    return (b >= 0.0) & (a >= b) & (a <= 1.0)


def _search(key, xs, ys, limit):
    """The largest k <= limit whose _deeper holds, for each point, by
    galloping from k = 1 and bisecting; -1 where that is limit itself.
    _solve searches on parity rows only."""
    n = xs.size
    lo, hi = np.zeros(n, np.int64), np.ones(n, np.int64)
    deep = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    while todo.size:
        k = np.minimum(hi[todo], limit)
        up = _deeper(key, k, xs[todo], ys[todo])
        lo[todo[up]] = k[up]
        hi[todo] = np.where(up, 2 * k, k)
        deep[todo[up & (k == limit)]] = True
        todo = todo[up & (k < limit)]
    todo = np.nonzero(~deep & (hi - lo > 1))[0]
    while todo.size:
        mid = (lo[todo] + hi[todo]) // 2
        up = _deeper(key, mid, xs[todo], ys[todo])
        lo[todo[up]] = mid[up]
        hi[todo[~up]] = mid[~up]
        todo = todo[hi[todo] - lo[todo] > 1]
    return np.where(deep, -1, lo)


# --- line bracket: parity-free rows ------------------------------------------

def _lines(image0, image1):
    """The membership constraints y' >= 0, x' - y' >= 0, x' <= 1 of a
    parity-free row, as pairs (a, b) of lines a + b*k >= 0 through the
    images at k = 0 and 1, on arrays."""
    (xa, ya), (xb, yb) = image0, image1
    return (ya, yb - ya), (xa - ya, xb - yb - xa + ya), (1.0 - xa, xa - xb)


def _bracket(key, xs, ys):
    """The window of candidate digits of each point on a parity-free row:
    the integers lo..hi next to the interval that the lines keep in the
    triangle, and whether there is one.  There is none where a sample is
    not finite or the interval is empty, wider than _MAX_WIDTH or beyond
    _SHALLOW."""
    image0, image1 = _images(key, 0, xs, ys), _images(key, 1, xs, ys)
    bottom, top = np.zeros(xs.size), np.full(xs.size, float(_SHALLOW))
    for a, b in _lines(image0, image1):
        v = -a / b
        bottom = np.where(b > 0, np.maximum(bottom, v), bottom)
        top = np.where(b < 0, np.minimum(top, v), np.where((b == 0) & (a < 0), -np.inf, top))
    ok = (np.isfinite(image0[0]) & np.isfinite(image0[1]) & np.isfinite(image1[0])
          & np.isfinite(image1[1]) & (bottom <= top) & (top <= bottom + _MAX_WIDTH))
    lo = np.where(ok, np.ceil(bottom) - 1, 0).astype(np.int64)
    hi = np.where(ok, np.floor(top) + 1, 0).astype(np.int64)
    return lo, hi, ok


# --- exact ranges: one linear-fractional fit per parity class --------------

class _Exact(Fraction):
    """A rational whose arithmetic with the float constants of the table
    formulas (0.5 and the like) stays exact instead of turning float."""

    __slots__ = ()

    def __add__(a, b):
        return _Exact(Fraction(a) + Fraction(b))

    __radd__ = __add__

    def __sub__(a, b):
        return _Exact(Fraction(a) - Fraction(b))

    def __rsub__(a, b):
        return _Exact(Fraction(b) - Fraction(a))

    def __mul__(a, b):
        return _Exact(Fraction(a) * Fraction(b))

    __rmul__ = __mul__

    def __truediv__(a, b):
        return _Exact(Fraction(a) / Fraction(b))

    def __rtruediv__(a, b):
        return _Exact(Fraction(b) / Fraction(a))

    def __neg__(a):
        return _Exact(-Fraction(a))


def _window(key):
    """How far the confirmation window reaches on each side of a searched
    digit, and how many steps a clean run of hits keeps below its end.  A
    scan from k = 0 counts hits up to six steps apart as one run, and on
    parity rows cylinders k and k + 2 can touch; on parity-free rows the
    cylinders form a fan, and two that are not neighbours meet only at its
    vertex.  _solve reads the reach on parity rows only: on parity-free
    rows its window is the line bracket."""
    return (7, 6) if FORWARD[key].parity else (1, 0)


def _exact_ranges(key, x, y):
    """The k ranges on which the row formula, in exact arithmetic on the
    float inputs, meets all three membership constraints at the base
    tolerance: (k_lo, k_hi) pairs, each widened to the integers around it,
    one per side of each parity class's pole; k_hi is inf where a range
    never closes."""
    f, xq, yq, tol = FORWARD[key].f, _Exact(x), _Exact(y), Fraction(MEMBERSHIP_TOL)
    ranges = []
    for first, step, s in _parities(key):
        def constraints(j):
            xp, yp = f(_Exact(first + step * j), xq, yq, _Exact(s))
            return yp + tol, xp - yp + tol, 1 + tol - xp
        for base in _BASES:
            try:
                c0, c1, c2 = (constraints(base + j) for j in range(3))
                break
            except ZeroDivisionError:
                continue
        else:
            continue
        # constraint i is (a_i + b_i*j)/(1 + d*j) at k = first + step*(base + j),
        # a_i = c0[i]; a constant one does not show the shared d
        d = next(((2 * v1 - v0 - v2) / (2 * (v2 - v1))
                  for v0, v1, v2 in zip(c0, c1, c2) if v1 != v2), 0)
        b = [v1 * (1 + d) - v0 for v0, v1 in zip(c0, c1)]
        # on each side of the pole 1 + d*j keeps one sign
        if d == 0:
            sides = ((1, -math.inf, math.inf),)
        else:
            pole = -1 / d
            sides = ((1, pole, math.inf), (-1, -math.inf, pole))
            if d < 0:
                sides = ((1, -math.inf, pole), (-1, pole, math.inf))
        for sign, lo, hi in sides:
            lo = max(lo, -base)
            for a_i, b_i in zip(c0, b):
                if sign * b_i > 0:
                    lo = max(lo, -a_i / b_i)
                elif sign * b_i < 0:
                    hi = min(hi, -a_i / b_i)
                elif sign * a_i < 0:
                    hi = -math.inf
            if lo <= hi:
                k_lo = first + step * (base + math.floor(lo))
                k_hi = first + step * (base + math.ceil(hi)) if hi < math.inf else math.inf
                ranges.append((k_lo, k_hi))
    return ranges


# --- confirmation: the tie rules on candidate digits ------------------------

def _spread(pt, lo, hi):
    """Every k = lo..hi of each range (pt, lo, hi): flat arrays (point, k)."""
    count = np.maximum(hi - lo + 1, 0)
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return np.repeat(pt, count), np.repeat(lo, count) + offset


def _confirm(key, xs, ys, pt, k):
    """The image of each candidate (pt, k), sorted by point and k without
    repeats, and whether it is in the closure at the eps*k allowance and
    at the base tolerance."""
    xp, yp = _images(key, k, xs[pt], ys[pt])
    # a singular branch formula cannot be the point's digit (nan compares
    # false); rounding in the image grows like eps*k, and the membership
    # tolerance follows it
    tol = MEMBERSHIP_TOL + 1e-15 * k
    hit = (np.isfinite(xp) & np.isfinite(yp) & (yp >= -tol) & (xp - yp >= -tol)
           & (xp <= 1.0 + tol))
    inside = hit & (yp >= -MEMBERSHIP_TOL) & (xp - yp >= -MEMBERSHIP_TOL) \
        & (xp <= 1.0 + MEMBERSHIP_TOL)
    return xp, yp, hit, inside


def _hit_range(n, pt, k, hit):
    """The lowest and highest hit k of each point, pt and k sorted."""
    lowest, highest = np.full(n, np.inf), np.full(n, -np.inf)
    hp, hk = pt[hit], k[hit]
    head = np.ones(hp.size + 1, dtype=bool)
    head[1:-1] = hp[1:] != hp[:-1]
    lowest[hp[head[:-1]]] = hk[head[:-1]]
    highest[hp[head[1:]]] = hk[head[1:]]
    return lowest, highest


def _lowest_run(pt, k, hit):
    """hit kept on the lowest run of each point's hits only, pt and k
    sorted: as in a scan from k = 0, six misses after a hit end the run."""
    idx = np.nonzero(hit)[0]
    hp, hk = pt[idx], k[idx]
    head = np.ones(idx.size, dtype=bool)
    head[1:] = hp[1:] != hp[:-1]
    breaks = np.cumsum(~head & (np.diff(hk, prepend=0) >= 7))
    first = np.maximum.accumulate(np.where(head, np.arange(idx.size), 0))
    run = np.zeros(hit.size, dtype=bool)
    run[idx[breaks == breaks[first]]] = True
    return run


def _decide(key, xs, ys, pt, k):
    """The tie rules over the candidates (pt, k), sorted by point and k
    without repeats: per point the digit (inf where none hit), its image,
    and the lowest hit, the highest hit and the number of hits of the
    lowest run."""
    n = xs.size
    xp, yp, hit, inside = _confirm(key, xs, ys, pt, k)
    hit = _lowest_run(pt, k, hit)
    inside &= hit
    lowest, highest = _hit_range(n, pt, k, hit)
    count = np.bincount(pt[hit], minlength=n)
    # contiguous multi-hits are boundary-rounding ties, and the lowest hit
    # inside at the base tolerance wins: at large k the eps*k allowance can
    # also admit a neighbour whose image misses the triangle by far more
    # than its rounding
    lowest_in, _ = _hit_range(n, pt, k, inside)
    digit = np.where(np.isfinite(lowest_in), lowest_in, lowest)
    chosen = np.nonzero(k == digit[pt])[0]
    image_x, image_y = np.full(n, np.nan), np.full(n, np.nan)
    image_x[pt[chosen]], image_y[pt[chosen]] = xp[chosen], yp[chosen]
    return digit, image_x, image_y, lowest, highest, count


def _flat(parts, dtype=np.int64):
    return np.concatenate(parts) if parts else np.zeros(0, dtype)


def _solve_exact(key, xs, ys, k_max):
    """digits from the exact ranges, and the images each digit was accepted
    on; raises for the first point without one."""
    n = xs.size
    pts, ks = [], []
    wide_from = np.full(n, np.inf)
    for i in range(n):
        x, y = float(xs[i]), float(ys[i])
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        for k_lo, k_hi in _exact_ranges(key, x, y):
            if k_lo > k_max:
                continue
            if k_hi - k_lo > _MAX_WIDTH:
                wide_from[i] = min(wide_from[i], k_lo)
                continue
            lo, hi = max(0, k_lo - _REACH), min(k_hi + _REACH, k_max)
            pts.append(np.full(hi - lo + 1, i))
            ks.append(np.arange(lo, hi + 1))
    pt, k = _flat(pts), _flat(ks)
    order = np.lexsort((k, pt))
    pt, k = pt[order], k[order]
    fresh = np.ones(pt.size, dtype=bool)
    fresh[1:] = (pt[1:] != pt[:-1]) | (k[1:] != k[:-1])
    digit, image_x, image_y, lowest, highest, count = _decide(
        key, xs, ys, pt[fresh], k[fresh])
    # a range far longer than a boundary tie where the digit may lie, or a
    # gap in the run, is a transcription problem
    wide = np.isfinite(wide_from) & (wide_from <= lowest)
    gap = (count > 0) & (highest - lowest != count - 1)
    bad = wide | (count == 0) | gap
    if bad.any():
        i = int(np.argmax(bad))
        x, y = xs[i], ys[i]
        if wide[i]:
            raise AmbiguousDigit(f"{key}: more than {_MAX_WIDTH + 1} candidate "
                                 f"digits at ({x}, {y})")
        if gap[i]:
            raise AmbiguousDigit(f"{key}: non-adjacent digits from {int(lowest[i])} "
                                 f"to {int(highest[i])} at ({x}, {y})")
        raise DigitNotFound(f"no branch of {key} admits ({x}, {y}) below k_max={k_max}")
    return digit, image_x, image_y


# singular probes and candidates turn up as inf and nan, and count as misses
@np.errstate(all="ignore")
def _solve(key, xs, ys, k_max):
    """digits, and the images each digit was accepted on."""
    reach, margin = _window(key)
    if FORWARD[key].parity:
        found = _search(key, xs, ys, min(k_max, _SHALLOW))
        lo, hi, sure = found - reach, found + reach, found >= 0
    else:
        lo, hi, sure = _bracket(key, xs, ys)
    lo, hi = np.maximum(lo, 0), np.minimum(hi, k_max)
    idx = np.nonzero(sure)[0]
    digit, image_x, image_y, lowest, highest, count = _decide(
        key, xs, ys, *_spread(idx, lo[idx], hi[idx]))
    # a run that reaches the start of the window, or comes within margin
    # steps of its end, may go on beyond it
    sure &= ((count > 0) & (highest - lowest == count - 1)
             & ((lowest > lo) | (lo == 0)) & ((highest + margin < hi) | (hi == k_max)))
    redo = np.nonzero(~sure)[0]
    if redo.size:
        digit[redo], image_x[redo], image_y[redo] = _solve_exact(
            key, xs[redo], ys[redo], k_max)
    return digit.astype(np.int64), image_x, image_y


def digits(key, xs, ys, k_max: int = K_MAX_DEFAULT) -> np.ndarray:
    """The digit of each point (xs[i], ys[i]) under the row key, as an
    int64 array.  Raises DigitNotFound for a point no branch k <= k_max
    admits and AmbiguousDigit for one that admits branches far apart."""
    xs, ys = np.asarray(xs, dtype=float).ravel(), np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError(f"xs and ys differ in size: {xs.size} and {ys.size}")
    return _solve(key, xs, ys, k_max)[0]


def extract_digit(t: PermutationTriple, p: TrianglePoint, k_max: int = K_MAX_DEFAULT) -> int:
    """The digit of one point, from _solve on a one-element array."""
    return int(digits(t.key, [p.x], [p.y], k_max)[0])


def branch_roundtrip(t: PermutationTriple, k_max: int,
                     points: list[TrianglePoint]) -> tuple[float, bool]:
    """Worst |forward(branch_k(p)) - p| over k <= k_max and the points,
    and whether the digit of every branch_k(p) is k.  The branch points
    are the leaves of a one-level preimage tree, point i's branch k at
    leaf i*(k_max + 1) + k."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if not points:
        raise ValueError("no points")
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    K = k_max + 1
    a, b, _ = preimage_tree(t, xs, ys, 1, K)
    interior = in_triangle((a, b))
    if not interior.all():
        j = int(np.argmin(interior))
        raise OutsideTriangle(f"branch {j % K} of {t} at {points[j // K]} is ({a[j]}, {b[j]}), "
                              "not interior to the triangle")
    k = np.tile(np.arange(K), xs.size)
    xb, yb = _images(t.key, k, a, b)
    finite = np.isfinite(xb) & np.isfinite(yb)
    if not finite.all():
        raise EvaluationSingularity(
            f"branch formula {t.key} non-finite at k={int(np.argmin(finite)) % K}")
    worst = max(float(np.max(np.abs(xb - np.repeat(xs, K)))),
                float(np.max(np.abs(yb - np.repeat(ys, K)))))
    return worst, bool(np.array_equal(digits(t.key, a, b), k))


def off_boundary(x, y):
    """The orbit boundary test: (x, y) lies more than MEMBERSHIP_TOL inside
    every edge, elementwise where the coordinates are arrays.  Where an
    image fails it, step raises BoundaryHit, and the Monte Carlo walkers of
    gausskuzmin.empirical_digits replace the walker by a fresh draw."""
    return (y > MEMBERSHIP_TOL) & (x - y > MEMBERSHIP_TOL) & (x < 1.0 - MEMBERSHIP_TOL)


def step(t: PermutationTriple, p: TrianglePoint) -> OrbitStep:
    """One orbit step: the digit of p and its image, from _solve on
    one-element arrays, the image exactly as the accepted branch formula
    gives it.  Raises BoundaryHit where the image fails off_boundary."""
    k, xp, yp = _solve(t.key, np.array([p.x], dtype=float), np.array([p.y], dtype=float),
                       K_MAX_DEFAULT)
    k, xp, yp = int(k[0]), float(xp[0]), float(yp[0])
    if not off_boundary(xp, yp):
        raise BoundaryHit(f"orbit of {t} hit the boundary at ({xp}, {yp})")
    return OrbitStep(digit=k, image=TrianglePoint(xp, yp))
