"""Forward iteration: branch formulas, digit extraction, orbit steps.

Digit extraction inverts the implicit partition of the triangle: digit k is
the branch index whose formula maps the point back into the closed
triangle, the lowest one where rounding admits a run of them.  One solver,
_solve, gives every digit, on arrays of points.  Every float evaluation of
a forward row goes through _images.

Every TRIP branch is projective-linear: within one parity class (k even,
or k odd, on the 72 parity rows; every k on the 36 parity-free rows) the
row at k = first + step*j is (x', y', 1) ~ (A + j B)(x, y, 1).  _pencils
reads the integer A and B off the row's labels by the TRIP construction
(trip) without evaluating the row, and _model turns them into lines once
per row.  The numerators of the membership constraints y' >= 0, x' - y' >= 0,
x' <= 1 are lines a + b j, so each constraint holds on a half-line on
each side of the pole (_half_lines).  _bracket evaluates them in floats
for arrays of points; the hull of their ranges, widened by _window's
reach, is the window whose integers the membership test confirms.
Beyond _SHALLOW, where rounding next to a vertex smears images with
terms of size k over millions of steps, and wherever that test is not
clean, the same lines in exact arithmetic decide (_solve_exact), and a
scan over the 64 steps on each side of their ranges applies the tie
rules, as a scan from k = 0 would.
"""

from __future__ import annotations

import functools
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
    UnsupportedTriple,
)
from .tables.forward import FORWARD
from .transfer import _broadcast, _parities, parity_sign, preimage_tree
from .trip import _V, _adjugate, _trip

MEMBERSHIP_TOL = 1e-12
# orbits drift arbitrarily close to the corner, where the digit grows like
# 1/y; digit extraction costs a fixed number of evaluations at any depth,
# so the default cap is huge on purpose
K_MAX_DEFAULT = 10 ** 12

# the float bracket stops here.  Beyond it rounding smears the
# constraints and the eps*k allowance widens, so the exact path decides;
# below it a wrong window finds no clean run of hits, and goes to the exact
# path all the same
_SHALLOW = 2 ** 20
# a range of exact candidates wider than this is far longer than a
# boundary tie
_MAX_WIDTH = 64
# the scan over exact candidates reaches this far on each side of them:
# far out the rounded images, which the tie rules judge, can put the hits
# some steps off the exact range
_REACH = 64
# on (x', y', 1) times the denominator, the numerators of y' + tol,
# x' - y' + tol and 1 + tol - x'; they sum to (1 + 3 tol) times it
_CONSTRAINTS = np.array([[0, 1, 0], [1, -1, 0], [-1, 0, 1]], dtype=object) \
    + [0, 0, Fraction(MEMBERSHIP_TOL)]


@dataclass(frozen=True)
class OrbitStep:
    digit: int
    image: TrianglePoint


def _images(key, k, x, y):
    """The image (x', y') of each point under the digit-k branch formula
    of the row key, s derived from the integer k, broadcast to one shape
    over k, x and y; inf or nan where the formula is singular.  Every
    float evaluation of a forward row goes through here.  x and y are
    float arrays or numpy float scalars."""
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


# --- the model: each parity class as (A + j B), exactly ---------------------

def _pencils(key):
    """The integer (A, B) of each parity class (first, step) of the row
    key, (x', y', 1) ~ (A + j B)(x, y, 1) at k = first + step*j: the inverse
    V F0^-1 (I - j E) F1^-first V^-1 of branch k, E = F1^step - I, as
    F1^(step j) = I + j E where E^2 = 0.  Adjugates stand for the inverses,
    which flips no sign within a class and keeps det(A + j B) = 1."""
    f0, f1 = _trip(key)
    back = _V @ _adjugate(f0)
    for first, step, _ in _parities(key):
        e = np.linalg.matrix_power(f1, step) - np.eye(3, dtype=np.int64)
        ahead = np.linalg.matrix_power(_adjugate(f1), first) @ _adjugate(_V)
        yield np.array([back @ ahead, -back @ e @ ahead]).astype(object)


@functools.cache
def _model(key):
    """Lines L of each parity class c = (first, step, s) of the row key,
    exact and in floats: (L[c, 0] + j L[c, 1])(x, y, 1) are the numerators
    at k = first + step*j, _CONSTRAINTS times the class's (A, B)."""
    lines = np.array([_CONSTRAINTS @ ab for ab in _pencils(key)])
    return lines, lines.astype(float)


def _half_lines(key, x, y):
    """The j >= 0 on which the constraints of the row key hold at the
    points (x, y), per side of the pole of each parity class: (j_lo, j_hi)
    of shape (side, class, point); empty where j_lo > j_hi, unbounded where
    j_hi is inf.  Exact for Fraction x and y, in floats for float arrays."""
    m = _model(key)[0 if isinstance(x, Fraction) else 1]
    # the lines times (x, y, 1), elementwise: a matrix product would start BLAS
    lines = m[..., 0, None] * x + m[..., 1, None] * y + m[..., 2, None]
    a, b = lines[:, 0], lines[:, 1]
    # on the side of the pole where sign times the denominator is > 0,
    # constraint i holds where sign*(a_i + b_i j) >= 0: from -a_i/b_i up
    # where sign*b_i > 0, up to it where sign*b_i < 0, nowhere where
    # b_i = 0 > sign*a_i.  The numerators sum to (1 + 3 tol) times the
    # denominator, so where all three hold the range lies on that side
    root = np.divide(-a, b, out=np.zeros_like(a), where=b != 0)
    j_lo, j_hi = [], []
    for sign in (1, -1):
        j_lo.append(root.max(axis=1, where=sign * b > 0, initial=0))
        never = ((b == 0) & (sign * a < 0)).any(axis=1)
        j_hi.append(np.where(never, -np.inf, root.min(axis=1, where=sign * b < 0,
                                                      initial=np.inf)))
    return np.array(j_lo), np.array(j_hi)


def _bracket(key, xs, ys, reach):
    """The window of candidate digits of each point: the integers within
    reach of the hull of the k ranges of _half_lines, in floats, over the
    parity classes and the sides of their poles, and whether there is one.
    There is none where a coordinate is not finite or the hull is empty,
    wider than _MAX_WIDTH or beyond _SHALLOW."""
    first, step, _ = (np.array(c)[:, None] for c in zip(*_parities(key)))
    j_lo, j_hi = _half_lines(key, xs, ys)
    k_lo, k_hi = first + step * j_lo, np.minimum(first + step * j_hi, _SHALLOW)
    bottom = k_lo.min(axis=(0, 1), where=k_lo <= k_hi, initial=np.inf)
    top = k_hi.max(axis=(0, 1), where=k_lo <= k_hi, initial=-np.inf)
    ok = np.isfinite(xs) & np.isfinite(ys) & (bottom <= top) & (top <= bottom + _MAX_WIDTH)
    lo = np.where(ok, np.ceil(bottom) - reach, 0).astype(np.int64)
    hi = np.where(ok, np.floor(top) + reach, 0).astype(np.int64)
    return lo, hi, ok


def _window(key):
    """How far the window reaches beyond the bracket on each side, and how
    many steps a clean run of hits keeps below its end.  A scan from k = 0
    counts hits up to six steps apart as one run, and on parity rows
    cylinders k and k + 2 can touch; on parity-free rows the cylinders form
    a fan, and two that are not neighbours meet only at its vertex."""
    return (7, 6) if FORWARD[key].parity else (1, 0)


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


def _solve_exact(key, xs, ys, k_max):
    """digits from the k ranges of _half_lines in exact arithmetic on the
    float inputs, each widened to the integers around it, and the images
    each digit was accepted on; raises for the first point without one."""
    n = xs.size
    ranges = []
    wide_from = np.full(n, np.inf)
    for i in np.nonzero(np.isfinite(xs) & np.isfinite(ys))[0]:
        j_lo, j_hi = _half_lines(key, Fraction(xs[i]), Fraction(ys[i]))
        for (first, step, _), lo, hi in zip(_parities(key) * 2, j_lo.ravel(), j_hi.ravel()):
            k_lo = first + step * math.floor(lo)
            if lo > hi or k_lo > k_max:
                continue
            k_hi = first + step * math.ceil(hi) if hi < math.inf else math.inf
            if k_hi - k_lo > _MAX_WIDTH:
                wide_from[i] = min(wide_from[i], k_lo)
                continue
            ranges.append((i, max(0, k_lo - _REACH), min(k_hi + _REACH, k_max)))
    # one point's ranges can overlap: sort, and drop the repeats
    pt, k = _spread(*np.array(ranges, dtype=np.int64).reshape(-1, 3).T)
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
    lo, hi, sure = _bracket(key, xs, ys, reach)
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
    if key not in FORWARD:
        raise UnsupportedTriple(f"no forward row for {key}")
    if isinstance(k_max, bool) or not isinstance(k_max, (int, np.integer)) or k_max >= 2 ** 63:
        raise ValueError(f"k_max must be an integer below 2**63, got {k_max!r}")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
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
