"""Forward iteration: branch formulas, digit extraction, orbit steps.

Digit extraction inverts the implicit partition of the triangle: digit k is
the branch index whose formula maps the point back into the closed
triangle, the lowest one where rounding admits a run of them.

Every digit comes from one solver, _solve, on arrays of points; an orbit
step and extract_digit call it on one-element arrays.  Every numeric
evaluation of a forward row goes through _images; only the exact ranges
call a row directly, on fractions.Fraction: the table holds no float
literal, so a row given Fraction k, x, y and s returns Fraction.

Within one parity class (k even, or k odd, on the 72 parity rows; every k
on the 36 parity-free rows) both image components are linear-fractional
in k, (a + b k)/(1 + d k), with one shared pole, so each membership
constraint y' >= 0, x' - y' >= 0, x' <= 1 holds on a half-line on each
side of the pole.  On parity-free rows, which include all 18 density rows
and both ergodic maps, d = 0.  _bracket fits every class in floats, from
the images at its first three k (two on a parity-free row), for arrays of
points at once; the hull of the ranges so found, widened by _window's
reach, is the window whose integers the membership test confirms.

Far out the window loses the digit: the images carry terms of size k, and
next to a vertex their rounding smears the constraints over up to
millions of steps; on parity rows the float fit of d is ill-conditioned
near deep digits.  So beyond _SHALLOW, and wherever the confirmation is
not clean, the digit comes from the same fit in exact rational
arithmetic, three exact samples a class (_exact_ranges).  A scan over the
64 steps on each side of the ranges so found applies the tie rules in
rounded arithmetic, as a scan from k = 0 would.
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
from .transfer import _broadcast, _parities, parity_sign, preimage_tree

MEMBERSHIP_TOL = 1e-12
# orbits drift arbitrarily close to the corner, where the digit grows like
# 1/y; digit extraction costs a fixed number of evaluations at any depth,
# so the default cap is huge on purpose
K_MAX_DEFAULT = 10 ** 12

# the float bracket stops here.  Beyond it rounding smears the fitted
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


# --- bracket: one linear-fractional fit per parity class, in floats -------

def _bracket(key, xs, ys, reach):
    """The window of candidate digits of each point: the integers within
    reach of the hull of the k intervals that the fitted constraints keep
    in the triangle, over the parity classes and the sides of their poles,
    and whether there is one.  There is none where a sample is not finite
    or the hull is empty, wider than _MAX_WIDTH or beyond _SHALLOW."""
    # a parity-free row is affine in k: d = 0, and j = 0, 1 fix its lines
    fit = FORWARD[key].parity
    classes = np.array([(first, step) for first, step, _ in _parities(key)])
    first, step = classes[:, :1], classes[:, 1:]
    xp, yp = _images(key, (first + step * np.arange(3 if fit else 2))[..., None], xs, ys)
    finite = (np.isfinite(xp) & np.isfinite(yp)).all(axis=(0, 1))
    # c[i, class, j, point]: constraint i at k = first + step*j
    c = np.stack((yp, xp - yp, 1.0 - xp))
    c0, c1 = c[:, :, 0], c[:, :, 1]
    a, b, sides = c0, c1 - c0, (1.0,)
    if fit:
        # constraint i is (a_i + b_i*j)/(1 + d*j), a_i = c0[i], with one d
        # per class and point, fitted on the constraint that moves most from
        # j = 1 to 2
        c2 = c[:, :, 2]
        i = np.argmax(np.abs(c2 - c1), axis=0)[None]
        d = np.take_along_axis(np.where(c1 != c2, (2 * c1 - c0 - c2) / (2 * (c2 - c1)), 0.0),
                               i, 0)
        b, sides = c1 * (1 + d) - c0, (1.0, -1.0)
    # on the side of the pole where sign*(1 + d*j) > 0 constraint i holds
    # where sign*(a_i + b_i*j) >= 0: from j = -a_i/b_i up where sign*b_i > 0,
    # up to it where sign*b_i < 0, nowhere where b_i = 0 > sign*a_i.  The
    # constraints sum to 1, so their lines sum to the pole's, 1 + d*j, and
    # where they all hold so does sign*(1 + d*j) >= 0
    v, up, down, flat = -a / b, b > 0, b < 0, b == 0
    bottom, top = np.inf, -np.inf
    for sign in sides:
        j_lo = v.max(axis=0, where=up, initial=0.0)
        j_hi = np.minimum(v.min(axis=0, where=down, initial=np.inf), (_SHALLOW - first) / step)
        j_hi[(flat & (sign * a < 0)).any(axis=0)] = -np.inf
        keep = j_lo <= j_hi
        bottom = np.minimum(bottom, np.where(keep, first + step * j_lo, np.inf).min(axis=0))
        top = np.maximum(top, np.where(keep, first + step * j_hi, -np.inf).max(axis=0))
        up, down = down, up
    ok = finite & (bottom <= top) & (top <= bottom + _MAX_WIDTH)
    lo = np.where(ok, np.ceil(bottom) - reach, 0).astype(np.int64)
    hi = np.where(ok, np.floor(top) + reach, 0).astype(np.int64)
    return lo, hi, ok


# --- exact ranges: one linear-fractional fit per parity class --------------

def _window(key):
    """How far the window reaches beyond the bracket on each side, and how
    many steps a clean run of hits keeps below its end.  A scan from k = 0
    counts hits up to six steps apart as one run, and on parity rows
    cylinders k and k + 2 can touch; on parity-free rows the cylinders form
    a fan, and two that are not neighbours meet only at its vertex."""
    return (7, 6) if FORWARD[key].parity else (1, 0)


def _exact_ranges(key, x, y):
    """The k ranges on which the row formula, in exact arithmetic on the
    float inputs, meets all three membership constraints at the base
    tolerance: (k_lo, k_hi) pairs, each widened to the integers around it,
    one per side of each parity class's pole; k_hi is inf where a range
    never closes."""
    f, xq, yq, tol = FORWARD[key].f, Fraction(x), Fraction(y), Fraction(MEMBERSHIP_TOL)
    ranges = []
    for first, step, s in _parities(key):
        def constraints(j):
            xp, yp = f(Fraction(first + step * j), xq, yq, Fraction(s))
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
        # the lines sum to (1 + 3*tol)(1 + d*j): where sign*(a_i + b_i*j) >= 0
        # for all three, the range lies on the side where sign*(1 + d*j) >= 0
        for sign in ((1, -1) if d else (1,)):
            lo, hi = -base, math.inf
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


def _solve_exact(key, xs, ys, k_max):
    """digits from the exact ranges, and the images each digit was accepted
    on; raises for the first point without one."""
    n = xs.size
    ranges = []
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
