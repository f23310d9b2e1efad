"""Forward iteration: branch formulas, digit extraction, orbit steps.

Digit extraction inverts the implicit partition of the triangle: digit k is
the unique branch index whose formula maps the point back into the closed
triangle.  For parity-free rows (no (-1)^k anywhere) both image components
are affine in k, so the qualifying k solves three linear inequalities and
is found in O(1); rows with parity terms fall back to a contiguous scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import PermutationTriple, TrianglePoint
from .errors import (
    AmbiguousDigit,
    BoundaryHit,
    DigitNotFound,
    EvaluationSingularity,
)
from .tables.forward import FORWARD
from .transfer import branch_point

MEMBERSHIP_TOL = 1e-12
# orbits drift arbitrarily close to the corner, where the digit grows like
# 1/y; the affine extraction is O(1) in the digit, so the default cap is
# huge on purpose (the parity-scan path reaches such digits linearly)
K_MAX_DEFAULT = 10 ** 12


@dataclass(frozen=True)
class OrbitStep:
    digit: int
    image: TrianglePoint


def _eval_formula(key, k, x, y):
    s = -1.0 if (int(k) & 1) else 1.0
    try:
        xp, yp = FORWARD[key].f(k, x, y, s)
    except ZeroDivisionError as exc:
        raise EvaluationSingularity(
            f"branch formula {key} singular at k={k}, point=({x}, {y})") from exc
    if not (math.isfinite(xp) and math.isfinite(yp)):
        raise EvaluationSingularity(
            f"branch formula {key} non-finite at k={k}, point=({x}, {y})")
    return xp, yp


def _in_closure(xp, yp, tol=MEMBERSHIP_TOL):
    return yp >= -tol and xp - yp >= -tol and xp <= 1.0 + tol


def apply_branch_formula(t: PermutationTriple, k: int, p: TrianglePoint):
    """Raw Appendix-table value; no membership check on the result."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _eval_formula(t.key, k, p.x, p.y)


# a first bracket this far above its base samples is refitted at itself
_REFIT_GAP = 64


def _line_bracket(key, x, y, base):
    # both image components are affine in k; the line through the images
    # at base and base + 1 brackets the k interval that satisfies y' >= 0,
    # x' >= y', x' <= 1 (offsets from base keep the sample values exact)
    xa, ya = _eval_formula(key, base, x, y)
    xb, yb = _eval_formula(key, base + 1, x, y)
    dx, dy = xb - xa, yb - ya
    lo, hi = float(-base), float("inf")
    tol = MEMBERSHIP_TOL
    # constraints a + (k - base)*b >= 0
    for a, b in ((ya + tol, dy), (xa - ya + tol, dx - dy), (1.0 + tol - xa, -dx)):
        if abs(b) < 1e-15:
            if a < 0:
                return None
        elif b > 0:
            lo = max(lo, -a / b)
        else:
            hi = min(hi, -a / b)
    if hi < lo - 1e-9:
        return None
    k_lo = max(0, base + math.ceil(lo - 1e-9) - 1)
    k_hi = base + math.floor(hi + 1e-9) + 1
    return k_lo, k_hi


def _candidate_range_affine(key, x, y):
    # any two sample digits determine the line; skip past isolated poles,
    # then confirm the bracket by evaluation
    for base in (0, 2, 5):
        try:
            rng = _line_bracket(key, x, y, base)
            break
        except EvaluationSingularity:
            continue
    else:
        return None
    if rng is not None and rng[0] > base + _REFIT_GAP:
        # near an edge the digit runs to 1/y, and the slope of the base
        # samples, a small difference of O(1) images, loses digits to
        # cancellation that the long extrapolation multiplies: bracket
        # again from samples at the first bracket
        try:
            rng = _line_bracket(key, x, y, rng[0])
        except EvaluationSingularity:
            pass
    return rng


def _member(key, k, x, y, tol):
    # a singular branch formula cannot be the point's digit: count a miss
    try:
        return _in_closure(*_eval_formula(key, k, x, y), tol=tol)
    except EvaluationSingularity:
        return False


def _digit(key, x, y, k_max=K_MAX_DEFAULT):
    row = FORWARD[key]
    hits: list[int] = []
    if not row.parity:
        rng = _candidate_range_affine(key, x, y)
        if rng is None:
            raise DigitNotFound(f"no branch of {key} admits ({x}, {y})")
        k_lo, k_hi = rng
        if k_hi - k_lo > 64:
            # interval far longer than a boundary tie: transcription problem
            raise AmbiguousDigit(
                f"{key}: {k_hi - k_lo + 1} candidate digits at ({x}, {y})")
        if k_lo > k_max:
            raise DigitNotFound(
                f"digit of {key} at ({x}, {y}) exceeds k_max={k_max}")
        # the bracket is O(1) wide, so k_max never throttles this path;
        # the formulas carry terms of size k, so rounding in the image
        # grows like eps*k and the membership tolerance must follow it
        for k in range(k_lo, k_hi + 1):
            if _member(key, k, x, y, MEMBERSHIP_TOL + 1e-15 * k):
                hits.append(k)
    else:
        misses_after_hit = 0
        k = 0
        while k <= k_max:
            if _member(key, k, x, y, MEMBERSHIP_TOL + 1e-15 * k):
                hits.append(k)
                misses_after_hit = 0
            elif hits:
                misses_after_hit += 1
                # both parity classes have contiguous hit runs, so six
                # consecutive misses end the search
                if misses_after_hit >= 6:
                    break
            k += 1
    if not hits:
        raise DigitNotFound(f"no branch of {key} admits ({x}, {y}) below k_max={k_max}")
    if hits[-1] - hits[0] != len(hits) - 1:
        # a genuine gap between admitting branches: transcription problem;
        # contiguous multi-hits are boundary-rounding ties, lowest k wins
        raise AmbiguousDigit(f"{key}: non-adjacent digits {hits} at ({x}, {y})")
    if len(hits) > 1:
        # at large k the eps*k allowance can also admit a neighbour whose
        # image misses the triangle by far more than its rounding, so the
        # lowest hit inside at the base tolerance wins first
        for k in hits:
            if _member(key, k, x, y, MEMBERSHIP_TOL):
                return k
    return hits[0]


def extract_digit(t: PermutationTriple, p: TrianglePoint, k_max: int = K_MAX_DEFAULT) -> int:
    return _digit(t.key, p.x, p.y, k_max)


def branch_roundtrip(t: PermutationTriple, k_max: int,
                     points: list[TrianglePoint]) -> tuple[float, bool]:
    """Worst |forward(branch_k(p)) - p| over k <= k_max and the points,
    and whether extract_digit recovers every k from branch_k(p)."""
    worst, digits_exact = 0.0, True
    for k in range(k_max + 1):
        for p in points:
            q = branch_point(t, k, p)
            xb, yb = apply_branch_formula(t, k, q)
            worst = max(worst, abs(xb - p.x), abs(yb - p.y))
            if extract_digit(t, q) != k:
                digits_exact = False
    return worst, digits_exact


def step(t: PermutationTriple, p: TrianglePoint, k_max: int = K_MAX_DEFAULT) -> OrbitStep:
    k = _digit(t.key, p.x, p.y, k_max)
    xp, yp = _eval_formula(t.key, k, p.x, p.y)
    if not (yp > MEMBERSHIP_TOL and xp - yp > MEMBERSHIP_TOL and xp < 1.0 - MEMBERSHIP_TOL):
        raise BoundaryHit(f"orbit of {t} hit the boundary at ({xp}, {yp})")
    return OrbitStep(digit=k, image=TrianglePoint(xp, yp))
