import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tripmaps.domain import PermutationTriple, TrianglePoint, supported_triples
from tripmaps.errors import (AmbiguousDigit, BoundaryHit, DigitNotFound, EvaluationSingularity,
                             OutsideTriangle)
from tripmaps import maps, transfer
from tripmaps.maps import (K_MAX_DEFAULT, MEMBERSHIP_TOL, _MAX_WIDTH, _SHALLOW, _eval_formula,
                           _solve, _window)
from tripmaps.tables.forward import FORWARD
from tripmaps.tables.transfer_rows import TRANSFER, TransferRow

EEE = PermutationTriple("e", "e", "e")
E23E = PermutationTriple("e", "23", "e")


def test_apply_branch_formula_matches_table():
    # the Gauss-like (e,e,e) forward map: known hand value
    p = TrianglePoint(0.5, 0.25)
    # branch then forward must return to p for several digits
    for k in range(6):
        q = transfer.branch_point(EEE, k, p)
        xb, yb = maps.apply_branch_formula(EEE, k, q)
        assert abs(xb - p.x) < 1e-12 and abs(yb - p.y) < 1e-12


def test_extract_digit_known_points():
    # digit 0 region of (e,23,e) is x + y > 1 (paper's p(0) cylinder)
    assert maps.extract_digit(E23E, TrianglePoint(0.8, 0.5)) == 0
    assert maps.extract_digit(E23E, TrianglePoint(0.4, 0.2)) >= 1


def test_digit_recovery_roundtrip_sample(sample_points):
    for key in list(supported_triples())[::7]:
        t = PermutationTriple(*key)
        for k in (0, 1, 2, 7):
            for p in sample_points[:4]:
                q = transfer.branch_point(t, k, p)
                assert maps.extract_digit(t, q) == k


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(supported_triples()),
       st.integers(0, 15),
       st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_roundtrip_property(key, k, u, v):
    x, y = max(u, v), min(u, v)
    if not (0.02 < y < x - 0.02 and x < 0.98):
        return
    t = PermutationTriple(*key)
    p = TrianglePoint(x, y)
    q = transfer.branch_point(t, k, p)
    xb, yb = maps.apply_branch_formula(t, k, q)
    assert math.isclose(xb, p.x, abs_tol=1e-10)
    assert math.isclose(yb, p.y, abs_tol=1e-10)
    assert maps.extract_digit(t, q) == k


def test_extract_digit_deep_at_bottom_edge():
    # the digit here is about 5e8: a line fitted to the k = 0, 1 images
    # alone misplaces it by six, so the bracket must be refitted near it
    t = PermutationTriple("12", "13", "12")
    x, y = 0.9961326767967214, 2.022691291157514e-09
    k = maps.extract_digit(t, TrianglePoint(x, y))
    # exact rational arithmetic on the same float inputs is the oracle
    xp, yp = FORWARD[t.key].f(k, Fraction(x), Fraction(y), 1 - 2 * (k & 1))
    assert 0 <= yp <= xp <= 1, k


def _orbit(t, p, n):
    """Digits of up to n steps of the orbit of p, and whether it hit the boundary."""
    digits = []
    for _ in range(n):
        try:
            st = maps.step(t, p)
        except BoundaryHit:
            return digits, True
        digits.append(st.digit)
        p = st.image
    return digits, False


def test_step_and_expand():
    p = TrianglePoint(0.573, 0.211)
    st1 = maps.step(EEE, p)
    assert isinstance(st1.digit, int) and st1.digit >= 0
    digits, terminated = _orbit(EEE, p, 25)
    assert len(digits) == 25 or terminated
    # deterministic
    assert maps.step(EEE, p) == st1
    assert _orbit(EEE, p, 25) == (digits, terminated)


def test_expand_terminates_on_boundary():
    # (0.6, 0.3) reaches the diagonal in two steps under (e,e,e)
    q = maps.step(EEE, TrianglePoint(0.6, 0.3)).image
    with pytest.raises(BoundaryHit):
        maps.step(EEE, q)
    digits, terminated = _orbit(EEE, TrianglePoint(0.6, 0.3), 50)
    assert terminated
    assert len(digits) < 50


def test_digit_not_found_k_max():
    # near-corner point has a digit beyond a tiny cap
    p = TrianglePoint(1e-4, 5e-6)
    with pytest.raises(DigitNotFound):
        maps.extract_digit(E23E, p, k_max=10)


def test_large_digit_near_corner():
    p = TrianglePoint(2.355944542376853e-05, 7.674986846540786e-07)
    k = maps.extract_digit(E23E, p, k_max=10 ** 12)
    assert k > 10 ** 6  # legitimately huge digit


def test_negative_k_rejected():
    p = TrianglePoint(0.5, 0.25)
    with pytest.raises(ValueError):
        maps.apply_branch_formula(EEE, -1, p)


# --- maps.digits against independent routes -------------------------------

TYPED = (DigitNotFound, AmbiguousDigit)


def _member(key, k, x, y, tol):
    s = -1.0 if k & 1 else 1.0
    try:
        xp, yp = FORWARD[key].f(k, x, y, s)
    except ZeroDivisionError:
        return False
    return (math.isfinite(xp) and math.isfinite(yp)
            and yp >= -tol and xp - yp >= -tol and xp <= 1.0 + tol)


def _scan(key, x, y, start=0, k_max=maps.K_MAX_DEFAULT):
    """Digit by linear scan, the reference maps.digits must agree with: k
    upward from start, six misses after a hit end the run, contiguous ties
    go to the lowest hit inside at the base tolerance.  Its cost grows
    with the digit."""
    hits, misses_after_hit, k = [], 0, start
    while k <= k_max:
        if _member(key, k, x, y, maps.MEMBERSHIP_TOL + 1e-15 * k):
            hits.append(k)
            misses_after_hit = 0
        elif hits:
            misses_after_hit += 1
            if misses_after_hit >= 6:
                break
        k += 1
    if not hits:
        raise DigitNotFound(f"{key} ({x}, {y})")
    if hits[-1] - hits[0] != len(hits) - 1:
        raise AmbiguousDigit(f"{key}: {hits}")
    for k in hits:
        if _member(key, k, x, y, maps.MEMBERSHIP_TOL):
            return k
    return hits[0]


def _outcome(fn, *args):
    try:
        return int(fn(*args))
    except TYPED as exc:
        return type(exc).__name__


def _branch(key, k, x, y):
    a, b = TRANSFER[key].branch(k, x, y, -1.0 if k & 1 else 1.0)
    return float(a), float(b)


def _solo(key, x, y):
    return maps.digits(key, [x], [y])[0]


def _one_point(key, x, y):
    return maps._digit(key, x, y)[0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(supported_triples()), st.integers(0, 40),
       st.sampled_from(("bottom", "diagonal", "right")),
       st.floats(-12.0, -9.0), st.floats(0.02, 0.98))
def test_digits_near_cylinder_boundaries(key, k, edge, log_gap, u):
    # branch_k of a point within 1e-9 of an edge of the triangle lies
    # within about as much of the boundary of cylinder k, where both
    # parity classes and the tie rules meet
    gap = 10.0 ** log_gap
    x, y = {"bottom": (u, gap * u), "diagonal": (u, u * (1.0 - gap)),
            "right": (1.0 - gap, u * (1.0 - gap))}[edge]
    qx, qy = _branch(key, k, x, y)
    if not 0.0 < qy < qx < 1.0:
        return
    got = _outcome(_solo, key, qx, qy)
    assert got == _outcome(_scan, key, qx, qy) == _outcome(_one_point, key, qx, qy), \
        (key, k, qx, qy)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(supported_triples()), st.floats(6.0, math.log10(5e8)),
       st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_digits_deep_corner_points(key, log_k, u, v):
    # digits of 1e6 to 5e8 sit within 1e-6 of a vertex, where both image
    # components carry terms of size k: the digit, or the typed error, is
    # the one a scan over the 128 steps on each side of k gives (a full
    # scan from k = 0 would take minutes)
    x, y = max(u, v), min(u, v)
    if not 0.02 < y < x - 0.02:
        return
    k = int(10.0 ** log_k)
    qx, qy = _branch(key, k, x, y)
    if not 0.0 < qy < qx < 1.0:
        return
    got = _outcome(_solo, key, qx, qy)
    assert got == _outcome(_one_point, key, qx, qy), (key, qx, qy)
    assert got == _outcome(_scan, key, qx, qy, k - 128, k + 128), (key, qx, qy)


@pytest.mark.parametrize("k", [10 ** 6 + 1, 3 * 10 ** 6])
def test_digits_deep_points_every_row(k):
    # below about 1e7 rounding in the images stays well under the width of
    # a cylinder, and every row finds the digit a scan finds
    for key in supported_triples():
        for x, y in ((0.6, 0.3), (0.8, 0.5), (0.45, 0.2)):
            qx, qy = _branch(key, k, x, y)
            if 0.0 < qy < qx < 1.0:
                assert _solo(key, qx, qy) == _scan(key, qx, qy, start=k - 64), (key, x, y)


@pytest.mark.parametrize("key, x, y, k", [
    # x' and y' are both within 1e-7 of constant, and only the samples
    # next to the digit place it
    (("23", "12", "132"), 0.5000000890814965, 0.49999999992783273, 11216586),
    (("123", "12", "23"), 0.5000000743839568, 0.49999995360096133, 8279309),
    (("13", "123", "123"), 0.9999999669231615, 0.4999999810990685, 30232634),
    (("123", "23", "23"), 0.5000000729974753, 0.5000000062986548, 14992767),
    (("e", "e", "12"), 0.5000000739091487, 4.537797927061168e-07, 2203710),
    (("23", "132", "132"), 0.5000000227840503, 0.49999994607037035, 13035483),
    (("23", "132", "132"), 0.5000000019198783, 0.49999999692322383, 200133907),
    # far from the digit the rounded images do not place it: a fit of the
    # samples 2**20 and 2**40 steps out misses it by up to hundreds of
    # thousands of steps, or finds no candidate
    (("23", "12", "132"), 0.49999999478718377, 0.49999997438140337, 49005719),
    (("23", "12", "132"), 0.5000000008858515, 0.499999998215949, 374545488),
    (("123", "12", "23"), 0.5000000044018257, 0.5000000020536464, 425861878),
    (("123", "12", "23"), 0.500000082508862, 0.5000000359606498, 21483099),
    (("23", "23", "132"), 0.5000000000000734, 0.499999997014097, 334898809),
    # parity-free rows, where the line through the rounded images at k = 0
    # and 1 gives no digit, or a wide bracket
    (("13", "12", "13"), 0.9999999920056255, 0.9999999766669391, 125087957),
    (("123", "e", "132"), 0.9999999998087031, 0.9999999977094941, 476369881),
    (("13", "e", "13"), 0.9999999924908136, 0.9999999912967648, 133170217),
    # the rounded images put the first run of hits 30 steps above the
    # exact digit, 498097494, and the scan stops there
    (("23", "123", "132"), 0.5000000078689311, 0.500000005861292, 498097523),
    (("123", "123", "23"), 0.5000000051385803, 0.5000000018371361, 302897731),
])
def test_digits_next_to_a_vertex(key, x, y, k):
    assert _solo(key, x, y) == _one_point(key, x, y) == k == _scan(key, x, y, start=k - 64)


@pytest.mark.parametrize("key, x, y, k", [
    # orbit points next to a vertex with a small digit, where the other
    # parity class meets the constraints on a range beyond its pole, 1e8
    # to 1e11 out, in which the eps*k allowance admits whole runs: as in a
    # scan from k = 0, the lowest run is the digit
    (("13", "123", "123"), 0.9999999999934519, 3.148059590785124e-11, 8),
    (("23", "123", "132"), 0.9999999996031503, 0.9999999968700486, 0),
    (("132", "123", "13"), 0.9999999998224609, 8.64292826197044e-09, 97),
])
def test_digits_lowest_run_wins(key, x, y, k):
    assert _solo(key, x, y) == _one_point(key, x, y) == k == _scan(key, x, y)


def test_digits_sample_on_a_pole():
    # at this point the poles of both classes of the row sit at k = 2**21
    # and 2**21 + 1, just above the digit, beyond the search
    key, x, y = ("e", "e", "12"), 0.5, 2.0 ** -21
    assert _solo(key, x, y) == _scan(key, x, y, start=2 ** 21 - 64) == 2 ** 21 - 3


@pytest.mark.parametrize("key", [("e", "e", "e"), ("e", "e", "12")])
def test_digit_at_a_vertex_is_ambiguous(key):
    # every even branch maps the vertex (1, 0) to (0, 0): the candidate
    # range never closes
    with pytest.raises(AmbiguousDigit):
        _solo(key, 1.0, 0.0)
    with pytest.raises(AmbiguousDigit):
        maps._digit(key, 1.0, 0.0)


def test_digits_deep_at_bottom_edge():
    # the point of test_extract_digit_deep_at_bottom_edge, digit about 5e8
    key, x, y = ("12", "13", "12"), 0.9961326767967214, 2.022691291157514e-09
    assert _solo(key, x, y) == _one_point(key, x, y) > 4 * 10 ** 8


@pytest.mark.parametrize("x, y, k", [
    # x' - y' is constant in k on this row, and its slope, a difference of
    # two images of size 4e8, is pure rounding
    (3.9022881188351614e-09, 2.740640529743682e-09, 364878204),
    # a line through the rounded images at k = 0 and 1 misses the digit
    # by about 28 on each side
    (2.6323424541060964e-09, 2.352858154048048e-09, 425014995),
])
def test_digit_deep_in_bottom_left_corner(x, y, k):
    key = ("e", "12", "e")
    assert _solo(key, x, y) == _one_point(key, x, y) == k == _scan(key, x, y, start=k - 64)


def test_exact_formulas_are_linear_fractional_in_each_class():
    # the premise of the exact ranges: on every row and parity class the
    # table formula, evaluated exactly, stays exact, and the three
    # constraints fitted from k-steps 0, 1, 2 give a fourth sample
    # exactly, with one pole
    for key in supported_triples():
        for first, step, s in transfer._parities(key):
            for x, y in ((0.61, 0.22), (0.5000000017, 0.4999999981)):
                xq, yq = maps._Exact(x), maps._Exact(y)
                images = [FORWARD[key].f(maps._Exact(first + step * j), xq, yq,
                                         maps._Exact(int(s))) for j in range(4)]
                assert all(type(v) is maps._Exact for image in images for v in image), key
                c = [(yp, xp - yp, 1 - xp) for xp, yp in images]
                poles = set()
                for v0, v1, v2, v3 in zip(*c):
                    if v1 == v2:
                        assert v0 == v1 == v3, key
                        continue
                    d = (2 * v1 - v0 - v2) / (2 * (v2 - v1))
                    b = v1 * (1 + d) - v0
                    assert v3 == (v0 + 3 * b) / (1 + 3 * d), key
                    poles.add(d)
                assert len(poles) <= 1, key


@pytest.mark.parametrize("k", [0, 1, 2, 7, 40, 1000, 30000])
def test_deeper_is_digit_at_least_k(k, sample_points):
    # the search relies on it: F1^-K(p) = branch_0(T_K(p)) lies in the
    # triangle exactly when the digit of p is at least K
    for key in supported_triples():
        f, branch = FORWARD[key].f, TRANSFER[key].branch
        for p in sample_points[:4]:
            qx, qy = _branch(key, k, p.x, p.y)
            for K in range(max(0, k - 3), k + 4):
                s = -1.0 if K & 1 else 1.0
                assert maps._deeper(f, branch, K, qx, qy, s) == (K <= k), (key, k, K)


def test_one_point_stays_on_floats(monkeypatch, sample_points):
    # on parity-free rows an orbit step costs a few float evaluations, not
    # a call into the array solver, wherever the digit is below the search
    # limit
    def no_arrays(*args):
        raise AssertionError("array solver called")

    monkeypatch.setattr(maps, "_solve", no_arrays)
    for key in supported_triples():
        if FORWARD[key].parity:
            continue
        for k in (0, 1, 5, 17, 40, 999):
            for p in sample_points[:4]:
                qx, qy = _branch(key, k, p.x, p.y)
                assert maps._digit(key, qx, qy)[0] == k, (key, k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(supported_triples()), st.integers(0, 29),
       st.sampled_from(("nan", "beyond k_max")))
def test_digits_batch_with_one_bad_point(key, where, bad):
    pts = [(0.61, 0.22), (0.83, 0.45), (0.37, 0.11)]
    ks = np.arange(10)
    qx, qy = (np.array(c) for c in zip(*(_branch(key, int(k), x, y)
                                         for k in ks for x, y in pts)))
    assert np.array_equal(maps.digits(key, qx, qy, k_max=20), np.repeat(ks, len(pts)))
    bx, by = (math.nan, 0.3) if bad == "nan" else _branch(key, 50, 0.61, 0.22)
    with pytest.raises(TYPED):
        maps.digits(key, np.insert(qx, where, bx), np.insert(qy, where, by), k_max=20)


@pytest.mark.parametrize("fault, error", [("singular", EvaluationSingularity),
                                          ("outside", OutsideTriangle)])
def test_branch_roundtrip_bad_branch_point(monkeypatch, sample_points, fault, error):
    # a non-finite branch point is a singularity, reported before the
    # interior test could call it a point outside the triangle
    key = ("e", "e", "e")
    row = TRANSFER[key]
    bad = sample_points[1].x

    def branch(k, x, y, s):
        a, b = row.branch(k, x, y, s)
        return (a / (x - bad), b) if fault == "singular" else (a, b - (x == bad))

    monkeypatch.setitem(maps.TRANSFER, key, TransferRow(row.weight, branch))
    with pytest.raises(error):
        maps.branch_roundtrip(EEE, 3, sample_points[:3])


def test_digits_batch_matches_points_and_images(sample_points):
    # one batched call gives each point's digit, and _digit hands back the
    # image of the accepted branch exactly as the table formula gives it
    for key in supported_triples():
        qs = [_branch(key, k, p.x, p.y) for k in (0, 1, 5, 9) for p in sample_points[:4]]
        batch = maps.digits(key, [q[0] for q in qs], [q[1] for q in qs])
        for (x, y), k in zip(qs, batch):
            digit, xp, yp = maps._digit(key, x, y)
            assert digit == k == _scan(key, x, y), key
            assert (xp, yp) == maps._eval_formula(key, digit, x, y), key


# --- the one-point digit against its former implementation -----------------

# The former one-point path, copied verbatim (only _digit is renamed, and
# _search_one calls maps._deeper): a dict of images, a _line_window helper
# and _in_closure per candidate, and a scalar galloping search on parity
# rows.  The lean loop of maps._digit, and _solve where it sends parity
# rows, must give bit-identical digits and images.
def _search_one(key, x, y, limit):
    """The largest k <= limit whose _deeper holds, by galloping from k = 1
    and bisecting; None where that is limit itself."""
    f, branch = FORWARD[key].f, TRANSFER[key].branch

    def deeper(k):
        try:
            return maps._deeper(f, branch, k, x, y, -1.0 if k & 1 else 1.0)
        except ZeroDivisionError:
            # counted as outside; the confirmation catches a wrong answer
            return False

    lo, hi = 0, 1
    while True:
        k = hi if hi < limit else limit
        if not deeper(k):
            hi = k
            break
        if k == limit:
            return None
        lo, hi = k, 2 * k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if deeper(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _in_closure(xp, yp, tol=MEMBERSHIP_TOL):
    return yp >= -tol and xp - yp >= -tol and xp <= 1.0 + tol


def _line_window(key, x, y):
    """Candidate digits of one point on a parity-free row, where both image
    components are affine in k: the integers next to the interval that the
    line through the images at k = 0 and 1 keeps in the triangle, and
    those two images by their k.  None where a sample is singular or the
    interval is empty, wide or beyond _SHALLOW."""
    try:
        images = {k: _eval_formula(key, k, x, y) for k in (0, 1)}
    except EvaluationSingularity:
        return None
    (xa, ya), (xb, yb) = images[0], images[1]
    lo, hi = 0.0, float(_SHALLOW)
    # constraints a + b*k >= 0: y' >= 0, x' - y' >= 0, x' <= 1
    for a, b in ((ya, yb - ya), (xa - ya, xb - yb - xa + ya), (1.0 - xa, xa - xb)):
        if b > 0:
            lo = max(lo, -a / b)
        elif b < 0:
            hi = min(hi, -a / b)
        elif a < 0:
            return None
    if not lo <= hi <= lo + _MAX_WIDTH:
        return None
    return math.ceil(lo) - 1, math.floor(hi) + 1, images


def _former_digit(key, x, y, k_max=K_MAX_DEFAULT):
    """(digit, x', y') of one point, with the image the digit was accepted
    on.  One point runs on floats, where numpy on one-element arrays costs
    far more than an orbit step: the line through two images on parity-free
    rows, the search on parity rows.  A window of candidates whose run of
    hits is not clean goes to _solve."""
    reach, margin = _window(key)
    if FORWARD[key].parity:
        found = _search_one(key, x, y, min(k_max, _SHALLOW))
        window = None if found is None else (found - reach, found + reach, {})
    else:
        window = _line_window(key, x, y)
    if window is not None:
        lo, hi, images = max(window[0], 0), min(window[1], k_max), window[2]
        hits = []
        for k in range(lo, hi + 1):
            image = images.get(k)
            if image is None:
                try:
                    image = _eval_formula(key, k, x, y)
                except EvaluationSingularity:
                    continue
            if _in_closure(*image, MEMBERSHIP_TOL + 1e-15 * k):
                hits.append((k, *image))
        # clean: contiguous, above the start of the window and more than
        # margin steps below its end, unless it stops at 0 or k_max; the tie
        # rules of _decide then pick the same hit
        if (hits and hits[-1][0] - hits[0][0] == len(hits) - 1
                and (hits[0][0] > lo or lo == 0)
                and (hits[-1][0] + margin < hi or hi == k_max)):
            return next((h for h in hits if _in_closure(h[1], h[2])), hits[0])
    k, xp, yp = _solve(key, np.array([x], dtype=float), np.array([y], dtype=float), k_max)
    return int(k[0]), float(xp[0]), float(yp[0])


def _bits(fn, key, x, y):
    try:
        k, xp, yp = fn(key, x, y)
    except Exception as exc:  # the error type is part of the answer
        return type(exc).__name__
    return type(k), k, float(xp).hex(), float(yp).hex()


_NEAR = {
    # within gap of an edge or a vertex of the triangle, u along it
    "bottom": lambda g, u: (u, g),
    "diagonal": lambda g, u: (u, u - g),
    "right": lambda g, u: (1.0 - g, u),
    "origin": lambda g, u: (g, g * u),
    "corner (1, 0)": lambda g, u: (1.0 - g, g * u),
    "corner (1, 1)": lambda g, u: (1.0 - g * u, 1.0 - g),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(supported_triples()),
       st.sampled_from(("interior",) + tuple(_NEAR)),
       st.floats(-14.0, -2.0), st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_one_point_digit_matches_former(key, where, log_gap, u, v):
    if where == "interior":
        x, y = max(u, v), min(u, v)
    else:
        x, y = _NEAR[where](10.0 ** log_gap, u)
    assume(0.0 < y < x < 1.0)
    assert _bits(maps._digit, key, x, y) == _bits(_former_digit, key, x, y), (key, x, y)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(supported_triples()), st.floats(1.0, 7.0),
       st.sampled_from(("bottom", "diagonal", "right")),
       st.floats(-17.0, -9.0), st.floats(0.02, 0.98))
def test_one_point_digit_matches_former_at_deep_cylinder_boundaries(key, log_k, edge, log_gap,
                                                                     u):
    # branch_k of a point next to an edge lies next to the boundary of
    # cylinder k, where the eps*k allowance admits neighbours of the digit
    # and the tie rules choose among the hits
    gap = 10.0 ** log_gap
    x, y = {"bottom": (u, gap * u), "diagonal": (u, u * (1.0 - gap)),
            "right": (1.0 - gap, u * (1.0 - gap))}[edge]
    qx, qy = _branch(key, int(10.0 ** log_k), x, y)
    assume(0.0 < qy < qx < 1.0)
    assert _bits(maps._digit, key, qx, qy) == _bits(_former_digit, key, qx, qy), (key, qx, qy)


def test_one_point_digit_matches_former_on_orbit_windows(sample_points):
    # the branch points of each row: windows at the start (k = 0, 1), in
    # the middle and deep, on both parity classes
    for key in supported_triples():
        for k in (0, 1, 2, 3, 17, 40000):
            for p in sample_points[:3]:
                qx, qy = _branch(key, k, p.x, p.y)
                assert _bits(maps._digit, key, qx, qy) == _bits(_former_digit, key, qx, qy), \
                    (key, k, qx, qy)

