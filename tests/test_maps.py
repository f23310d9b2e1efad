import hashlib
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tripmaps.domain import (PERMUTATION_LABELS, PermutationTriple, TrianglePoint,
                             interior_points, supported_triples)
from tripmaps.errors import (AmbiguousDigit, BoundaryHit, DigitNotFound, EvaluationSingularity,
                             OutsideTriangle, UnsupportedTriple)
from tripmaps import gausskuzmin, maps, transfer, trip
from tripmaps.maps import K_MAX_DEFAULT, _solve
from tripmaps.tables.forward import FORWARD, ForwardRow
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
    assert _outcome(_solo, key, qx, qy) == _outcome(_scan, key, qx, qy), (key, k, qx, qy)


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
    assert _outcome(_solo, key, qx, qy) == _outcome(_scan, key, qx, qy, k - 128, k + 128), \
        (key, qx, qy)


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
    assert _solo(key, x, y) == k == _scan(key, x, y, start=k - 64)


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
    assert _solo(key, x, y) == k == _scan(key, x, y)


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


def test_digits_deep_at_bottom_edge():
    # the point of test_extract_digit_deep_at_bottom_edge, digit about 5e8
    key, x, y = ("12", "13", "12"), 0.9961326767967214, 2.022691291157514e-09
    assert _solo(key, x, y) > 4 * 10 ** 8


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
    assert _solo(key, x, y) == k == _scan(key, x, y, start=k - 64)


def test_exact_formulas_are_linear_fractional_in_each_class():
    # the premise of the bracket and of the exact path: on every row and
    # parity class the derived lines give the table formula, evaluated
    # exactly, at j = 0..5, inside the triangle and 1e-12 from each edge:
    # their numerators sum to (1 + 3 tol) times a denominator that is not
    # 0, and over it are y' + tol, x' - y' + tol and 1 + tol - x'.  On
    # parity-free rows the denominator does not depend on j
    tol, gap = Fraction(maps.MEMBERSHIP_TOL), Fraction(1, 10 ** 12)
    points = [(Fraction(0.61), Fraction(0.22)), (Fraction(3, 5), gap),
              (Fraction(5, 7), Fraction(5, 7) - gap), (1 - gap, Fraction(2, 7)),
              (Fraction(1, 2) + 17 * gap, Fraction(1, 2) - 19 * gap)]
    for key in supported_triples():
        classes = trip._parities(key)
        exact, approx = maps._model(key)
        assert np.array_equal(approx, exact.astype(float)), key
        assert FORWARD[key].parity or not exact[:, 1].sum(axis=1).any(), key
        for (first, step, s), lines in zip(classes, exact):
            for x, y in points:
                for j in range(6):
                    xp, yp = FORWARD[key].f(Fraction(first + step * j), x, y, Fraction(s))
                    assert type(xp) is Fraction and type(yp) is Fraction, key
                    num = (lines[0] + j * lines[1]) @ np.array([x, y, 1], dtype=object)
                    den = num.sum() / (1 + 3 * tol)
                    assert den != 0, (key, first, x, y, j)
                    assert list(num) == [(yp + tol) * den, (xp - yp + tol) * den,
                                         (1 + tol - xp) * den], (key, first, x, y, j)


def _project(m, x, y):
    """(u/w, v/w) and w, for (u, v, w) = m (x, y, 1)."""
    u, v, w = (a * x + b * y + c for a, b, c in m)
    return u / w, v / w, w


def test_tables_are_the_trip_construction():
    # on every row and in both parity classes, exactly: the transfer
    # row's branch is the image under the branch pencil M0 + j M1 of the
    # row's labels, the forward row the image under its adjugate, and the
    # weight 1/|w|^3 for w the last entry of (M0 + j M1)(x, y, 1).
    # det(M0 + j M1), a cubic in j, is 1 or -1 at four j, so everywhere,
    # and the adjugate is the inverse up to that sign
    rng = np.random.default_rng(36)
    points = [(Fraction(3, 5), Fraction(1, 10 ** 12))]
    for d in 10 ** 6 + rng.integers(0, 1000, 3):
        x, y = (Fraction(int(n), int(d)) for n in sorted(rng.integers(1, d, 2), reverse=True))
        assert 0 < y < x < 1
        points.append((x, y))
    ks = [0, 1, 2, 3, 1000, 1001, 10 ** 6, 10 ** 6 + 1]
    for key in supported_triples():
        forward, row, classes = FORWARD[key].f, TRANSFER[key], trip._parities(key)
        for (first, step, s), (m0, m1) in zip(classes, trip.pencils(key)):
            dets = [m[0] @ np.cross(m[1], m[2]) for m in (m0 + j * m1 for j in range(4))]
            assert dets in ([1] * 4, [-1] * 4), (key, first)
            for k in ks[first::len(classes)]:
                m = m0 + (k - first) // step * m1
                kf, sf = Fraction(k), Fraction(s)
                for x, y in points:
                    case = (key, k, x, y)
                    assert forward(kf, x, y, sf) == _project(trip._adjugate(m), x, y)[:2], case
                    u, v, w = _project(m, x, y)
                    assert row.branch(kf, x, y, sf) == (u, v), case
                    assert row.weight(kf, x, y, sf) == 1 / abs(w) ** 3, case


def test_supported_triples_square_to_zero():
    # why these 108 of the 216 label triples: on the parity-free rows,
    # affine in k, E = F1 - I has E^2 = 0, and on the parity rows, affine
    # in k within each class, E = F1^2 - I has; F1^(first + step j) is
    # then F1^first (I + j E)
    eye = np.eye(3, dtype=np.int64)
    parity = {}
    for key in itertools.product(PERMUTATION_LABELS, repeat=3):
        f1 = trip._trip(key)[1]
        for p, e in ((False, f1 - eye), (True, f1 @ f1 - eye)):
            if not (e @ e).any():
                parity[key] = p
                break
    assert parity == {key: row.parity for key, row in FORWARD.items()}


def test_model_lines_are_pinned():
    # a sha256 over the exact lines of all 180 parity classes, each class
    # signed so that its first nonzero entry is positive: the lines, up to
    # sign, fix every digit the bracket and the exact path give
    text = []
    for key in supported_triples():
        for lines in maps._model(key)[0]:
            flat = [Fraction(v) for v in lines.ravel()]
            sign = 1 if next(v for v in flat if v) > 0 else -1
            text.append(",".join(str(sign * v) for v in flat))
    assert len(text) == 180
    assert hashlib.sha256(";".join(text).encode()).hexdigest() == \
        "d2a4893ae1c375a93561f4e02cb0309cf2bb4e5ddec73e45949572df1addd2c3"


@pytest.mark.parametrize("k_max", [2 ** 63, 10 ** 19, 10 ** 20, 2.5, 3.0, True, None])
def test_digits_rejects_bad_k_max(k_max):
    with pytest.raises(ValueError, match="k_max"):
        maps.digits(EEE.key, [0.5], [0.25], k_max)


@pytest.mark.parametrize("k_max", [20, np.int64(20), np.uint8(20), 2 ** 63 - 1])
def test_digits_takes_integral_k_max(k_max):
    assert maps.digits(EEE.key, [0.5], [0.25], k_max).tolist() == [1]


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

    monkeypatch.setitem(TRANSFER, key, TransferRow(row.weight, branch))
    with pytest.raises(error):
        maps.branch_roundtrip(EEE, 3, sample_points[:3])


def _forward_singular_at(monkeypatch, key, x_bad):
    """Make the first image coordinate of row key divide by zero wherever
    x is x_bad."""
    f, parity = FORWARD[key].f, FORWARD[key].parity
    monkeypatch.setitem(FORWARD, key, ForwardRow(parity, lambda k, x, y, s: (
        f(k, x, y, s)[0] / (x - x_bad), f(k, x, y, s)[1])))


def test_apply_branch_formula_singular_point(monkeypatch):
    p = TrianglePoint(0.5, 0.25)
    _forward_singular_at(monkeypatch, EEE.key, p.x)
    with pytest.raises(EvaluationSingularity):
        maps.apply_branch_formula(EEE, 3, p)


def test_branch_roundtrip_singular_forward_formula(monkeypatch, sample_points):
    # branch 1 of point 1 is leaf 5 of the tree over 4 branches
    pts = sample_points[:3]
    a, _, _ = transfer.preimage_tree(EEE, np.array([p.x for p in pts]),
                                     np.array([p.y for p in pts]), 1, 4)
    _forward_singular_at(monkeypatch, EEE.key, a[5])
    with pytest.raises(EvaluationSingularity, match="at k=1$"):
        maps.branch_roundtrip(EEE, 3, pts)


@pytest.mark.parametrize("call, error, message", [
    (lambda pts: maps.digits(EEE.key, [0.6, 0.7], [0.2]), ValueError,
     "xs and ys differ in size: 2 and 1"),
    (lambda pts: maps.digits(EEE.key, [0.6, 0.7, 0.8], [0.2, 0.3]), ValueError,
     "xs and ys differ in size: 3 and 2"),
    (lambda pts: maps.branch_roundtrip(EEE, -1, pts), ValueError, "k_max must be non-negative"),
    (lambda pts: maps.branch_roundtrip(EEE, 3, []), ValueError, "no points"),
    (lambda pts: maps.branch_roundtrip(EEE, 2.0, pts), ValueError,
     "k_max must be an integer, got 2.0"),
    (lambda pts: maps.branch_roundtrip(EEE, True, pts), ValueError,
     "k_max must be an integer, got True"),
    (lambda pts: maps.digits(("e", "e", "x"), [0.5], [0.2]), UnsupportedTriple,
     "no forward row for ('e', 'e', 'x')"),
    (lambda pts: maps.digits(EEE.key, [0.5], [0.2], k_max=-1), ValueError,
     "k_max must be non-negative"),
], ids=["digits-2-1", "digits-3-2", "roundtrip-negative-kmax", "roundtrip-no-points",
        "roundtrip-float-kmax", "roundtrip-bool-kmax", "digits-unknown-key",
        "digits-negative-kmax"])
def test_bad_input_is_named(sample_points, call, error, message):
    # these escaped as an IndexError, a numpy broadcast error, numpy's
    # "zero-size array to reduction operation maximum", a TypeError from
    # bitwise_and, a run with k_max = 1, a KeyError, and DigitNotFound
    # "below k_max=-1"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(sample_points[:3])


def test_branch_roundtrip_takes_a_small_numpy_k_max(sample_points):
    # K = k_max + 1 wrapped to 0 in uint8, which raised numpy's "zero-size
    # array to reduction operation maximum"
    pts = sample_points[:3]
    assert maps.branch_roundtrip(EEE, np.uint8(255), pts) == maps.branch_roundtrip(EEE, 255, pts)


def test_digits_batch_matches_points_and_images(sample_points):
    # one batched call gives each point's digit, and an orbit step hands
    # back the same digit as an int, with the image of the accepted branch
    # exactly as the table formula gives it
    for key in supported_triples():
        t = PermutationTriple(*key)
        qs = [_branch(key, k, p.x, p.y) for k in (0, 1, 5, 9) for p in sample_points[:4]]
        batch = maps.digits(key, [q[0] for q in qs], [q[1] for q in qs])
        for (x, y), k in zip(qs, batch):
            st = maps.step(t, TrianglePoint(x, y))
            assert st.digit == k == _scan(key, x, y), key
            assert type(st.digit) is int, key
            assert (st.image.x, st.image.y) == FORWARD[key].f(
                st.digit, x, y, -1.0 if st.digit & 1 else 1.0), key


# --- the bracket of _solve against the exact ranges --------------------------

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


def _first(solve):
    # the digit and image of one point, through the array solver
    def one(key, x, y):
        return tuple(v[0] for v in solve(key, np.array([x]), np.array([y]), K_MAX_DEFAULT))
    return one


@np.errstate(all="ignore")
def _exact_solve(key, xs, ys, k_max):
    """maps._solve_exact as _solve calls it, its float digits as int64:
    the exact ranges decide every point."""
    digit, image_x, image_y = maps._solve_exact(key, xs, ys, k_max)
    return digit.astype(np.int64), image_x, image_y


@st.composite
def _row_points(draw):
    key = draw(st.sampled_from(supported_triples()))
    where = draw(st.sampled_from(("interior", "cylinder", "deep") + tuple(_NEAR)))
    u, v = draw(st.floats(0.001, 0.999)), draw(st.floats(0.001, 0.999))
    if where == "interior":
        return key, max(u, v), min(u, v)
    if where in _NEAR:
        return (key, *_NEAR[where](10.0 ** draw(st.floats(-14.0, -2.0)), u))
    if where == "cylinder":
        # branch_k of a point next to an edge lies next to the boundary of
        # cylinder k
        gap = 10.0 ** draw(st.floats(-17.0, -9.0))
        edge = draw(st.sampled_from(("bottom", "diagonal", "right")))
        x, y = {"bottom": (u, gap * u), "diagonal": (u, u * (1.0 - gap)),
                "right": (1.0 - gap, u * (1.0 - gap))}[edge]
        k = int(10.0 ** draw(st.floats(0.0, 7.0)))
    else:
        # digits of 1e6 to 5e8 sit next to a vertex
        x, y = max(u, v), min(u, v)
        k = int(10.0 ** draw(st.floats(6.0, math.log10(5e8))))
    return (key, *_branch(key, k, x, y))


@settings(max_examples=800, deadline=None)
@given(_row_points())
def test_bracket_matches_exact_ranges(point):
    # _solve takes its window from the float fit of each parity class at
    # j = 0, 1, 2 (j = 0, 1 on parity-free rows); the exact ranges give
    # every point the same digit and image bit for bit, or the same error
    key, x, y = point
    assume(0.0 < y < x < 1.0)
    assert _bits(_first(_solve), key, x, y) == _bits(_first(_exact_solve), key, x, y), \
        (key, x, y)


def _forbid_exact_path(monkeypatch):
    def no_exact(*args):
        raise AssertionError("exact path called")

    monkeypatch.setattr(maps, "_solve_exact", no_exact)


def test_bracket_decides_interior_points_on_every_row(monkeypatch, sample_points):
    # the bracket settles the branch points of interior points on every
    # row, deep ones apart, without the exact path
    _forbid_exact_path(monkeypatch)
    for key in supported_triples():
        qs = [_branch(key, k, p.x, p.y) for k in (0, 1, 5, 999) for p in sample_points[:4]]
        got = maps.digits(key, [q[0] for q in qs], [q[1] for q in qs])
        assert np.array_equal(got, np.repeat([0, 1, 5, 999], 4)), key


def test_bracket_reaches_beyond_the_pole(monkeypatch):
    # a parity row whose images share the pole k = 10 and meet the triangle
    # at k = 20 only: in both classes the digit lies on the far side of
    # the pole from j = 0
    def f(k, x, y, s):
        t = (k - 20) / (k - 10)
        return x + 100 * t, y - 100 * t

    def at(k):  # (x', y', 1) ~ at(k) (x, y, 1)
        return np.array([[k - 10, 0, 100 * (k - 20)], [0, k - 10, -100 * (k - 20)],
                         [0, 0, k - 10]], dtype=object)

    # the lines of its classes k = first + 2j, A = at(first), B = at(first + 2) - A
    lines = np.array([maps._CONSTRAINTS @ np.array([at(first), at(first + 2) - at(first)])
                      for first in (0, 1)])
    monkeypatch.setitem(FORWARD, EEE.key, ForwardRow(True, f))
    monkeypatch.setattr(maps, "_model", lambda key: (lines, lines.astype(float)))
    # so do the exact ranges, each on its side of its class's pole
    got = _exact_solve(EEE.key, np.array([0.5]), np.array([0.25]), K_MAX_DEFAULT)[0]
    assert got.tolist() == [20]
    _forbid_exact_path(monkeypatch)
    assert _solo(EEE.key, 0.5, 0.25) == 20


@pytest.mark.parametrize("k", [10 ** 4, 3 * 10 ** 4, 10 ** 5, 10 ** 6])
def test_deep_digits_on_parity_rows_skip_the_exact_path(monkeypatch, k):
    # the branch points of 8 interior points on the 72 parity rows, deep
    # enough that the images carry terms of size k: the bracket, read from
    # lines derived exactly, decides each of them, and each digit is the
    # one the exact path gives
    pts = interior_points(1, 8)
    cases = []
    for key in supported_triples():
        if FORWARD[key].parity:
            qx, qy = (np.array(c) for c in zip(*(_branch(key, k, p.x, p.y) for p in pts)))
            cases.append((key, qx, qy, _exact_solve(key, qx, qy, K_MAX_DEFAULT)[0]))
    assert sum(qx.size for _, qx, _, _ in cases) == 576
    _forbid_exact_path(monkeypatch)
    for key, qx, qy, digit in cases:
        assert np.array_equal(maps.digits(key, qx, qy), digit), key


# images of synthetic candidates, by kind; the "allow" kinds miss the
# closure by half the eps*k allowance, on each edge in turn, so the
# allowance admits them and the base tolerance does not (for k >= 1)
def _allowed(k):
    return maps.MEMBERSHIP_TOL + 5e-16 * k


_IMAGES = {
    "in": lambda k: (0.75, 0.25),
    "allow_y": lambda k: (0.5, -_allowed(k)),
    "allow_diag": lambda k: (0.5, 0.5 + _allowed(k)),
    "allow_x": lambda k: (1.0 + _allowed(k), 0.5),
    "out": lambda k: (0.5, -0.25),
    "nan": lambda k: (math.nan, 0.5),
    "nan_y": lambda k: (0.5, math.nan),
    "inf": lambda k: (math.inf, 0.5),
    "-inf": lambda k: (-math.inf, 0.5),
    "inf_y": lambda k: (0.5, math.inf),
    "-inf_y": lambda k: (0.5, -math.inf),
    "inf_inf": lambda k: (math.inf, math.inf),
    "-inf_-inf": lambda k: (-math.inf, -math.inf),
    "-inf_inf": lambda k: (-math.inf, math.inf),
}


def _scan_candidates(cands):
    """The tie rules as a plain scan from k = 0 over one point's candidates
    (k, x', y'), k increasing, every other k a miss: a hit is a finite
    image in the closure at the eps*k allowance, six misses after a hit
    end the run, and its lowest hit inside at MEMBERSHIP_TOL wins, else
    its lowest hit.  (digit, x', y', lowest, highest, count)."""
    def closed(x, y, tol):
        return y >= -tol and x - y >= -tol and x <= 1.0 + tol

    run = []
    for k, x, y in cands:
        if not (math.isfinite(x) and math.isfinite(y)
                and closed(x, y, maps.MEMBERSHIP_TOL + 1e-15 * k)):
            continue
        if run and k - run[-1][0] > 6:
            break
        run.append((k, x, y))
    if not run:
        return math.inf, math.nan, math.nan, math.inf, -math.inf, 0
    inside = [c for c in run if closed(c[1], c[2], maps.MEMBERSHIP_TOL)]
    k, x, y = (inside or run)[0]
    return k, x, y, run[0][0], run[-1][0], len(run)


_points = st.lists(st.tuples(st.sampled_from([0, 3, 10 ** 6, 2 ** 40]),
                             st.lists(st.tuples(st.sampled_from([1, 1, 2, 5, 6, 7, 8]),
                                                st.sampled_from(sorted(_IMAGES))),
                                      max_size=10)),
                   min_size=1, max_size=6)


@settings(max_examples=400, deadline=None)
@given(_points)
@example([
    # hits 6 steps apart stay in one run, 7 apart end it; the run's lowest
    # hit is admitted by the allowance alone, so the next one inside wins
    (3, [(1, "allow_y"), (6, "in"), (7, "in")]),
    # nan and infinite images never hit; no hit at all
    (0, [(1, "nan"), (1, "inf"), (1, "-inf_-inf"), (1, "out")]),
    # no candidates
    (0, []),
    # a run of allowance-only hits: its lowest hit wins
    (10 ** 6, [(1, "allow_x"), (1, "allow_diag"), (7, "in")]),
])
def test_decide_matches_a_plain_scan(points):
    pt, k, xp, yp, expected = [], [], [], [], []
    for i, (start, steps) in enumerate(points):
        cands, at = [], start - 1
        for step, kind in steps:
            at += step
            cands.append((at, *_IMAGES[kind](at)))
        for c in cands:
            pt.append(i)
            k.append(c[0])
            xp.append(c[1])
            yp.append(c[2])
        expected.append(_scan_candidates(cands))
    pt, k = np.array(pt, dtype=np.int64), np.array(k, dtype=np.int64)

    def images(key, ks, x, y):
        assert np.array_equal(ks, k)
        return np.array(xp, dtype=float), np.array(yp, dtype=float)

    n = len(points)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        mp.setattr(maps, "_images", images)
        got = maps._decide(EEE.key, np.zeros(n), np.zeros(n), pt, k)
    for i, (digit, x, y, lowest, highest, count) in enumerate(expected):
        assert got[0][i] == digit, (i, points[i])
        assert got[1][i].hex() == float(x).hex() and got[2][i].hex() == float(y).hex()
        assert (got[3][i], got[4][i], got[5][i]) == (lowest, highest, count), (i, points[i])


def test_solve_temporaries_stay_small():
    # 8192 exact e,e,e draws, twice the walkers of a Monte Carlo chunk: the
    # traced peak of one _solve stays at or below 1.76 MB (201 bytes a point
    # measured)
    rng = np.random.Generator(np.random.Philox(1))
    xs, ys = gausskuzmin._draws(rng, gausskuzmin.density(EEE), 8192)
    _solve(EEE.key, xs, ys, K_MAX_DEFAULT)  # the row's model is cached
    tracemalloc.start()
    try:
        _solve(EEE.key, xs, ys, K_MAX_DEFAULT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_760_000
