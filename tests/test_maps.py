import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tripmaps.domain import PermutationTriple, TrianglePoint, supported_triples
from tripmaps.errors import AmbiguousDigit, BoundaryHit, DigitNotFound
from tripmaps import maps, transfer
from tripmaps.tables.forward import FORWARD

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
