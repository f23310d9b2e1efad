import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from tripmaps.domain import PermutationTriple, TrianglePoint, supported_triples
from tripmaps.errors import TruncationFailure
from tripmaps.transfer import (
    TruncationPolicy,
    apply_transfer,
    branch_point,
    jacobian_residual,
    partial_transfer,
    weight,
)

EEE = PermutationTriple("e", "e", "e")
P = TrianglePoint(0.5, 0.25)


def test_policy_validation():
    TruncationPolicy(eps=1e-10, k_max=10_000)
    for bad in (dict(eps=0.0), dict(k_max=0)):
        with pytest.raises(ValueError):
            TruncationPolicy(**bad)


def test_weights_positive(sample_points):
    for key in list(supported_triples())[::5]:
        t = PermutationTriple(*key)
        for k in range(8):
            for p in sample_points[:4]:
                assert weight(t, k, p) > 0.0


def test_eee_weight_closed_form():
    # (e,e,e) inverse-branch Jacobian is 1/(kx+y+1)^3
    for k in range(5):
        expect = 1.0 / (k * P.x + P.y + 1.0) ** 3
        assert math.isclose(weight(EEE, k, P), expect, rel_tol=1e-14)


def test_transfer_of_one_matches_hurwitz():
    # L1(p) = sum_k (kx+y+1)^-3 = x^-3 * zeta(3, (y+1)/x), an mpmath oracle
    val, err = apply_transfer(EEE, lambda x, y: 1.0, P,
                              TruncationPolicy(eps=1e-10))
    oracle = float(mpmath.zeta(3, mpmath.mpf("1.25") / mpmath.mpf("0.5"))
                   / mpmath.mpf("0.5") ** 3)
    assert abs(val - oracle) < 1e-10
    assert err <= 1e-10


def test_transfer_linearity():
    f = lambda x, y: x + 0.3 * y
    g = lambda x, y: 1.0 / (x + 1.0)
    pol = TruncationPolicy(eps=1e-10)
    vf, _ = apply_transfer(EEE, f, P, pol)
    vg, _ = apply_transfer(EEE, g, P, pol)
    vsum, _ = apply_transfer(EEE, lambda x, y: 2.0 * f(x, y) - g(x, y), P, pol)
    assert math.isclose(vsum, 2.0 * vf - vg, abs_tol=1e-9)


def test_partial_transfer_converges_to_full():
    f = lambda x, y: x * y + 0.1
    full, _ = apply_transfer(EEE, f, P, TruncationPolicy(eps=1e-10))
    parts = [partial_transfer(EEE, f, P, K) for K in (50, 200, 800)]
    gaps = [abs(full - v) for v in parts]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_truncation_failure_raised():
    with pytest.raises(TruncationFailure):
        apply_transfer(EEE, lambda x, y: 1.0, P,
                       TruncationPolicy(eps=1e-16, k_max=64))


def test_stats_reports_cutoff():
    stats = {}
    apply_transfer(EEE, lambda x, y: 1.0, P, TruncationPolicy(eps=1e-8),
                   stats=stats)
    assert stats["K"] >= 32 and stats["K"] % 32 == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(supported_triples()), st.integers(0, 10),
       st.floats(0.1, 0.9), st.floats(0.1, 0.9))
def test_jacobian_matches_weight(key, k, u, v):
    x, y = max(u, v), min(u, v)
    if not (0.05 < y < x - 0.05 and x < 0.95):
        return
    t = PermutationTriple(*key)
    assert jacobian_residual(t, k, TrianglePoint(x, y)) < 1e-6


def test_branch_points_interior(sample_points):
    for key in list(supported_triples())[::11]:
        t = PermutationTriple(*key)
        for k in range(12):
            for p in sample_points[:3]:
                q = branch_point(t, k, p)   # TrianglePoint validates interior
                assert 0.0 < q.y < q.x < 1.0
