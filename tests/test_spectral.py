import math

import mpmath
import pytest

from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps.errors import NoBanachRow, NoEigenfunction
from tripmaps.spectral import (
    GridSpec,
    boundedness_ratio,
    eigen_residual,
    monotonicity_check,
    summand_bound,
    summand_sum,
)
from tripmaps.tables.banach import BANACH
from tripmaps.tables.eigen import EIGENFUNCTIONS
from tripmaps.transfer import branch_point, weight

EEE = PermutationTriple("e", "e", "e")
P = TrianglePoint(0.5, 0.25)


def test_gridspec_layout():
    g = GridSpec(margin=0.05, density=10)
    pts = g.points()
    assert len(pts) == 100
    assert all(0.05 <= p.y <= p.x - 0.049 and p.x <= 0.951 for p in pts)
    with pytest.raises(ValueError):
        GridSpec(margin=0.5)
    with pytest.raises(ValueError):
        GridSpec(density=1)


def test_eigen_residual_eee():
    rep = eigen_residual(EEE, GridSpec(), eps=1e-9)
    assert rep.max_rel_residual < 1e-8
    assert rep.truncation_k >= 32


def test_eigen_residual_worked_row():
    rep = eigen_residual(PermutationTriple("123", "132", "132"))
    assert rep.max_rel_residual < 1e-8


def test_eigen_residual_missing():
    with pytest.raises(NoEigenfunction):
        eigen_residual(PermutationTriple("e", "12", "e"))


def test_summand_sum_hurwitz_oracle():
    # (e,e,e) at (0.5,0.25): sum_k 0.5/(0.5k+1.25)^2 = 2 zeta(2, 2.5)
    oracle = float(2 * mpmath.zeta(2, mpmath.mpf("2.5")))
    assert abs(summand_sum(EEE, P) - oracle) < 1e-9


def test_summand_sum_finite_all_rows():
    for key in BANACH:
        v = summand_sum(PermutationTriple(*key), P)
        assert math.isfinite(v) and v > 0.0


def test_summand_missing_row():
    with pytest.raises(NoBanachRow):
        summand_sum(PermutationTriple("e", "e", "23"), P)


def test_summand_consistency_with_transfer(sample_points):
    # tabulated summand == g(p) * weight(k,p) / g(branch_k(p))
    for key in list(BANACH)[::4]:
        t = PermutationTriple(*key)
        row = BANACH[key]
        for k in range(11):
            for p in sample_points[:3]:
                q = branch_point(t, k, p)
                expect = row.g(p.x, p.y) * weight(t, k, p) / row.g(q.x, q.y)
                got = row.summand(float(k), p.x, p.y)
                assert abs(got - expect) < 1e-10 * max(1.0, abs(expect))


def test_summand_bound_grid_stability():
    # refining the grid moves the max by < 5%
    t = PermutationTriple("12", "13", "12")
    coarse = summand_bound(t, GridSpec(margin=0.05, density=5)).max_sum
    fine = summand_bound(t, GridSpec(margin=0.05, density=9)).max_sum
    assert all(summand_bound(t, GridSpec(density=4)).converged)
    assert abs(fine - coarse) / coarse < 0.05


def test_monotonicity():
    assert monotonicity_check(EEE, n=2, trials=20, seed=11)
    assert monotonicity_check(PermutationTriple("23", "23", "23"), n=1,
                              trials=20, seed=12)


def test_monotonicity_equality_boundary():
    # f = g propagates to equality: linearity of the truncated operator
    from tripmaps.transfer import partial_transfer
    f = lambda x, y: 1.0 + x * y
    a = partial_transfer(EEE, f, P, 64)
    b = partial_transfer(EEE, f, P, 64)
    assert a == b


def test_boundedness_ratio():
    h = EIGENFUNCTIONS[("e", "e", "e")]
    assert boundedness_ratio(EEE, h) == pytest.approx(1.0)
    # (1/x) / (1/(x(y+1))) = y+1, grid sup below 2
    r = boundedness_ratio(EEE, lambda x, y: 1.0 / x)
    assert 1.0 < r < 2.0
    assert math.isfinite(
        boundedness_ratio(PermutationTriple("13", "23", "13"), lambda x, y: 1.0))
    with pytest.raises(NoEigenfunction):
        boundedness_ratio(PermutationTriple("e", "12", "e"), lambda x, y: 1.0)
