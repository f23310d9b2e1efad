import math

import mpmath
import numpy as np
import pytest

from tripmaps import spectral
from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps.errors import NoBanachRow, NoEigenfunction
from tripmaps.spectral import (
    GridSpec,
    eigen_residual,
    monotonicity_check,
    summand_bound,
    summand_sum,
)
from tripmaps.tables.banach import BANACH
from tripmaps.tables.eigen import EIGENFUNCTIONS
from tripmaps.transfer import (
    branch_point,
    fold_tree,
    partial_transfer,
    preimage_tree,
    weight,
)

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


def test_eigen_truncation_k_all_rows():
    # the cutoff the eigen verb reports: K = 128 for every row at eps 1e-9
    for key in EIGENFUNCTIONS:
        assert eigen_residual(PermutationTriple(*key), GridSpec(), eps=1e-9).truncation_k == 128


def _nested(t, fun, n, K):
    """L^n fun by nested one-point partial_transfer calls."""
    if n == 0:
        return fun
    inner = _nested(t, fun, n - 1, K)

    def outer(xs, ys):
        return np.array([partial_transfer(t, inner, TrianglePoint(x, y), K)
                         for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())]
                        ).reshape(np.shape(xs))

    return outer


def test_preimage_tree_matches_nested_recursion():
    a = np.array([0.4, -0.7, 0.9, -0.2])
    f = lambda x, y: spectral._smooth(a, x, y)
    p = TrianglePoint(0.55, 0.2)
    for key in (("e", "e", "e"), ("12", "13", "12"), ("23", "23", "23")):
        t = PermutationTriple(*key)
        for n in (1, 2, 3):
            xs, ys, weights = preimage_tree(t, p, n, 12)
            assert xs.shape == (12 ** n,) and len(weights) == n
            tree = float(fold_tree(weights, f(xs, ys)))
            ref = float(_nested(t, f, n, 12)(np.array([p.x]), np.array([p.y]))[0])
            assert abs(tree - ref) <= 1e-14 * abs(ref), (key, n, tree, ref)


def test_monotonicity_reversed_pair_fails(monkeypatch):
    # g = f - bump lies below f, so the check must find a broken order
    t = PermutationTriple("12", "13", "12")
    assert monotonicity_check(t, n=2, trials=5, seed=3, branches=12)
    bump = spectral._bump
    monkeypatch.setattr(spectral, "_bump", lambda c, x, y: -bump(c, x, y))
    for n in (1, 2, 3):
        assert not monotonicity_check(t, n=n, trials=5, seed=3, branches=12)
