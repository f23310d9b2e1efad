import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from tripmaps import spectral, transfer
from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps.errors import EvaluationSingularity, NoBanachRow, NoEigenfunction
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
            xs, ys, weights = preimage_tree(t, np.array([p.x]), np.array([p.y]), n, 12)
            assert xs.shape == (12 ** n,) and len(weights) == n
            tree = float(fold_tree(weights, f(xs, ys))[0])
            ref = float(_nested(t, f, n, 12)(np.array([p.x]), np.array([p.y]))[0])
            assert abs(tree - ref) <= 1e-14 * abs(ref), (key, n, tree, ref)


def test_preimage_tree_batch_matches_single_roots():
    # root r's leaves are the block r*K**n .. (r+1)*K**n - 1, and folding
    # gives each root the value of its own single-root tree
    a = np.array([0.4, -0.7, 0.9, -0.2])
    f = lambda x, y: spectral._smooth(a, x, y)
    rx = np.array([0.55, 0.3, 0.9, 0.62, 0.2])
    ry = np.array([0.2, 0.25, 0.05, 0.61, 0.01])
    for key in (("e", "e", "e"), ("12", "13", "12"), ("23", "23", "23")):
        t = PermutationTriple(*key)
        for n in (1, 2, 3):
            xs, ys, weights = preimage_tree(t, rx, ry, n, 12)
            assert xs.shape == (rx.size * 12 ** n,)
            assert [w.shape for w in weights] == [(rx.size * 12 ** l, 12) for l in range(n)]
            batch = fold_tree(weights, np.stack((f(xs, ys), 2.0 * f(xs, ys))))
            assert batch.shape == (2, rx.size)
            block = 12 ** n
            for r in range(rx.size):
                sx, sy, sw = preimage_tree(t, rx[r:r + 1], ry[r:r + 1], n, 12)
                assert np.array_equal(xs[r * block:(r + 1) * block], sx)
                assert np.array_equal(ys[r * block:(r + 1) * block], sy)
                single = fold_tree(sw, np.stack((f(sx, sy), 2.0 * f(sx, sy))))[:, 0]
                assert np.all(np.abs(batch[:, r] - single) <= 1e-14 * np.abs(single)), (
                    key, n, r, batch[:, r], single)


def _singular_at(monkeypatch, t, x_bad):
    """Make t's weight infinite at every node whose x is x_bad."""
    row = transfer.TRANSFER[t.key]
    weight = lambda k, x, y, s: np.where(x == x_bad, np.inf, row.weight(k, x, y, s))
    monkeypatch.setattr(transfer, "_row", lambda _: dataclasses.replace(row, weight=weight))


def test_preimage_tree_names_singular_root(monkeypatch):
    rx, ry = np.array([0.5, 0.3, 0.7]), np.array([0.25, 0.1, 0.6])
    level1, _, _ = preimage_tree(EEE, rx, ry, 1, 4)
    # node 5 of level 1 lies below root 1; root 2 is singular itself
    for x_bad, root in ((level1[5], "(0.3, 0.1)"), (0.7, "(0.7, 0.6)")):
        with monkeypatch.context() as m:
            _singular_at(m, EEE, x_bad)
            with pytest.raises(EvaluationSingularity, match=re.escape(root)):
                preimage_tree(EEE, rx, ry, 2, 4)


def test_monotonicity_singular_last_trial_raises(monkeypatch):
    # every trial breaks the order, and the last one's root is singular:
    # the check still raises instead of returning at the first broken trial
    t = PermutationTriple("12", "13", "12")
    _, _, xs, _ = spectral._draw_trials(3, 5)
    bump = spectral._bump
    monkeypatch.setattr(spectral, "_bump", lambda c, x, y: -bump(c, x, y))
    assert not monotonicity_check(t, n=3, trials=5, seed=3, branches=12)
    _singular_at(monkeypatch, t, xs[-1])
    with pytest.raises(EvaluationSingularity):
        monotonicity_check(t, n=3, trials=5, seed=3, branches=12)


def test_monotonicity_draw_matches_per_trial_stream():
    # the one (trials, 9) draw reproduces the former per-trial draws bit for bit
    for seed in (0, 3, 11, 1001, 1002, 1003, 2 ** 31 - 1):
        rng = np.random.default_rng(seed)
        ref = []
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0, size=4)
            c = rng.uniform(0.0, 1.0, size=3)
            x = rng.uniform(0.15, 0.85)
            y = rng.uniform(0.1, 0.9) * x
            y = min(max(y, 0.05), x - 0.05)
            ref.append((a, c, x, y))
        a, c, xs, ys = spectral._draw_trials(seed, 20)
        assert np.array_equal(a, np.array([r[0] for r in ref]))
        assert np.array_equal(c, np.array([r[1] for r in ref]))
        assert xs.tolist() == [r[2] for r in ref]
        assert ys.tolist() == [r[3] for r in ref]


def test_monotonicity_fails_only_on_nonpositive_weights():
    # L^n g - L^n f = L^n(bump) with bump > 0, so the check fails exactly
    # when some tree weight is <= 0 (a weight that is not finite raises)
    for key in BANACH:
        t = PermutationTriple(*key)
        for n in (1, 2, 3):
            seed = 1000 + n
            _, _, xs, ys = spectral._draw_trials(seed, 20)
            _, _, weights = preimage_tree(t, xs, ys, n, 12)
            positive = all(bool((w > 0).all()) for w in weights)
            assert monotonicity_check(t, n=n, trials=20, seed=seed, branches=12) == positive
            assert positive, (key, n)


def test_monotonicity_rejects_vacuous_arguments():
    for kwargs in ({"n": 0}, {"trials": 0}, {"trials": -1}, {"branches": 0}):
        with pytest.raises(ValueError):
            monotonicity_check(EEE, **kwargs)


def test_monotonicity_finds_one_reversed_trial(monkeypatch):
    # g = f - bump in trial j alone, wherever j sits in its batch
    t = PermutationTriple("12", "13", "12")
    c, bump = spectral._draw_trials(3, 5)[1], spectral._bump
    for j in range(5):
        flip = lambda cc, x, y, j=j: np.where(cc[0] == c[j, 0], -1.0, 1.0) * bump(cc, x, y)
        monkeypatch.setattr(spectral, "_bump", flip)
        for n in (1, 3):
            assert not monotonicity_check(t, n=n, trials=5, seed=3, branches=12), (j, n)


def test_monotonicity_reversed_pair_fails(monkeypatch):
    # g = f - bump lies below f, so the check must find a broken order
    t = PermutationTriple("12", "13", "12")
    assert monotonicity_check(t, n=2, trials=5, seed=3, branches=12)
    bump = spectral._bump
    monkeypatch.setattr(spectral, "_bump", lambda c, x, y: -bump(c, x, y))
    for n in (1, 2, 3):
        assert not monotonicity_check(t, n=n, trials=5, seed=3, branches=12)
