import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from tripmaps import claims, gausskuzmin, spectral, transfer
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
    preimage_tree,
    weight,
)

EEE = PermutationTriple("e", "e", "e")
T121 = PermutationTriple("12", "13", "12")
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
    coarse = summand_bound(t, GridSpec(margin=0.05, density=5))
    fine = summand_bound(t, GridSpec(margin=0.05, density=9))
    # a sum that does not converge makes the grid maximum inf
    assert math.isfinite(summand_bound(t, GridSpec(density=4)))
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


def _assert_tree_layout(t, rx, ry, n, K):
    """Node i of level l holds weights[l][i] and has its k-th child at
    index i*K + k of level l + 1, bit for bit a one-level tree of that
    node, and within 1e-14 relative of the one-point weight and
    branch_point (a scalar ** may differ from numpy's vector pow by one
    ulp).  The children of the last level are the leaves."""
    xs, ys, weights = preimage_tree(t, rx, ry, n, K)
    assert xs.shape == ys.shape == (rx.size * K ** n,)
    assert [w.shape for w in weights] == [(rx.size * K ** l, K) for l in range(n)]
    nx, ny = rx, ry
    for level, w in enumerate(weights):
        cx, cy = [], []
        for i, (x, y) in enumerate(zip(nx.tolist(), ny.tolist())):
            ox, oy, (ow,) = preimage_tree(t, np.array([x]), np.array([y]), 1, K)
            assert np.array_equal(w[i], ow[0]), (t, n, level, i)
            cx.append(ox)
            cy.append(oy)
            p = TrianglePoint(x, y)
            for k in range(K):
                q = branch_point(t, k, p)
                assert abs(w[i, k] - weight(t, k, p)) <= 1e-14 * abs(w[i, k])
                assert abs(ox[k] - q.x) <= 1e-14 * abs(q.x)
                assert abs(oy[k] - q.y) <= 1e-14 * abs(q.y)
        nx, ny = np.concatenate(cx), np.concatenate(cy)
    assert np.array_equal(xs, nx) and np.array_equal(ys, ny)


def test_preimage_tree_levels_match_one_level_trees():
    p = TrianglePoint(0.55, 0.2)
    for key in (("e", "e", "e"), ("12", "13", "12"), ("23", "23", "23")):
        for n in (1, 2, 3):
            _assert_tree_layout(PermutationTriple(*key), np.array([p.x]), np.array([p.y]), n, 12)


def test_preimage_tree_batch_matches_single_roots():
    # root r's leaves are the block r*K**n .. (r+1)*K**n - 1, and its nodes
    # of level l the block r*K**l .. (r+1)*K**l - 1 of that level's weights
    rx = np.array([0.55, 0.3, 0.9, 0.62, 0.2])
    ry = np.array([0.2, 0.25, 0.05, 0.61, 0.01])
    for key in (("e", "e", "e"), ("12", "13", "12"), ("23", "23", "23")):
        t = PermutationTriple(*key)
        for n in (1, 2, 3):
            # n = 3 would walk 785 nodes with scalar calls; the single-root
            # test walks that depth
            if n < 3:
                _assert_tree_layout(t, rx, ry, n, 12)
            xs, ys, weights = preimage_tree(t, rx, ry, n, 12)
            assert xs.shape == (rx.size * 12 ** n,)
            assert [w.shape for w in weights] == [(rx.size * 12 ** l, 12) for l in range(n)]
            block = 12 ** n
            for r in range(rx.size):
                sx, sy, sw = preimage_tree(t, rx[r:r + 1], ry[r:r + 1], n, 12)
                assert np.array_equal(xs[r * block:(r + 1) * block], sx)
                assert np.array_equal(ys[r * block:(r + 1) * block], sy)
                for level, w in enumerate(weights):
                    assert np.array_equal(w[r * 12 ** level:(r + 1) * 12 ** level],
                                          sw[level]), (key, n, r, level)


def _patch_weight(monkeypatch, t, change):
    """Make t's weight w at branch k of a node x read change(w, k, x);
    every other row is left as it is."""
    row = transfer.TRANSFER[t.key]
    patched = dataclasses.replace(
        row, weight=lambda k, x, y, s: change(row.weight(k, x, y, s), k, x))
    monkeypatch.setattr(transfer, "_row", lambda u: patched if u.key == t.key
                        else transfer.TRANSFER[u.key])


def _singular_at(monkeypatch, t, x_bad):
    """Make t's weight infinite at every node whose x is x_bad."""
    _patch_weight(monkeypatch, t, lambda w, k, x: np.where(x == x_bad, np.inf, w))


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
    # root 0 has a negative weight, and the last root, in the second tree
    # at n = 3, is singular: the check still raises instead of returning
    # at the first tree with a weight <= 0
    xs, _ = spectral._draw_trials(3, 5)
    negate_first = lambda w, k, x: np.where(x == xs[0], -w, w)
    with monkeypatch.context() as m:
        _patch_weight(m, T121, negate_first)
        assert not monotonicity_check(T121, n=3, trials=5, seed=3, branches=12)
    _patch_weight(monkeypatch, T121,
                  lambda w, k, x: np.where(x == xs[-1], np.inf, negate_first(w, k, x)))
    with pytest.raises(EvaluationSingularity):
        monotonicity_check(T121, n=3, trials=5, seed=3, branches=12)


def test_monotonicity_roots_are_seeded_and_interior():
    # a seed fixes its roots, and seeds differ; each root has x in the draw
    # box, y / x in it unless the clip moved y, and y 0.05 inside the edges
    (x_lo, q_lo), (x_hi, q_hi) = spectral._DRAW_LO, spectral._DRAW_HI
    seen = set()
    for seed in (0, 3, 11, 1001, 1002, 1003, 2 ** 31 - 1):
        xs, ys = spectral._draw_trials(seed, 20)
        again = spectral._draw_trials(seed, 20)
        assert xs.tolist() == again[0].tolist() and ys.tolist() == again[1].tolist()
        seen.add(tuple(xs.tolist()))
        assert ((x_lo <= xs) & (xs <= x_hi)).all()
        assert (np.maximum(q_lo * xs, 0.05) <= ys).all()
        assert (ys <= np.minimum(q_hi * xs, xs - 0.05)).all()
    assert len(seen) == 7


def test_monotonicity_rejects_vacuous_arguments():
    for kwargs in ({"n": 0}, {"trials": 0}, {"trials": -1}, {"branches": 0}):
        with pytest.raises(ValueError):
            monotonicity_check(EEE, **kwargs)


def test_monotonicity_finds_one_negated_root_weight(monkeypatch):
    # one weight of root j alone negated, wherever j sits in its tree: at
    # n = 3 the five roots form trees of 4 and 1
    xs, _ = spectral._draw_trials(3, 5)
    assert monotonicity_check(T121, n=3, trials=5, seed=3, branches=12)
    for j in range(5):
        with monkeypatch.context() as m:
            _patch_weight(m, T121, lambda w, k, x, j=j: np.where((x == xs[j]) & (k == 5), -w, w))
            for n in (1, 3):
                assert not monotonicity_check(T121, n=n, trials=5, seed=3, branches=12), (j, n)


def test_monotonicity_finds_one_negated_deepest_weight(monkeypatch):
    # one weight of one node of level 2, below root 3: only n = 3 reads it
    xs, ys = spectral._draw_trials(3, 5)
    nx, _, _ = preimage_tree(T121, xs, ys, 2, 12)
    node = nx[3 * 144 + 100]
    _patch_weight(monkeypatch, T121, lambda w, k, x: np.where((x == node) & (k == 7), -w, w))
    assert monotonicity_check(T121, n=2, trials=5, seed=3, branches=12)
    assert not monotonicity_check(T121, n=3, trials=5, seed=3, branches=12)


def test_monotonicity_negated_row_fails(monkeypatch):
    # every weight of one row negated: each n fails, and the claim counts
    # that row's three (row, n) pairs
    claim = next(c for c in claims.CLAIMS if c.name == "monotonicity")
    assert monotonicity_check(T121, n=2, trials=5, seed=3, branches=12)
    _patch_weight(monkeypatch, T121, lambda w, k, x: -w)
    for n in (1, 2, 3):
        assert not monotonicity_check(T121, n=n, trials=5, seed=3, branches=12)
    value = claim.run()
    assert value == 3.0 and not value < claim.tol


def test_block_budget_moves_no_bit(monkeypatch):
    # the budget cuts branch sums and order-check trees into blocks; every
    # point and root is summed on its own row, so no value depends on it.
    # The four rows cube a base negative on the triangle (tests/test_transfer.py)
    keys = [("12", "13", "12"), ("13", "13", "13"), ("123", "13", "132"),
            ("132", "13", "123"), ("e", "e", "e"), ("e", "13", "12")]
    trees = []
    tree = spectral.preimage_tree
    monkeypatch.setattr(spectral, "preimage_tree",
                        lambda *args: trees.append(args) or tree(*args))

    def run():
        out = []
        for key in keys:
            t = PermutationTriple(*key)
            if key in EIGENFUNCTIONS:
                out += [eigen_residual(t), gausskuzmin.invariance_check(t, seed=3)]
            out += [summand_bound(t, GridSpec(density=5)),
                    [monotonicity_check(t, n=n, trials=20, seed=n, branches=12)
                     for n in (1, 2, 3)]]
        return out, len(trees)

    default, default_trees = run()
    trees.clear()
    monkeypatch.setattr(transfer, "_BLOCK_TERMS", 64)
    small, small_trees = run()
    assert small == default
    # the monotonicity check reads the patched budget: 64 leaves hold 5
    # roots of 12 leaves at n = 1 (4 trees of 20 trials), one root at n = 2, 3
    assert small_trees == (4 + 20 + 20) * len(keys) > default_trees
