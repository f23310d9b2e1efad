import ast
import dataclasses
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tripmaps import claims, transfer
from tripmaps.domain import PermutationTriple, TrianglePoint, supported_triples
from tripmaps.errors import (EvaluationSingularity, NotArrayNative, StencilOutOfDomain,
                             TruncationFailure)
from tripmaps.tables import transfer_rows
from tripmaps.tables.forward import FORWARD
from tripmaps.tables.transfer_rows import TRANSFER, TransferRow
from tripmaps.transfer import (
    TruncationPolicy,
    _columns,
    apply_transfer,
    apply_transfer_batch,
    branch_point,
    jacobian_residual,
    partial_transfer,
    weight,
)
from tripmaps.trip import _parities

EEE = PermutationTriple("e", "e", "e")
P = TrianglePoint(0.5, 0.25)


def test_policy_validation():
    TruncationPolicy(eps=1e-10, k_max=10_000)
    # a nan eps passed an eps <= 0 test, and no tail estimate can meet it
    for bad in (dict(eps=0.0), dict(eps=math.nan), dict(eps=math.inf), dict(k_max=0)):
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


def test_jacobian_stencil_out_of_domain():
    # the central-difference step is 1e-5: a point within it of any edge
    # (y = 0, y = x, x = 1) would put the stencil outside the triangle
    for p in (TrianglePoint(0.5, 5e-6), TrianglePoint(0.5, 0.5 - 5e-6),
              TrianglePoint(1.0 - 5e-6, 0.5)):
        with pytest.raises(StencilOutOfDomain):
            jacobian_residual(EEE, 1, p)
    assert jacobian_residual(EEE, 1, TrianglePoint(0.5, 2e-5)) < 1e-6


def test_jacobian_stencil_names_the_first_point_outside():
    # next to the diagonal the stencil points x - h and y + h both leave
    # the triangle; the message names x - h, the first of the four
    x, y = 0.5, 0.5 - 5e-6
    with pytest.raises(StencilOutOfDomain, match=re.escape(f"at ({x - 1e-5}, {y})")):
        jacobian_residual(EEE, 1, TrianglePoint(x, y))


def test_parity_flags_agree_and_match_formulas():
    # FORWARD states each row's parity flag once; it must be True exactly
    # when the row's forward formula reads s, and exactly when its inverse
    # formulas in TRANSFER do (a nan s then reaches a result at an
    # interior point)
    def reads_s(*formulas):
        return any(np.isnan(np.sum(g(3.0, 0.6, 0.3, math.nan))) for g in formulas)

    parity_rows = 0
    for key in supported_triples():
        fwd, inv = FORWARD[key], TRANSFER[key]
        assert fwd.parity == reads_s(fwd.f), key
        assert fwd.parity == reads_s(inv.weight, inv.branch), key
        parity_rows += fwd.parity
    assert len(supported_triples()) == 108 and parity_rows == 72


def test_branch_points_interior(sample_points):
    for key in list(supported_triples())[::11]:
        t = PermutationTriple(*key)
        for k in range(12):
            for p in sample_points[:3]:
                q = branch_point(t, k, p)   # TrianglePoint validates interior
                assert 0.0 < q.y < q.x < 1.0


def _reference_transfer(key, f, x, y, K=512):
    """Per-point reference: direct math.fsum over k < K plus the
    Euler-Maclaurin tail of each parity class, in scalar arithmetic."""
    row = TRANSFER[key]
    v, w = np.polynomial.legendre.leggauss(64)
    v, w = (0.5 * (v + 1.0)).tolist(), (0.5 * w).tolist()

    def term(k, s):
        a, b = row.branch(k, x, y, s)
        return row.weight(k, x, y, s) * f(a, b)

    def tail(u, scale):
        quad = math.fsum(wi * u(scale * vi / (1.0 - vi)) * scale / (1.0 - vi) ** 2
                         for vi, wi in zip(v, w))
        d1 = (-u(1.0) + 8.0 * u(0.5) - 8.0 * u(-0.5) + u(-1.0)) / 6.0
        d3 = (u(1.0) - 2.0 * u(0.5) + 2.0 * u(-0.5) - u(-1.0)) / 0.25
        return quad + 0.5 * u(0.0) - d1 / 12.0 + d3 / 720.0

    direct = math.fsum(term(float(k), -1.0 if k & 1 else 1.0) for k in range(K))
    if not FORWARD[key].parity:
        return direct + tail(lambda m: term(K + m, 1.0), float(K))
    # K even: k = K + 2m is the even class
    return (direct + tail(lambda m: term(K + 2.0 * m, 1.0), K / 2.0)
            + tail(lambda m: term(K + 1.0 + 2.0 * m, -1.0), K / 2.0))


def test_batched_transfer_matches_reference_all_rows():
    # every row (both parity classes), an interior point and a point
    # within 1e-3 of each edge: y = 0, y = x, x = 1
    xs = np.array([0.6, 0.5, 0.5, 0.9995])
    ys = np.array([0.3, 5e-4, 0.4995, 0.5])
    f = lambda x, y: 1.0 + x * y - 0.3 * y
    eps = 1e-9
    parities = set()
    for key in supported_triples():
        parities.add(FORWARD[key].parity)
        value, err, cutoff = apply_transfer_batch(
            PermutationTriple(*key), f, xs, ys, TruncationPolicy(eps=eps))
        assert np.all(err <= eps) and np.all(cutoff >= 32)
        for x, y, got in zip(xs.tolist(), ys.tolist(), value.tolist()):
            ref = _reference_transfer(key, f, x, y)
            assert abs(got - ref) <= eps, (key, x, y, got, ref)
    assert parities == {False, True}


def test_one_point_face_matches_batch():
    f = lambda x, y: x * y + 0.1
    pol = TruncationPolicy(eps=1e-10)
    value, err, cutoff = apply_transfer_batch(EEE, f, np.array([P.x, 0.7]),
                                              np.array([P.y, 0.1]), pol)
    stats = {}
    one, one_err = apply_transfer(EEE, f, P, pol, stats=stats)
    assert one == pytest.approx(value[0], rel=1e-15, abs=0) and one_err <= pol.eps
    assert stats["K"] == cutoff[0]
    assert partial_transfer(EEE, f, P, 3) == pytest.approx(math.fsum(
        weight(EEE, k, P) * f(*branch_point(EEE, k, P).xy) for k in range(3)), rel=1e-15, abs=0)


def test_scalar_result_broadcast_and_not_array_native():
    # a constant f may return a Python float
    one, _ = apply_transfer(EEE, lambda x, y: 1.0, P, TruncationPolicy(eps=1e-10))
    ones, _ = apply_transfer(EEE, lambda x, y: np.ones_like(x), P,
                             TruncationPolicy(eps=1e-10))
    assert one == ones
    assert partial_transfer(EEE, lambda x, y: 2.0, P, 8) == 2.0 * partial_transfer(
        EEE, lambda x, y: 1.0, P, 8)
    scalar_only = lambda x, y: math.exp(-x) * y
    with pytest.raises(NotArrayNative):
        apply_transfer(EEE, scalar_only, P)
    with pytest.raises(NotArrayNative):
        partial_transfer(EEE, scalar_only, P, 8)


def _divides_by_zero_at(monkeypatch, key, x_bad, part):
    """Make the weight or the first branch coordinate of row key divide by
    zero wherever x is x_bad."""
    weight, branch = TRANSFER[key].weight, TRANSFER[key].branch
    if part == "weight":
        row = TransferRow(lambda k, x, y, s: weight(k, x, y, s) / (x - x_bad), branch)
    else:
        row = TransferRow(weight, lambda k, x, y, s: (
            branch(k, x, y, s)[0] / (x - x_bad), branch(k, x, y, s)[1]))
    monkeypatch.setitem(TRANSFER, key, row)


@pytest.mark.parametrize("part", ["weight", "branch"])
def test_singular_branch_sum_term_raises_typed_error(monkeypatch, part):
    # the terms were evaluated outside np.errstate: the division warned
    # before the non-finite term could be reported
    _divides_by_zero_at(monkeypatch, EEE.key, 0.7, part)
    with pytest.raises(EvaluationSingularity, match=re.escape("(0.7, 0.1)")):
        apply_transfer_batch(EEE, lambda x, y: 1.0 + x * y, np.array([0.5, 0.7]),
                             np.array([0.25, 0.1]))


@pytest.mark.parametrize("face", [branch_point, weight])
@pytest.mark.parametrize("part", ["weight", "branch"])
def test_singular_point_raises_typed_error(monkeypatch, face, part):
    _divides_by_zero_at(monkeypatch, EEE.key, P.x, part)
    with pytest.raises(EvaluationSingularity):
        face(EEE, 3, P)


# the rows whose weight cubes 1 / |x + k*(y - 1) - 2|, a base negative on
# the whole triangle
_ABS_CUBE_ROWS = [("12", "13", "12"), ("13", "13", "13"),
                  ("123", "13", "132"), ("132", "13", "123")]


def _weight_bases():
    """(row key, source, base) of every ** in a weight of the transfer
    table, the base compiled to a function of (k, x, y, s)."""
    tree = ast.parse(Path(transfer_rows.__file__).read_text())
    table = next(node for node in ast.walk(tree) if isinstance(node, ast.Dict))
    sites = []
    for key, row in zip(table.keys, table.values):
        weight_fn = row.args[0]
        for node in ast.walk(weight_fn.body):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                fn = ast.fix_missing_locations(
                    ast.Expression(ast.Lambda(weight_fn.args, node.left)))
                sites.append((ast.literal_eval(key), ast.unparse(node.left),
                              eval(compile(fn, "<weight base>", "eval"))))
    return sites


def _sample_columns(sample_points, key, K):
    x = np.array([p.x for p in sample_points])[:, None]
    y = np.array([p.y for p in sample_points])[:, None]
    k, s, _ = _columns(K, _parities(key))
    return k, x, y, s


def test_weight_bases_are_nonnegative(sample_points):
    # numpy raises a negative float to a power on a scalar path, 20 to 30
    # times slower than its vector pow (tables/transfer_rows.py)
    sites = _weight_bases()
    assert len(sites) == 108
    assert {key for key, _, _ in sites} == set(supported_triples())
    for key, source, base in sites:
        for K in (32, 1024):
            value = base(*_sample_columns(sample_points, key, K))
            assert (value >= 0).all(), f"{key}: {source} < 0 at K = {K}"


def test_abs_cube_weights_match_negative_cube(sample_points):
    for key in _ABS_CUBE_ROWS:
        for K in (32, 1024):
            k, x, y, s = _sample_columns(sample_points, key, K)
            negative_cube = -1 / (x + k * (y - 1) - 2) ** 3
            w = TRANSFER[key].weight(k, x, y, s)
            assert np.max(np.abs(w - negative_cube) / negative_cube) <= 4e-16, key


def test_jacobian_oracle_value_is_pinned():
    # the one-point weights are numpy float64 scalars, whose pow has the
    # bits of Python's and is symmetric in the sign of the base: the claim
    # reads the same in either form
    claim = next(c for c in claims.CLAIMS if c.name == "jacobian_oracle")
    assert claim.run().hex() == "0x1.88e923fe954c8p-29"


def test_jacobian_oracle_fails_on_a_negated_row(monkeypatch):
    # the residual divides by |w|, so a weight of the wrong sign reads
    # about 2 and fails the claim instead of reading -2
    t = PermutationTriple("12", "13", "12")
    row = TRANSFER[t.key]
    negated = dataclasses.replace(row, weight=lambda k, x, y, s: -row.weight(k, x, y, s))
    monkeypatch.setattr(transfer, "_row", lambda u: negated if u.key == t.key else TRANSFER[u.key])
    assert abs(jacobian_residual(t, 3, P) - 2.0) < 1e-6
    claim = next(c for c in claims.CLAIMS if c.name == "jacobian_oracle")
    assert not claim.run() < claim.tol
