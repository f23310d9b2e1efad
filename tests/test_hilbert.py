import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.special as sp

import tripmaps
from tripmaps.claims import SIGMA_REPS, theorem31_points
from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps.errors import DomainError, NonConvergent, NotArrayNative, UnsupportedTriple
from tripmaps.hilbert import (
    OUTER_TOL,
    TAU_MAX,
    _bessel_kernel,
    _capital_E_rows,
    _eta_rows,
    eta,
    eta_profile,
    hilbert_triple,
    kernel_apply,
    laguerre_expansion_partial,
    theorem31_check,
    theorem31_lhs,
    theorem31_rhs,
    transform_hat,
)
from tripmaps.specfun import gated, halfline_nodes, integrate_dm
from tripmaps.tables.hilbert_rows import ARG_SLOT, HILBERT
from tripmaps.transfer import TruncationPolicy, apply_transfer, branch_point

T123 = PermutationTriple("123", "132", "132")
EEE = PermutationTriple("e", "e", "e")
P123 = TrianglePoint(0.6, 0.3)
PEEE = TrianglePoint(0.5, 0.25)
ZERO = lambda c, s: 0.0 * s  # noqa: E731


def test_row_invariants_on_samples():
    # l > 1 and j != 0 pointwise, or the kernel integrals diverge
    pts = [(0.5, 0.25), (0.8, 0.4), (0.3, 0.1), (0.9, 0.85), (0.2, 0.15)]
    for key, row in HILBERT.items():
        for (x, y) in pts:
            assert row.l(x, y) > 1.0
            assert row.j(x, y) != 0.0


def test_hilbert_triple_unsupported():
    with pytest.raises(UnsupportedTriple):
        hilbert_triple(PermutationTriple("e", "12", "23"))


def test_eta_values():
    assert eta(0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15, abs=0)
    assert eta(1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14, abs=0)
    assert eta(3, 0.0) == 0.0
    assert eta(5, np.array([0.0, 1.0]))[0] == 0.0
    with pytest.raises(DomainError):
        eta(0, -1.0)
    with pytest.raises(ValueError):
        eta(-1, 1.0)


def test_eta_rejects_nan_and_vanishes_at_infinity():
    # nan is no s >= 0, and eta_k(inf) = 0 without a floating-point warning
    # (one would fail the test under the project's warning filter)
    for s in (math.nan, np.array([0.0, math.nan, 1.0])):
        for k in (0, 1, 3):
            with pytest.raises(DomainError):
                eta(k, s)
    for k in (0, 1, 2, 7):
        assert eta(k, math.inf) == 0.0
        assert np.array_equal(eta(k, np.array([math.inf, 1.0])),
                              [0.0, eta(k, 1.0)])


def test_eta_rows_against_mpmath():
    # all rows k <= 50 of the one-pass log-domain form, relative
    s = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 30)])
    got = _eta_rows(range(51), s)
    with mpmath.workdps(30):
        ref = np.array([[float(mpmath.mpf(v) ** k * mpmath.exp(-v) / mpmath.factorial(k + 1))
                         for v in s] for k in range(51)])
    nz = ref > 1e-300
    assert np.all(got[~nz] == 0.0) and got[0, 0] == 1.0
    assert np.max(np.abs(got[nz] - ref[nz]) / ref[nz]) <= 1e-13


def test_eta_normalization():
    # <eta_k, 1>_dm relates to zeta; just check dm-integrability and decay
    vals = [integrate_dm(lambda s, k=k: eta(k, s)) for k in range(6)]
    assert all(v > 0 for v in vals)
    assert vals[5] < vals[0]


def test_transform_hat_trigamma_oracle():
    # int e^{-s h} eta_0(s) dm(s) = psi'(h+2), so hat = psi'(h+2)/h
    v = transform_hat(T123, eta_profile(0), P123)
    assert abs(v - sp.polygamma(1, 2.3) / 0.3) < 1e-10
    v2 = transform_hat(EEE, eta_profile(0), PEEE)
    assert abs(v2 - sp.polygamma(1, 2.25) / 0.25) < 1e-10


def test_transform_hat_zero_profile():
    assert transform_hat(EEE, ZERO, PEEE) == 0.0


def test_capital_E_k0_oracle():
    row = HILBERT[("e", "e", "e")]
    l, j = row.l(0.5, 0.25), row.j(0.5, 0.25)
    oracle = j * integrate_dm(lambda t: np.exp(-t * (l - 1.0)))
    assert abs(_capital_E_rows(EEE, 0, PEEE)[0] - oracle) < 1e-12


def test_capital_E_large_l_decays():
    # dominated decay in l: the dm integral (E stripped of the j factor)
    # shrinks as l grows; checked through points with l = 2.06 and 3.5
    row = HILBERT[("e", "e", "e")]
    p_near = TrianglePoint(0.9, 0.85)
    p_far = TrianglePoint(0.3, 0.05)
    near = _capital_E_rows(EEE, 0, p_near)[0] / row.j(*p_near.xy)
    far = _capital_E_rows(EEE, 0, p_far)[0] / row.j(*p_far.xy)
    assert 0.0 < far < near


def test_kernel_apply_limits():
    assert kernel_apply(ZERO, 0.5, 1.0) == 0.0
    # t = 0: kernel and front factor are both 1
    v0 = kernel_apply(eta_profile(0), 0.5, 0.0)
    oracle = integrate_dm(lambda s: np.exp(-s))
    assert abs(v0 - oracle) < 1e-11


def test_bessel_kernel_against_mpmath():
    # both sides of the z <= 1e-10 series switch, and out to 2e3; rounding
    # sqrt(z) moves the argument 2 sqrt(z) by up to 1 ulp, which near a
    # zero of J1 no float kernel can undo, so the gap is measured relative
    # to the larger of the value and the envelope 1/(sqrt(pi) z^(3/4))
    z = np.concatenate([
        np.linspace(0.0, 2e3, 4001),
        np.geomspace(1e-14, 1e-6, 33),
        np.nextafter(1e-10, [0.0, 1.0]), [1e-10],
    ])
    with mpmath.workdps(30):
        ref = np.array([1.0 if v == 0 else float(
            mpmath.besselj(1, 2 * mpmath.sqrt(float(v))) / mpmath.sqrt(float(v)))
            for v in z])
    envelope = np.minimum(1.0, 1.0 / (math.sqrt(math.pi) * np.maximum(z, 1e-300) ** 0.75))
    scale = np.maximum(np.abs(ref), envelope)
    assert np.max(np.abs(_bessel_kernel(z) - ref) / scale) <= 1e-14


def test_kernel_apply_rejects_scalar_profile():
    scalar_only = lambda c, s: math.exp(-s)  # noqa: E731
    with pytest.raises(NotArrayNative):
        kernel_apply(scalar_only, 0.5, 1.0)


def test_kernel_apply_nan_fails():
    # a nan gap fails the gate
    nan_tail = lambda c, s: np.where(s > 5.0, np.nan, 1.0)  # noqa: E731
    with pytest.raises(NonConvergent):
        kernel_apply(nan_tail, 0.5, np.array([0.5, 1.0]))


def test_kernel_apply_rejects_nan_t():
    # nan is no t >= 0, as in eta: it is named before any quadrature runs
    for t in (math.nan, np.array([0.5, np.nan, 2.0]), np.array([-1.0, 1.0])):
        with pytest.raises(DomainError, match="^kernel_apply requires t >= 0$"):
            kernel_apply(eta_profile(0), 0.5, t)


def test_empty_batch_gives_empty_result():
    # no integral and no t is an empty result, not an error of the gate
    for got in (integrate_dm(lambda t: np.ones((0,) + t.shape)),
                kernel_apply(eta_profile(0), 0.5, np.array([]))):
        assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_w_substitution_identities():
    # per-sigma structure: h3 at the k-th branch point equals 1/(k+l(p)),
    # and the transform argument is constant along the branch family
    for key in SIGMA_REPS:
        t = PermutationTriple(*key)
        ht = hilbert_triple(t)
        for p in (PEEE, TrianglePoint(0.7, 0.2)):
            l = ht.l(p.x, p.y)
            c0 = ht.arg(*branch_point(t, 0, p).xy)
            for k in range(6):
                q = branch_point(t, k, p)
                assert abs(ht.h(q.x, q.y) - 1.0 / (k + l)) < 1e-10
                assert abs(ht.arg(q.x, q.y) - c0) < 1e-10


def test_worked_example_w():
    # (123,132,132): w = (1+x-y)/(1-y) and the branch argument is 1/(1-y)
    ht = hilbert_triple(T123)
    x, y = P123.x, P123.y
    assert abs(ht.l(x, y) - (1.0 + x - y) / (1.0 - y)) < 1e-14
    q = branch_point(T123, 3, P123)
    assert abs(ht.arg(q.x, q.y) - 1.0 / (1.0 - y)) < 1e-12


@pytest.mark.parametrize("key", SIGMA_REPS)
@pytest.mark.parametrize("k_eta", [0, 1])
def test_theorem31_per_sigma(key, k_eta):
    t = PermutationTriple(*key)
    lhs, rhs = theorem31_check(t, eta_profile(k_eta), PEEE)
    assert abs(lhs - rhs) < 1e-4 * abs(lhs)


def _c_profile(c, s):
    # a profile that depends on its family parameter c
    return (1.0 + c) * eta(0, s) + c * c * eta(1, s)


@pytest.mark.parametrize("key", SIGMA_REPS)
def test_theorem31_c_dependent_profile(key):
    # the branch sum transforms at the c of each branch point, the kernel
    # side and the Laguerre series take the c of the k = 0 branch; c is
    # constant along the branch family, so all three routes agree
    t = PermutationTriple(*key)
    for p in (PEEE, TrianglePoint(0.7, 0.2)):
        lhs, rhs = theorem31_check(t, _c_profile, p)
        lag = laguerre_expansion_partial(t, _c_profile, p, 50)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs), p
        assert abs(lag - lhs) <= 1e-9 * abs(lhs), p


@pytest.mark.parametrize("key", SIGMA_REPS)
def test_printed_order_profile(key):
    # a profile written in the argument order of the printed rows, where
    # ARG_SLOT is the slot of c, is passed as lambda c, s: printed(s, c) for
    # the classes 13 and 132: transform_hat then matches a per-point
    # transform placed by ARG_SLOT and the closed form
    # ((1 + c) psi'(h + 2) - c^2 psi''(h + 2)/2) / h of _c_profile
    sigma, t = key[0], PermutationTriple(*key)
    ht = hilbert_triple(t)
    if ARG_SLOT[sigma] == 0:
        printed = _c_profile
    else:
        def printed(s, c):
            return _c_profile(c, s)
    passed = (lambda c, s: printed(s, c)) if sigma in ("13", "132") else printed
    for p in (PEEE, TrianglePoint(0.7, 0.2)):
        q = branch_point(t, 0, p)
        h3, c = ht.h(q.x, q.y), ht.arg(q.x, q.y)
        if ARG_SLOT[sigma] == 0:
            ref = integrate_dm(lambda s: np.exp(-s * h3) * printed(c, s), rate=h3) / h3
        else:
            ref = integrate_dm(lambda s: np.exp(-s * h3) * printed(s, c), rate=h3) / h3
        closed = ((1.0 + c) * sp.polygamma(1, h3 + 2.0)
                  - c * c * sp.polygamma(2, h3 + 2.0) / 2.0) / h3
        got = transform_hat(t, passed, q)
        assert abs(got - ref) <= 1e-14 * abs(ref), p
        assert abs(got - closed) <= 1e-10 * abs(closed), p
        if ARG_SLOT[sigma]:
            # passed unswapped, the printed profile integrates another function
            assert abs(transform_hat(t, printed, q) - ref) > 1e-3 * abs(ref), p


def test_theorem31_zero_profile():
    lhs, rhs = theorem31_check(EEE, ZERO, PEEE)
    assert lhs == 0.0 and rhs == 0.0


def test_laguerre_expansion():
    phi = eta_profile(0)
    lhs, rhs = theorem31_check(T123, phi, P123)
    partial = laguerre_expansion_partial(T123, phi, P123, 50)
    assert abs(partial - lhs) < 1e-3 * abs(lhs)
    # Cauchy tails: increments shrink beyond small K
    s20 = laguerre_expansion_partial(T123, phi, P123, 20)
    s35 = laguerre_expansion_partial(T123, phi, P123, 35)
    assert abs(partial - s35) < abs(s35 - s20) + 1e-12
    with pytest.raises(ValueError):
        laguerre_expansion_partial(T123, phi, P123, -1)


@pytest.mark.parametrize("K", [True, 2.5, 2.0])
def test_laguerre_partial_rejects_non_integer_K(K):
    # True ran as K = 1, and 2.5 raised NotArrayNative, blaming the profile
    with pytest.raises(ValueError, match=rf"^K must be an integer, got {K!r}$"):
        laguerre_expansion_partial(T123, eta_profile(0), P123, K)


def _lhs_per_point(t, phi, p):
    # reference: the branch sum with one dm-integral per branch point
    ht = hilbert_triple(t)

    def hat(x, y):
        h3 = ht.h(x, y)
        c = ht.arg(x, y)
        return integrate_dm(lambda s: np.exp(-s * h3) * phi(c, s), rate=h3) / h3

    def f(xs, ys):
        return np.array([hat(x, y) for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())]
                        ).reshape(xs.shape)

    return apply_transfer(t, f, p, TruncationPolicy(eps=1e-7))[0]


@pytest.mark.parametrize("k_eta", [0, 1])
def test_theorem31_lhs_matches_per_point(k_eta):
    p = TrianglePoint(0.6, 0.3)
    for key in HILBERT:
        t, phi = PermutationTriple(*key), eta_profile(k_eta)
        ref = _lhs_per_point(t, phi, p)
        assert abs(theorem31_lhs(t, phi, p) - ref) <= 1e-14 * abs(ref), key


@pytest.mark.parametrize("K", [0, 1, 50])
def test_laguerre_partial_matches_per_k(K):
    phi = eta_profile(0)
    c = hilbert_triple(T123).arg(*branch_point(T123, 0, P123).xy)
    ref = 0.0
    for k in range(K + 1):
        ip = integrate_dm(lambda s: phi(c, s) * eta(k, s))
        ref += ip * _capital_E_rows(T123, k, P123)[k]
    got = laguerre_expansion_partial(T123, phi, P123, K)
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_laguerre_partial_two_dm_calls(monkeypatch):
    import tripmaps.hilbert as hilbert
    calls = []

    def counting(fun, rate=0.0):
        calls.append(fun)
        return integrate_dm(fun, rate)

    monkeypatch.setattr(hilbert, "integrate_dm", counting)
    laguerre_expansion_partial(T123, eta_profile(0), P123, 50)
    assert len(calls) == 2


# ---------- the kernel side, per point on the Gauss-Laguerre nodes ----------

def _fubini_rhs(j: float, decay: float, k_eta: int) -> float:
    """The kernel side for eta_0 or eta_1 without any kernel matrix.

    With x_n = decay + n + 1, Fubini and two Laplace transforms,
    e^{-decay t} t/(e^t - 1) = sum_n t e^{-x_n t} and
    int_0^inf t e^{-x t} J_1(2 sqrt(st))/sqrt(st) dt = e^{-s/x}/x^2,
    give rhs = j sum_n x_n^-2 int eta_k(s) e^{-s/x_n} dm(s).  The s-integral
    is psi'(2 + 1/x) for eta_0 and -psi''(2 + 1/x)/2 for eta_1.  The n-sum
    runs directly up to N; past it the summand's Taylor series in 1/x is
    summed term by term, each term a Hurwitz zeta function."""
    n_direct, n_taylor = 40, 12
    x = decay + 1.0 + np.arange(n_direct)
    sign = 1.0 if k_eta == 0 else -0.5
    head = sign * sp.polygamma(1 + k_eta, 2.0 + 1.0 / x) / x ** 2
    tail = sum(sign * sp.polygamma(r + 1 + k_eta, 2.0) / math.factorial(r)
               * sp.zeta(r + 2, decay + 1.0 + n_direct) for r in range(n_taylor))
    return j * (head.sum() + tail)


def _row_decay_j(t, p):
    ht = hilbert_triple(t)
    return ht.l(p.x, p.y) - 1.0, ht.j(p.x, p.y)


def test_fubini_oracle_route():
    # the oracle itself against mpmath summing the double series
    # sum_n sum_{m>=2} x_n^-2 (m + 1/x_n)^-(2 + k) of its derivation
    for decay, k_eta in ((0.7, 0), (12.5, 1)):
        with mpmath.workdps(30):
            ref = mpmath.nsum(
                lambda n: mpmath.zeta(2 + k_eta, 2 + 1 / (decay + n + 1)) / (decay + n + 1) ** 2,
                [0, mpmath.inf])
        assert abs(_fubini_rhs(1.0, decay, k_eta) - float(ref)) <= 1e-13 * float(ref)


def test_rhs_matches_fubini_oracle_all_rows():
    # every row at the points of the theorem31_identity claim, eta_0 and
    # eta_1: the rhs against the closed-form route
    worst = 0.0
    for key in HILBERT:
        t = PermutationTriple(*key)
        for p in theorem31_points():
            decay, j = _row_decay_j(t, p)
            for k_eta in (0, 1):
                ref = _fubini_rhs(j, decay, k_eta)
                got = theorem31_rhs(t, eta_profile(k_eta), p)
                worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-9


# one point within 1e-3 of each edge of 0 < y < x < 1; over the six l rows
# their decays l(p) - 1 run from 0.0195 to 51.3
EDGE_POINTS = (TrianglePoint(0.0195, 0.019), TrianglePoint(0.5, 5e-4),
               TrianglePoint(0.9995, 0.98))


def _node_sets(rate=0.0, dm_weight=True):
    """The coarse and the fine (t, w) of the one node row of halfline_nodes."""
    t, w, n = halfline_nodes(rate, dm_weight)
    return (t[:n], w[:n]), (t[n:], w[n:])


def test_rhs_near_edges_every_row():
    # both gates pass and the rhs matches the closed-form route on every
    # row, and it matches the former route too: a plain half-line integral
    # over kernel_apply at the rate decay + 1 of its integrand, on the
    # outer nodes with tau <= TAU_MAX, gated by OUTER_TOL.  For the eta
    # profiles the kernel side is j(p) times a function of the decay alone,
    # so that route runs once per decay.
    former = {}
    decays = []
    for key in HILBERT:
        t = PermutationTriple(*key)
        for p in EDGE_POINTS:
            decay, j = _row_decay_j(t, p)
            decays.append(decay)
            for k_eta in (0, 1):
                phi = eta_profile(k_eta)
                got = theorem31_rhs(t, phi, p)
                ref = _fubini_rhs(j, decay, k_eta)
                assert abs(got - ref) <= 1e-12 * abs(ref), (key, p, k_eta)
                if k_eta:
                    continue
                if decay not in former:
                    coarse, fine = (
                        np.einsum("n,n->", np.exp(-tau[tau <= TAU_MAX] * decay)
                                  * kernel_apply(phi, 0.5, tau[tau <= TAU_MAX]),
                                  w[tau <= TAU_MAX])
                        for tau, w in _node_sets(decay + 1.0, dm_weight=False))
                    former[decay] = gated(coarse, fine, OUTER_TOL)
                assert abs(got - j * former[decay]) <= 1e-12 * abs(got), (key, p)
    assert min(decays) < 0.02 and max(decays) > 50.0
    assert len(former) >= 10


# e,e,e points (l = (y + 1)/x) at decays 51.3, 82.8 and 999.5, where the
# E_k integrals of the Laguerre route once missed their gate
LARGE_DECAY_POINTS = (TrianglePoint(0.0195, 0.019), TrianglePoint(0.012, 0.005),
                      TrianglePoint(1e-3, 5e-4))


@pytest.mark.parametrize("p", LARGE_DECAY_POINTS)
@pytest.mark.parametrize("k_eta", [0, 1])
def test_rhs_and_laguerre_at_large_decays(p, k_eta):
    decay, j = _row_decay_j(EEE, p)
    assert decay > 50.0
    ref = _fubini_rhs(j, decay, k_eta)
    phi = eta_profile(k_eta)
    assert abs(theorem31_rhs(EEE, phi, p) - ref) <= 1e-12 * abs(ref)
    assert abs(laguerre_expansion_partial(EEE, phi, p, 50) - ref) <= 1e-12 * abs(ref)


def test_rhs_decay_range():
    # no decay is refused: from 80 up to about 1e4 the rhs matches the
    # closed-form route, the outer nodes scaled to the decay
    t = EEE                                        # l = (y + 1)/x
    y = 0.005
    points = (TrianglePoint((y + 1.0) / 81.0, y), TrianglePoint(0.01, y),
              TrianglePoint(1e-3, 5e-4), TrianglePoint(1e-4, 5e-5))
    decays = [_row_decay_j(t, p)[0] for p in points]
    assert np.allclose(decays, [80.0, 99.5, 999.5, 9999.5])
    for p in points:
        decay, j = _row_decay_j(t, p)
        for k_eta in (0, 1):
            ref = _fubini_rhs(j, decay, k_eta)
            assert abs(theorem31_rhs(t, eta_profile(k_eta), p) - ref) <= 1e-12 * abs(ref), decay


def test_rhs_tail_bound():
    # the bound on the outer nodes left out is an upper bound of the dm
    # mass of e^{-tau decay} beyond TAU_MAX, and negligible; the mass is
    # sum_{m>=1} e^{-a T} (T/a + 1/a^2) with a = decay + m, T = TAU_MAX
    import tripmaps.hilbert as hilbert
    for decay in (0.0, 0.02, 1.0, 50.0):
        with mpmath.workdps(30):
            ref = float(mpmath.nsum(lambda m: mpmath.exp(-(decay + m) * TAU_MAX)
                                    * (TAU_MAX / (decay + m) + 1 / (decay + m) ** 2),
                                    [1, mpmath.inf]))
        bound = hilbert._dm_tail(decay)
        assert ref <= bound <= ref * (1 + 1e-12), decay
    assert hilbert._dm_tail(0.0) < 1e-19


def test_rhs_gates_fail_loudly(monkeypatch):
    import tripmaps.hilbert as hilbert
    nan_tail = lambda c, s: np.where(s > 5.0, np.nan, 1.0)  # noqa: E731
    with pytest.raises(NonConvergent):
        theorem31_rhs(EEE, nan_tail, PEEE)
    with pytest.raises(NonConvergent):
        theorem31_check(EEE, nan_tail, PEEE)
    assert theorem31_rhs(EEE, ZERO, PEEE) == 0.0
    # node sets whose fine weights drift from the coarse ones fail the
    # unchanged gates: the fine inner (rate-0) weights fail the inner one,
    # the fine outer weights (at the decay of PEEE) the outer one
    decay = _row_decay_j(EEE, PEEE)[0]
    for drifted_rate, factor, gate in ((0.0, 1 + 1e-6, "inner"), (decay, 1 + 1e-4, "outer")):
        def drifted(rate=0.0, dm_weight=True, drifted_rate=drifted_rate, factor=factor):
            t, w, n = halfline_nodes(rate, dm_weight)
            if rate == drifted_rate:
                w = np.concatenate((w[:n], w[n:] * factor))
            return t, w, n

        monkeypatch.setattr(hilbert, "halfline_nodes", drifted)
        with pytest.raises(NonConvergent, match=gate):
            theorem31_rhs(EEE, eta_profile(0), PEEE)


def test_import_builds_no_laguerre_rule():
    src = os.path.dirname(os.path.dirname(tripmaps.__file__))
    code = ("import tripmaps.cli, tripmaps.specfun as f; "
            "print(f._laguerre_rule.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "0"


def test_import_derives_no_digit_model():
    # the exact lines of the forward rows are derived on a row's first digit
    src = os.path.dirname(os.path.dirname(tripmaps.__file__))
    code = "import tripmaps.cli, tripmaps.maps as m; print(m._model.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "0"


def test_theorem31_check_deterministic():
    t, phi = T123, eta_profile(1)
    assert theorem31_check(t, phi, P123) == theorem31_check(t, phi, P123)


def test_kernel_matrix_spectrum():
    # the kernel J_1(2 sqrt(ts))/sqrt(ts) on L^2(dm) is the Gauss map's
    # transfer operator in Babenko's form: its leading eigenvalues are 1 and
    # minus Wirsing's constant, and its trace is the sum over the fixed
    # points x_n = (sqrt(n^2 + 4) - n)/2 of the branches 1/(n + x) of
    # x_n^2/(1 + x_n^2).  The kernel matrix on each of the two rate-0 node
    # sets is checked against them, independently of any profile
    with mpmath.workdps(30):
        trace = float(mpmath.nsum(lambda n: (lambda x: x * x / (1 + x * x))(
            (mpmath.sqrt(n * n + 4) - n) / 2), [1, mpmath.inf]))
    wirsing = -0.30366300289873265859
    for s, w in _node_sets():
        # entries K(t_i, s_j) w_j; sqrt(w) on both sides makes it symmetric
        a, root = _bessel_kernel(s[:, None] * s) * w, np.sqrt(w)
        sym = a * root[:, None] / root[None, :]
        ev = np.linalg.eigvalsh((sym + sym.T) / 2)
        ev = ev[np.argsort(-np.abs(ev))]
        assert abs(ev[0] - 1.0) <= 1e-13, a.shape
        assert abs(ev[1] - wirsing) <= 1e-13, a.shape
        assert abs(np.trace(a) - trace) <= 1e-13, a.shape


def test_dm_eta_norms_closed_form():
    # ||eta_k||^2_dm = (2k+1)!/((k+1)!)^2 zeta(2k + 2, 3) for k <= 60, from
    # t/(e^t - 1) = sum_m t e^{-mt}; one batched call on the rate-0 nodes
    got = integrate_dm(lambda s: _eta_rows(range(61), s) ** 2)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.factorial(2 * k + 1) / mpmath.factorial(k + 1) ** 2
                              * mpmath.zeta(2 * k + 2, 3)) for k in range(61)])
    assert np.max(np.abs(got - ref) / ref) <= 1e-11
