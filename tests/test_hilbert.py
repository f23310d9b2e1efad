import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from tripmaps.claims import SIGMA_REPS
from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps.errors import DomainError, NonConvergent, NotArrayNative, UnsupportedTriple
from tripmaps.hilbert import (
    ProfileFunction,
    _bessel_kernel,
    capital_E,
    eta,
    eta_profile,
    hilbert_triple,
    kernel_apply,
    laguerre_expansion_partial,
    theorem31_check,
    theorem31_lhs,
    transform_hat,
)
from tripmaps.specfun import integrate_dm
from tripmaps.tables.hilbert_rows import ARG_SLOT, HILBERT
from tripmaps.transfer import TruncationPolicy, apply_transfer, branch_point

T123 = PermutationTriple("123", "132", "132")
EEE = PermutationTriple("e", "e", "e")
P123 = TrianglePoint(0.6, 0.3)
PEEE = TrianglePoint(0.5, 0.25)
ZERO = ProfileFunction(lambda a, s: 0.0 * s, "zero")


def _phi(sigma: str, k: int) -> ProfileFunction:
    return eta_profile(k, var_slot=1 - ARG_SLOT[sigma])


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
    assert eta(0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert eta(1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert eta(3, 0.0) == 0.0
    assert eta(5, np.array([0.0, 1.0]))[0] == 0.0
    with pytest.raises(DomainError):
        eta(0, -1.0)
    with pytest.raises(ValueError):
        eta(-1, 1.0)


def test_eta_normalization():
    # <eta_k, 1>_dm relates to zeta; just check dm-integrability and decay
    vals = [integrate_dm(lambda s, k=k: eta(k, s)) for k in range(6)]
    assert all(v > 0 for v in vals)
    assert vals[5] < vals[0]


def test_transform_hat_trigamma_oracle():
    # int e^{-s h} eta_0(s) dm(s) = psi'(h+2), so hat = psi'(h+2)/h
    v = transform_hat(T123, _phi("123", 0), P123)
    assert abs(v - sp.polygamma(1, 2.3) / 0.3) < 1e-10
    v2 = transform_hat(EEE, _phi("e", 0), PEEE)
    assert abs(v2 - sp.polygamma(1, 2.25) / 0.25) < 1e-10


def test_transform_hat_zero_profile():
    assert transform_hat(EEE, ZERO, PEEE) == 0.0


def test_capital_E_k0_oracle():
    row = HILBERT[("e", "e", "e")]
    l, j = row.l(0.5, 0.25), row.j(0.5, 0.25)
    oracle = j * integrate_dm(lambda t: np.exp(-t * (l - 1.0)))
    assert abs(capital_E(EEE, 0, PEEE) - oracle) < 1e-12


def test_capital_E_large_l_decays():
    # dominated decay in l: the dm integral (E stripped of the j factor)
    # shrinks as l grows; checked through points with l = 2.06 and 3.5
    row = HILBERT[("e", "e", "e")]
    p_near = TrianglePoint(0.9, 0.85)
    p_far = TrianglePoint(0.3, 0.05)
    near = capital_E(EEE, 0, p_near) / row.j(*p_near.xy)
    far = capital_E(EEE, 0, p_far) / row.j(*p_far.xy)
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
    scalar_only = ProfileFunction(lambda a, s: math.exp(-s), "scalar exp")
    with pytest.raises(NotArrayNative):
        kernel_apply(scalar_only, 0.5, 1.0)


def test_kernel_apply_nan_fails():
    # a nan gap fails the gate: a nan profile, and one nan row of t
    nan_tail = ProfileFunction(lambda a, s: np.where(s > 5.0, np.nan, 1.0), "nan tail")
    with pytest.raises(NonConvergent):
        kernel_apply(nan_tail, 0.5, np.array([0.5, 1.0]))
    with pytest.raises(NonConvergent):
        kernel_apply(eta_profile(0), 0.5, np.array([0.5, np.nan, 2.0]))


def test_kernel_apply_refinement_stable():
    from tripmaps.specfun import QuadratureRule
    coarse = kernel_apply(eta_profile(0), 0.5, 1.0,
                          QuadratureRule(order=12, abs_tol=1e-7))
    fine = kernel_apply(eta_profile(0), 0.5, 1.0,
                        QuadratureRule(order=24, abs_tol=1e-9))
    assert abs(coarse - fine) < 1e-8


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
                assert abs(ht.h3(q.x, q.y) - 1.0 / (k + l)) < 1e-10
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
    lhs, rhs = theorem31_check(t, _phi(key[0], k_eta), PEEE)
    assert abs(lhs - rhs) < 1e-4 * abs(lhs)


def test_theorem31_zero_profile():
    lhs, rhs = theorem31_check(EEE, ZERO, PEEE)
    assert lhs == 0.0 and rhs == 0.0


def test_laguerre_expansion():
    phi = _phi("123", 0)
    lhs, rhs = theorem31_check(T123, phi, P123)
    partial = laguerre_expansion_partial(T123, phi, P123, 50)
    assert abs(partial - lhs) < 1e-3 * abs(lhs)
    # Cauchy tails: increments shrink beyond small K
    s20 = laguerre_expansion_partial(T123, phi, P123, 20)
    s35 = laguerre_expansion_partial(T123, phi, P123, 35)
    assert abs(partial - s35) < abs(s35 - s20) + 1e-12
    with pytest.raises(ValueError):
        laguerre_expansion_partial(T123, phi, P123, -1)


def _lhs_per_point(t, phi, p):
    # reference: the branch sum with one dm-integral per branch point
    ht = hilbert_triple(t)

    def hat(x, y):
        h3 = ht.h3(x, y)
        a = ht.arg(x, y)
        if ht.slot == 0:
            return integrate_dm(lambda s: np.exp(-s * h3) * phi.eval(a, s)) / h3
        return integrate_dm(lambda s: np.exp(-s * h3) * phi.eval(s, a)) / h3

    def f(xs, ys):
        return np.array([hat(x, y) for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())]
                        ).reshape(xs.shape)

    return apply_transfer(t, f, p, TruncationPolicy(eps=1e-7))[0]


@pytest.mark.parametrize("k_eta", [0, 1])
def test_theorem31_lhs_matches_per_point(k_eta):
    p = TrianglePoint(0.6, 0.3)
    for key in HILBERT:
        t, phi = PermutationTriple(*key), _phi(key[0], k_eta)
        ref = _lhs_per_point(t, phi, p)
        assert abs(theorem31_lhs(t, phi, p) - ref) <= 1e-14 * abs(ref), key


@pytest.mark.parametrize("K", [0, 1, 50])
def test_laguerre_partial_matches_per_k(K):
    phi = _phi("123", 0)
    c = hilbert_triple(T123).arg(*branch_point(T123, 0, P123).xy)
    ref = 0.0
    for k in range(K + 1):
        ip = integrate_dm(lambda s: phi.eval(c, s) * eta(k, s))
        ref += ip * capital_E(T123, k, P123)
    got = laguerre_expansion_partial(T123, phi, P123, K)
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_laguerre_partial_two_dm_calls(monkeypatch):
    import tripmaps.hilbert as hilbert
    calls = []

    def counting(fun, rule):
        calls.append(rule)
        return integrate_dm(fun, rule)

    monkeypatch.setattr(hilbert, "integrate_dm", counting)
    laguerre_expansion_partial(T123, _phi("123", 0), P123, 50)
    assert len(calls) == 2
