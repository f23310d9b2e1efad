import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from tripmaps.errors import DomainError, NonConvergent, NotArrayNative
from tripmaps.specfun import (
    DM_TOL,
    bessel_j1,
    dilog,
    integrate_dm,
    halfline_nodes,
    integrate_halfline,
    integrate_triangle,
    laguerre1,
)

PI2_6 = math.pi ** 2 / 6


# ---------- dilog ----------

def test_dilog_endpoints():
    assert dilog(0.0) == 0.0
    assert math.isclose(dilog(1.0), PI2_6, rel_tol=1e-15)


def test_dilog_against_mpmath():
    for z in (0.1, 0.25, 0.5, 0.75, 0.9, 0.999):
        assert abs(dilog(z) - float(mpmath.polylog(2, z))) < 1e-14


@given(st.floats(1e-6, 1.0 - 1e-6))
def test_dilog_reflection(z):
    # Li2(z) + Li2(1-z) = pi^2/6 - ln z ln(1-z)
    lhs = dilog(z) + dilog(1.0 - z)
    rhs = PI2_6 - math.log(z) * math.log1p(-z)
    assert abs(lhs - rhs) < 1e-13


def test_dilog_negative_against_mpmath():
    # Li2(-z) = Li2(z^2)/2 - Li2(z) on the [0, 1] core; the worst error
    # on a dense grid of [-1, -1e-9] is 6.7e-16, 1.4e-15 relative
    for z in (-1.0, -0.999, -0.75, -0.5, -1.0 / 3.0, -0.1, -1e-3, -1e-9):
        want = float(mpmath.polylog(2, z))
        assert abs(dilog(z) - want) < 1e-15 and abs(dilog(z) / want - 1.0) < 2e-15


def test_dilog_domain():
    for z in (1.5, -1.5):
        with pytest.raises(DomainError):
            dilog(z)


# ---------- bessel / laguerre ----------

def test_bessel_j1_against_scipy():
    xs = np.linspace(0.0, 50.0, 2001)
    assert np.max(np.abs(bessel_j1(xs) - sp.j1(xs))) < 1e-13


def test_bessel_j1_against_mpmath():
    # dense grid, both sides of every piece edge and of the switch to the
    # Hankel form at 16, the first ten zeros, and tiny arguments
    edges = np.arange(2.0, 18.0, 2.0)
    xs = np.concatenate([
        np.linspace(0.0, 100.0, 4001),
        np.nextafter(edges, 0.0), edges, np.nextafter(edges, 20.0),
        [float(mpmath.besseljzero(1, k)) for k in range(1, 11)],
        np.geomspace(1e-8, 1e-3, 41),
    ])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besselj(1, float(x))) for x in xs])
    assert np.max(np.abs(bessel_j1(xs) - ref)) <= 1e-15


def test_bessel_j1_scalar_and_domain():
    assert bessel_j1(0.0) == 0.0
    assert isinstance(bessel_j1(3.0), float)
    assert bessel_j1(np.ones((2, 3))).shape == (2, 3)
    assert bessel_j1(np.array(20.0)).shape == ()
    with pytest.raises(DomainError):
        bessel_j1(-1.0)
    with pytest.raises(DomainError):
        bessel_j1(np.array([1.0, -1e-300]))


def test_laguerre_recurrence_vs_exact():
    # exact expansion L_k^(1)(t) = sum_i (-1)^i C(k+1, k-i) t^i / i!
    for k in range(11):
        for t in (0.0, 0.5, 1.7, 6.3):
            exact = sum((-1) ** i * math.comb(k + 1, k - i) * t ** i
                        / math.factorial(i) for i in range(k + 1))
            assert math.isclose(laguerre1(k, t), exact,
                                rel_tol=1e-10, abs_tol=1e-10)


def test_laguerre_against_scipy():
    ts = np.linspace(0.0, 30.0, 301)
    for k in range(25):
        assert np.max(np.abs(laguerre1(k, ts)
                             - sp.eval_genlaguerre(k, 1, ts))) < 1e-8


# ---------- half-line quadrature ----------

def test_dm_total_mass():
    assert abs(integrate_dm(lambda t: 1.0 + 0.0 * t) - PI2_6) < 1e-10


def test_dm_exponential_is_trigamma():
    # int e^{-at} t/(e^t-1) dt = psi'(a+1)
    for a in (0.3, 1.0, 2.7):
        val = integrate_dm(lambda t: np.exp(-a * t))
        assert abs(val - sp.polygamma(1, a + 1.0)) < 1e-11


def test_halfline_plain():
    assert abs(integrate_halfline(lambda t: np.exp(-3.0 * t), 3.0) - 1 / 3) < 1e-12
    assert abs(integrate_halfline(lambda t: t * np.exp(-2.0 * t), 2.0) - 0.25) < 1e-12


def test_halfline_scalar_integrand():
    # an integrand that cannot take an array is an error, not a slow path
    with pytest.raises(NotArrayNative):
        integrate_halfline(lambda t: math.exp(-t), 1.0)
    with pytest.raises(NotArrayNative):
        integrate_dm(lambda t: np.ones(3))
    # a scalar result is a constant integrand
    assert abs(integrate_dm(lambda t: 1.0) - PI2_6) < 1e-10


def test_halfline_batch_matches_rows():
    # a (2, 3, n) integrand gives a (2, 3) result equal to its rows
    # integrated one at a time, each row at its own rate
    rates = np.array([[0.3, 1.0, 2.7], [0.5, 4.0, 9.0]])
    batch = integrate_dm(lambda t: np.exp(-rates[..., None] * t), rate=rates)
    assert batch.shape == rates.shape
    plain = integrate_halfline(lambda t: np.exp(-rates[..., None] * t), rates)
    assert plain.shape == rates.shape
    for i, a in np.ndenumerate(rates):
        one = integrate_dm(lambda t: np.exp(-a * t), rate=a)
        assert isinstance(one, float)
        assert abs(batch[i] - one) <= 1e-15 * abs(one)
        assert abs(plain[i] - integrate_halfline(lambda t: np.exp(-a * t), a)) <= 1e-15 / a


def test_integrand_runs_once_on_both_node_sets():
    # one call per integral, on the coarse nodes followed by the fine ones,
    # for a lone integrand and for a batch at array rates
    seen = []

    def f(t):
        seen.append(t)
        return np.exp(-t)

    t, _, n = halfline_nodes()
    tc, tf = t[:n], t[n:]
    integrate_dm(f)
    assert len(seen) == 1 and np.array_equal(seen[0], np.concatenate((tc, tf)))
    rates = np.array([0.5, 2.0])
    t, _, n = halfline_nodes(rates, dm_weight=False)
    tc, tf = t[..., :n], t[..., n:]
    integrate_halfline(f, rates)
    assert len(seen) == 2 and np.array_equal(seen[1], np.concatenate((tc, tf), axis=-1))


def test_dm_decaying_integrand_against_mpmath():
    # int e^{-td}/(1 + t) dm(t) on the nodes scaled to the rate d, from no
    # decay up to 1e5
    for d in (0.0, 1.0, 10.0, 1e5):
        got = integrate_dm(lambda t: np.exp(-t * d) / (1.0 + t), rate=d)
        with mpmath.workdps(30):
            ref = float(mpmath.quad(lambda t: mpmath.exp(-t * d) / (1 + t) * t / mpmath.expm1(t),
                                    [0, 1e-5, 1e-3, 0.1, 1, 10, mpmath.inf]))
        assert abs(got - ref) <= 1e-12 * ref, d


def test_dm_laguerre_norms_against_mpmath():
    # ||L_k^(1)||^2_dm, a polynomial of degree 2k + 1 times t/(1 - e^-t)
    # against the Gauss-Laguerre weight: at k = 10 both node sets resolve
    # it, and the result matches mpmath quad; at k = 20 and 40 the coarse
    # set truly misses it by more than DM_TOL, and the gate says so
    def norm2(k):
        return integrate_dm(lambda t: laguerre1(k, t) ** 2)

    with mpmath.workdps(20):
        ref = {k: float(mpmath.quad(lambda t: mpmath.laguerre(k, 1, t) ** 2 * t / mpmath.expm1(t),
                                    [0, 5, 10, 20, 40, 80, 160, mpmath.inf]))
               for k in (10, 20, 40)}
    assert ref[10] == pytest.approx(20.65, abs=5e-3)
    assert ref[20] == pytest.approx(40.12, abs=5e-3)
    assert ref[40] == pytest.approx(79.37, abs=5e-3)
    assert abs(norm2(10) - ref[10]) <= 1e-12 * ref[10]
    for k in (20, 40):
        with pytest.raises(NonConvergent):
            norm2(k)
        t, w, n = halfline_nodes()
        t, w = t[:n], w[:n]
        assert abs(np.sum(laguerre1(k, t) ** 2 * w) - ref[k]) > DM_TOL


def _nan_tail(t):
    return np.where(t > 5.0, np.nan, 1.0)


def test_halfline_nan_integrand_fails():
    # a nan gap fails the gate, for a lone integrand and for one bad row
    # of a batch
    with pytest.raises(NonConvergent):
        integrate_dm(_nan_tail)
    with pytest.raises(NonConvergent):
        integrate_halfline(_nan_tail, 1.0)
    with pytest.raises(NonConvergent):
        integrate_dm(lambda t: np.stack([np.exp(-t), _nan_tail(t), np.exp(-2.0 * t)]))
    with pytest.raises(NonConvergent):
        integrate_halfline(lambda t: np.stack([np.exp(-t), _nan_tail(t)]), 1.0)


# ---------- triangle quadrature ----------

def test_triangle_constant():
    assert abs(integrate_triangle(lambda x, y: 2.0 + 0.0 * x, 1e-10) - 1.0) < 1e-12


def test_triangle_polynomial():
    # int over {0<y<x<1} of x*y = 1/8
    v = integrate_triangle(lambda x, y: x * y, 1e-10)
    assert abs(v - 0.125) < 1e-10


def test_triangle_corner_singularity():
    # the (e,e,e) density integrates to 1; 1/x blows up at the corner
    v = integrate_triangle(lambda x, y: 12.0 / (math.pi ** 2 * x * (y + 1.0)), 1e-9)
    assert abs(v - 1.0) < 1e-9


def test_triangle_edge_singularity():
    v = integrate_triangle(lambda x, y: 6.0 / (math.pi ** 2 * x * (1.0 - y)), 1e-9)
    assert abs(v - 1.0) < 1e-9


def test_triangle_log_singularity():
    # int_tri -ln(y) = 3/4 (exact by iterated integration); the log edge
    # runs along the entire bottom side, where plain subdivision converges
    # only linearly, so the tolerance is modest here
    v = integrate_triangle(lambda x, y: -np.log(y), 1e-6)
    assert abs(v - 0.75) < 1e-6


def test_triangle_scalar_integrand():
    with pytest.raises(NotArrayNative):
        integrate_triangle(lambda x, y: math.exp(x) * y, 1e-9)
    # the array form: int_0^1 int_0^x e^x y dy dx = (e - 2)/2
    v = integrate_triangle(lambda x, y: np.exp(x) * y, 1e-9)
    assert abs(v - 0.5 * (math.e - 2.0)) < 1e-9


def test_triangle_nonconvergent():
    # a non-integrable singularity cannot meet the budget
    with pytest.raises(NonConvergent):
        integrate_triangle(lambda x, y: 1.0 / (x * y), 1e-6, max_depth=18,
                           max_leaves=20_000)


@pytest.mark.parametrize("cap", [1_000, 20_000])
def test_triangle_max_leaves_is_a_cap(cap):
    # the loop stops before a refinement that would pass max_leaves; one
    # refinement at most quadruples the leaves, so the stop is not early
    with pytest.raises(NonConvergent) as info:
        integrate_triangle(lambda x, y: 1.0 / (x * y), 1e-6, max_leaves=cap)
    leaves = int(re.search(r"with (\d+) leaves", str(info.value)).group(1))
    assert cap / 4 < leaves <= cap


_TRIANGLE_CASES = [
    lambda x, y: 2.0 + 0.0 * x,             # converges at the first level
    lambda x, y: x * y,
    lambda x, y: 12.0 / (math.pi ** 2 * x * (y + 1.0)),
    lambda x, y: 6.0 / (math.pi ** 2 * x * (1.0 - y)),
    lambda x, y: np.exp(x) * y,
    lambda x, y: np.cos(3.0 * x) * np.sqrt(y + 1.0),
]


# the integrals of _TRIANGLE_CASES over 0 < y < x < 1: closed forms, and
# mpmath quad for the cos case
_TRIANGLE_VALUES = [
    1.0,
    0.125,
    1.0,
    1.0,
    math.e / 2 - 1.0,
    float(mpmath.quad(lambda x: mpmath.quad(
        lambda y: mpmath.cos(3 * x) * mpmath.sqrt(y + 1), [0, x]), [0, 1])),
]


@pytest.mark.parametrize("i", range(len(_TRIANGLE_CASES)))
def test_triangle_cases_within_tolerance(i):
    assert abs(integrate_triangle(_TRIANGLE_CASES[i], 1e-10) - _TRIANGLE_VALUES[i]) < 1e-10


def test_triangle_values_are_pinned():
    # the rule, its stop at 0.9 abs_tol and its in-order leaf sums fix
    # every bit of these values
    assert [integrate_triangle(f, 1e-10).hex() for f in _TRIANGLE_CASES] == [
        "0x1.0000000000000p+0", "0x1.0000000000000p-3", "0x1.ffffffffeab10p-1",
        "0x1.ffffffffeb08ap-1", "0x1.6fc2a2c515a70p-2", "-0x1.b7808d3476d59p-3"]


@pytest.mark.parametrize("abs_tol", [math.nan, -1.0])
def test_triangle_rejects_bad_tolerance(abs_tol):
    # raised up front, not after refining to the leaf cap
    with pytest.raises(ValueError, match="abs_tol"):
        integrate_triangle(lambda x, y: x * y, abs_tol)


def test_triangle_zero_tolerance():
    # the degree-5 rule is exact on x y, so every leaf's estimate is 0
    assert integrate_triangle(lambda x, y: x * y, 0.0) == 0.125


def test_triangle_nan_integrand_raises():
    # a nan estimate selects no leaf to refine
    with pytest.raises(NonConvergent, match="nan"):
        integrate_triangle(lambda x, y: np.where(x > 0.5, np.nan, x), 1e-9)
