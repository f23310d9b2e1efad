import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import tripmaps
import tripmaps.gausskuzmin as gausskuzmin
from tripmaps import maps
from tripmaps.claims import pullback_measures
from tripmaps.domain import (PermutationTriple, TrianglePoint, in_triangle, interior_points,
                             supported_triples)
from tripmaps.errors import BoundaryHit, EnvelopeExceeded, NoClosedLaw, NoDensity
from tripmaps.gausskuzmin import (
    MC_BATCHES,
    WALKER_STEPS,
    EmpiricalStats,
    cylinder_measure,
    cylinder_measures,
    density,
    empirical_digits,
    invariance_check,
    p_closed_eee,
    p_integral_e23e,
)
from tripmaps.maps import digits, step
from tripmaps.specfun import dilog, integrate_triangle
from tripmaps.tables.eigen import DENSITIES, EIGENFUNCTIONS
from tripmaps.tables.forward import FORWARD
from tripmaps.tables.transfer_rows import TRANSFER
from tripmaps.transfer import branch_point

EEE = PermutationTriple("e", "e", "e")
E23E = PermutationTriple("e", "23", "e")
PI2 = math.pi ** 2


def test_density_rows():
    r = density(EEE)
    assert r(0.5, 0.25) == pytest.approx(12.0 / (PI2 * 0.5 * 1.25), rel=1e-14, abs=0)
    r23 = density(PermutationTriple("23", "23", "23"))
    assert r23(0.5, 0.25) == pytest.approx(12.0 / (PI2 * 0.5 * 1.25), rel=1e-14, abs=0)
    with pytest.raises(NoDensity):
        density(PermutationTriple("e", "12", "e"))


def test_normalization_all_densities():
    for key, r in DENSITIES.items():
        v = integrate_triangle(lambda x, y: r(x, y), 1e-9)
        assert abs(v - 1.0) < 1e-8, key


def test_cylinder_p0_half():
    assert abs(cylinder_measure(E23E, 0) - 0.5) < 1e-8


def test_cylinder_p0_eee_dilog_oracle():
    oracle = 1.0 - (6.0 * dilog(0.25) + 12.0 * math.log(2.0) ** 2) / PI2
    assert abs(cylinder_measure(EEE, 0) - oracle) < 1e-6
    assert abs(p_closed_eee(0) - oracle) < 1e-15


def test_closed_forms_match_quadrature():
    ks = range(1, 6)
    for k, p_eee, p_e23e in zip(ks, pullback_measures(EEE, ks), pullback_measures(E23E, ks)):
        assert abs(p_eee - p_closed_eee(k)) < 1e-6
        assert abs(p_e23e - p_integral_e23e(k)) < 1e-6


@pytest.mark.parametrize("key", list(DENSITIES), ids=",".join)
def test_cylinder_measures_match_one_digit_calls(key):
    # cylinder_measure is the one-digit face of cylinder_measures, bit for bit
    t = PermutationTriple(*key)
    batch = cylinder_measures(t, range(11))
    assert batch.shape == (11,)
    assert [float(p).hex() for p in batch] == [cylinder_measure(t, k).hex() for k in range(11)]


# the rows whose law is unshifted, a = 0 and C = 12/pi^2; on the other
# twelve a = -1 and C = 6/pi^2
_UNSHIFTED = {("e", "e", "e"), ("12", "12", "12"), ("13", "13", "13"),
              ("23", "23", "23"), ("123", "132", "132"), ("132", "123", "123")}


def _shift(key):
    return 0 if key in _UNSHIFTED else -1


def _li2(u):
    # Li2(-u), at the working precision of mpmath
    return mpmath.polylog(2, -u)


def _mp_c(key):
    # C = 1 / sum_k D(k + a) = 1 / (Li2(-a) - Li2(-a-1))
    a = _shift(key)
    return 1 / (_li2(a) - _li2(a + 1))


def _mp_law(key, k):
    # C D(k + a) at 30 digits, D(z) = Li2(-z) - 2 Li2(-z-1) + Li2(-z-2)
    with mpmath.workdps(30):
        z = mpmath.mpf(k + _shift(key))
        return _mp_c(key) * (_li2(z) - 2 * _li2(z + 1) + _li2(z + 2))


@pytest.mark.parametrize("key", list(DENSITIES), ids=",".join)
def test_law_matches_pullback_cubature(key):
    # the closed law against the cubature of the inverse-branch pullback,
    # within the cubature's 1e-9
    t = PermutationTriple(*key)
    gap = np.abs(cylinder_measures(t, range(11)) - pullback_measures(t, range(11)))
    assert gap.max() < 1e-9


def test_pullback_measures_are_pinned():
    # p(0..10) of all 18 densities by cubature, the route that checks the
    # closed laws, to the last bit
    bits = [[float(p).hex() for p in pullback_measures(PermutationTriple(*key), range(11))]
            for key in DENSITIES]
    assert hashlib.sha256(repr(bits).encode()).hexdigest() == (
        "bdff9028488efe6d6335f8220dabba16b114307d3909fdda6d4464c77a3c5c47")


@pytest.mark.parametrize("key", list(DENSITIES), ids=",".join)
def test_law_against_mpmath(key):
    ks = [*range(11), 50, 200, 10 ** 3, 10 ** 4, 10 ** 6]
    got = cylinder_measures(PermutationTriple(*key), ks)
    for k, p in zip(ks, got.tolist()):
        oracle = _mp_law(key, k)
        assert abs(p - oracle) / oracle < 1e-14, k


@pytest.mark.parametrize("key", list(DENSITIES), ids=",".join)
def test_law_constant_is_the_density_constant(key):
    # C = 1 / sum_k D(k + a) is the factor between the density and |h|
    x, y = 0.6, 0.3
    with mpmath.workdps(30):
        c = float(_mp_c(key))
    assert DENSITIES[key](x, y) / abs(EIGENFUNCTIONS[key](x, y)) == pytest.approx(c, rel=1e-15)


@pytest.mark.parametrize("n", [11, 1000])
@pytest.mark.parametrize("key", list(DENSITIES), ids=",".join)
def test_law_sums_to_one_with_its_tail(key, n):
    # sum_{k<N} p(k) + C (Li2(-N-a) - Li2(-N-a-1)) = 1: the tail of the
    # second difference telescopes
    a = _shift(key)
    with mpmath.workdps(30):
        tail = float(_mp_c(key) * (_li2(n + a) - _li2(n + a + 1)))
    head = math.fsum(cylinder_measures(PermutationTriple(*key), range(n)).tolist())
    assert abs(head + tail - 1.0) < 1e-13


def test_e23e_is_the_shifted_eee_law():
    # the printed two-piece (e,23,e) form is p_closed_eee(k - 1)/2
    for k in [*range(1, 201), 10 ** 3, 10 ** 4]:
        half = p_closed_eee(k - 1) / 2
        assert abs(p_integral_e23e(k) - half) / half < 1e-13, k


def _exact_points():
    # three seeded rationals with denominators near 10**6, and a point
    # 1e-12 from the y = 0 edge
    rng = np.random.default_rng(37)
    points = [(Fraction(3, 5), Fraction(1, 10 ** 12))]
    for d in 10 ** 6 + rng.integers(0, 1000, 3):
        x, y = (Fraction(int(n), int(d)) for n in sorted(rng.integers(1, d, 2), reverse=True))
        assert 0 < y < x < 1
        points.append((x, y))
    return points


def test_transfer_terms_are_the_law():
    # exactly, on the transfer and eigenfunction tables of all 18 density
    # rows: the k-th term of the transfer sum of |h| is 1/(A_k A_k+1),
    # A_k = d + (k + a) c, for the construction's denominator rows c and d
    # and the row's shift a
    points = _exact_points()
    for key in DENSITIES:
        m0, m1 = gausskuzmin._branches(key)
        a = _shift(key)
        row, h = TRANSFER[key], EIGENFUNCTIONS[key]
        for x, y in points:
            c, d = (form @ (x, y, 1) for form in (m1[2], m0[2]))
            for k in (0, 1, 2, 3, 1000, 10 ** 6):
                kf, s = Fraction(k), Fraction((-1) ** k)
                term = row.weight(kf, x, y, s) * abs(h(*row.branch(kf, x, y, s)))
                assert term == 1 / ((d + (k + a) * c) * (d + (k + 1 + a) * c)), (key, k, x, y)


def test_law_exactly_on_the_eigenfunction_rows():
    # the 72 parity rows and the 18 parity-free rows without an
    # eigenfunction have no law
    with_law = set()
    for key in supported_triples():
        try:
            gausskuzmin._law(key)
        except NoClosedLaw:
            continue
        with_law.add(key)
    assert with_law == set(EIGENFUNCTIONS)


def test_denominator_rows_at_the_vertices():
    # on every parity-free row, c is 0 at one vertex and 1 at the other
    # two, and d is 1 at that vertex and 1 and 2 at the other two: a fact
    # of the construction, which leaves a = 0 or -1
    vertices = np.array([(0, 0, 1), (1, 0, 1), (1, 1, 1)]).T
    rows = [key for key, row in FORWARD.items() if not row.parity]
    assert len(rows) == 36
    for key in rows:
        m0, m1 = gausskuzmin._branches(key)
        cd = zip((m1[2] @ vertices).tolist(), (m0[2] @ vertices).tolist())
        assert sorted(cd) == [(0, 1), (1, 1), (1, 2)], key


@pytest.mark.parametrize("h", [
    EIGENFUNCTIONS[E23E.key],
    lambda x, y: 2 / (x * (y + 1)),
    lambda x, y: 1 / (x * (y + 1) * (1 + x)),
    lambda x, y: 1 / ((2 * x - 1) * (y + 1)),
    lambda x, y: 1 / ((x + Fraction(1, 10 ** 12)) * (y + 1)),
], ids=["row-of-another-density", "doubled-h", "h-not-two-affine-factors", "pole-inside",
        "factor-moved-1e-12"])
def test_row_without_the_law_is_named(monkeypatch, h):
    # (e,e,e) with a wrong eigenfunction: the construction gives the row
    # its law, and the table's h must be that law's density
    monkeypatch.setitem(EIGENFUNCTIONS, EEE.key, h)
    gausskuzmin._law.cache_clear()
    try:
        with pytest.raises(NoClosedLaw):
            gausskuzmin._law(EEE.key)
    finally:
        gausskuzmin._law.cache_clear()


def test_import_derives_no_law():
    # the law of a row is derived on its first cylinder measure
    src = os.path.dirname(os.path.dirname(tripmaps.__file__))
    code = "import tripmaps.cli, tripmaps.gausskuzmin as g; print(g._law.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "0"


def test_cylinder_vs_indicator_quadrature():
    # coarse dual route: resolve the digit of each point of a midpoint grid
    # (one batch); arbitrates the closed law of cylinder_measure
    n = 260
    acc = 0.0
    r = density(E23E)
    h = 1.0 / n
    i, j = np.tril_indices(n, -1)
    xs, ys = (i + 0.5) * h, (j + 0.5) * h
    ones = digits(E23E.key, xs, ys, k_max=10 ** 9) == 1
    for x, y in zip(xs[ones].tolist(), ys[ones].tolist()):
        acc += r(x, y) * h * h
    assert abs(acc - cylinder_measure(E23E, 1)) < 5e-3


def test_tail_mass():
    probs = [cylinder_measure(E23E, k) for k in range(61)]
    total = math.fsum(probs)
    tail_mass = 1.0 - total
    assert 0.0 <= tail_mass < 0.05
    assert abs(total + tail_mass - 1.0) < 1e-10
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_closed_form_normalization():
    # the tail decays like log(k)/k^2, so k=1000 leaves ~7e-3 of mass;
    # the sums close to 1e-3 once the range respects that tail
    s = math.fsum(p_closed_eee(k) for k in range(20001))
    assert abs(s - 1.0) < 1e-3
    s23 = math.fsum(p_integral_e23e(k) for k in range(9001))
    assert abs(s23 - 1.0) < 1e-3


def _e23e_oracle(k):
    # the printed two-piece integral, its inner dy integral done, by mpmath
    # quad at 30 digits
    with mpmath.workdps(30):
        k = mpmath.mpf(k)
        c = 6 / (mpmath.pi ** 2)
        upper = lambda x: mpmath.log((k + x) / (k + 1))
        piece1 = mpmath.quad(lambda x: c * (upper(x) - mpmath.log(1 - x)) / x,
                             [1 / (k + 2), 1 / (k + 1)])
        piece2 = mpmath.quad(lambda x: c * (upper(x) - mpmath.log((k - 1 + x) / k)) / x,
                             [1 / (k + 1), 1])
        return piece1 + piece2


@pytest.mark.parametrize("k", [*range(1, 11), 50, 200, 1000, 3000, 10 ** 4])
def test_p_integral_e23e_against_mpmath(k):
    oracle = _e23e_oracle(k)
    assert abs(p_integral_e23e(k) - oracle) / oracle < 1e-13


def _eee_oracle(k):
    # the printed (e,e,e) formula, (k_1) read as k+1, at 50 digits
    with mpmath.workdps(50):
        k = mpmath.mpf(k)
        ln = mpmath.log
        return 6 / mpmath.pi ** 2 * (
            mpmath.polylog(2, 1 / (k + 1) ** 2) - mpmath.polylog(2, 1 / (k + 2) ** 2)
            + 4 * ln(k + 1) ** 2 - 2 * ln((k + 2) / (k + 1)) ** 2
            - 2 * ln(k * (k + 2)) * ln(k + 1))


@pytest.mark.parametrize("k", [*range(1, 11), 50, 200, 1000, 3000, 10 ** 4,
                               10 ** 6, 10 ** 9])
def test_p_closed_eee_against_mpmath(k):
    # the printed form cancelled: 5e-11 relative at k = 200, 0.0 at 1e9
    oracle = _eee_oracle(k)
    assert abs(p_closed_eee(k) - oracle) / oracle < 1e-15


def test_pk_decreasing_tail():
    for pk in (p_closed_eee, p_integral_e23e):
        vals = [pk(k) for k in range(2, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_p_closed_k1_hand_value():
    # independent hand evaluation of the printed formula at k=1
    k = 1
    expect = 6.0 / PI2 * (dilog(1 / 4) - dilog(1 / 9) + 4 * math.log(2) ** 2
                          - 2 * math.log(1.5) ** 2 - 2 * math.log(3.0) * math.log(2.0))
    assert p_closed_eee(k) == pytest.approx(expect, rel=1e-14, abs=0)


def test_negative_digit_rejected():
    with pytest.raises(ValueError):
        cylinder_measure(EEE, -1)
    with pytest.raises(ValueError):
        p_closed_eee(-2)
    with pytest.raises(ValueError):
        p_integral_e23e(-1)


@pytest.mark.parametrize("ks", [[1.5], [0, 2, 2.5], [math.nan], [math.inf], [-0.5]])
def test_non_integral_digit_rejected(ks):
    # a digit of 1.5 is no digit, not digit 1
    with pytest.raises(ValueError, match="integer"):
        cylinder_measures(EEE, ks)


def test_two_dimensional_digits_rejected():
    with pytest.raises(ValueError, match="one-dimensional"):
        cylinder_measures(EEE, np.array([[1, 2], [3, 4]]))


def test_string_digits_rejected():
    # '1' is no digit, not digit 1
    with pytest.raises(ValueError, match="integers"):
        cylinder_measures(EEE, ["1"])


def test_bool_digits_rejected():
    with pytest.raises(ValueError, match="integers"):
        cylinder_measures(EEE, np.array([True, False]))


@pytest.mark.parametrize("ks", [np.array([2 ** 63], dtype=np.uint64), [1e19]],
                         ids=["uint64", "float"])
def test_digit_beyond_int64_rejected(ks):
    # 2**63 is no negative digit
    with pytest.raises(ValueError, match="below"):
        cylinder_measures(EEE, ks)


def test_integral_float_digits_are_digits():
    assert cylinder_measures(EEE, [1.0, 3.0]).tolist() == cylinder_measures(EEE, [1, 3]).tolist()


def test_empirical_digits_deterministic():
    a = empirical_digits(E23E, 2000, seed=42)
    b = empirical_digits(E23E, 2000, seed=42)
    assert a.counts == b.counts and a.restarts == b.restarts
    assert sum(a.counts.values()) == 2000
    c = empirical_digits(E23E, 2000, seed=43)
    assert c.counts != a.counts


def test_empirical_batches():
    # batches are consecutive groups of whole walkers, as equal as can be;
    # only the last walker counts fewer than WALKER_STEPS digits
    st = empirical_digits(E23E, 2005, seed=42)
    assert len(st.batches) == MC_BATCHES
    sizes = [m for m, _ in st.batches]
    assert sum(sizes) == 2005
    assert all(m % WALKER_STEPS == 0 for m in sizes[:-1])
    assert max(sizes) - min(sizes) <= 2 * WALKER_STEPS
    for m, counts in st.batches:
        assert sum(counts.values()) == m
    for k, c in st.counts.items():
        assert sum(counts.get(k, 0) for _, counts in st.batches) == c
    one = empirical_digits(EEE, 1, seed=1)
    assert one.batch_stderr(0) == 0.0


def test_batch_stderr_is_standard_error_of_batch_means():
    st = EmpiricalStats(20, {0: 12, 1: 8},
                        batches=((10, {0: 5, 1: 5}), (10, {0: 7, 1: 3})))
    # batch frequencies 0.5 and 0.7: sample variance 0.02 over 2 batches
    assert math.isclose(st.batch_stderr(0), 0.1)
    assert math.isclose(st.batch_stderr(1), 0.1)
    assert st.batch_stderr(5) == 0.0


def test_empirical_single_step():
    st = empirical_digits(EEE, 1, seed=1)
    assert sum(st.counts.values()) == 1


@pytest.mark.parametrize("t, seed, restarts, c0, c1, k_top, digest", [
    (EEE, 1, 0, 4981, 2794, 1223839,
     "ed1bcb22e9646db60869d7f13c4468ad4fa61bf3d25e2797e795a1a5618c7fa9"),
    (EEE, 12345, 0, 5271, 2703, 272423,
     "071f6a51b90a6a9c57d356caec35345ff7035cd2a66266757ff62ea982e7b50f"),
    (E23E, 1, 0, 10057, 2527, 504259,
     "045bb6357debb367252c3338b0ffbebc7338f3bb37ce95cbe7365f7fff22e025"),
    (E23E, 12345, 0, 10029, 2478, 525959,
     "416b46fe33bf3c1365e5a969443408d27d257cde2f9611b46211c75ec4c33da6"),
], ids=["eee-1", "eee-12345", "e23e-1", "e23e-12345"])
def test_orbit_stream_is_pinned(t, seed, restarts, c0, c1, k_top, digest):
    # the counts, restarts and batches of 20000 walker steps, recorded from
    # the exact sampler and the lockstep walkers: a faster digit step or
    # sampler must not move a single digit of the stream
    st = empirical_digits(t, 20000, seed)
    assert (st.restarts, st.counts[0], st.counts[1], max(st.counts)) == (restarts, c0, c1, k_top)
    canon = (sorted(st.counts.items()), st.restarts,
             [(m, sorted(c.items())) for m, c in st.batches])
    assert hashlib.sha256(repr(canon).encode()).hexdigest() == digest


def _patch_draws(monkeypatch, points):
    # the sampler hands out the given points, one call after the other
    it = iter(points)

    def draws(rng, r, m):
        pts = [next(it) for _ in range(m)]
        return np.array([p.x for p in pts]), np.array([p.y for p in pts])

    monkeypatch.setattr(gausskuzmin, "_draws", draws)


def test_orbit_boundary_test_shared(monkeypatch):
    # maps.step and the Monte Carlo walkers stop at the same images: from
    # preimages of points 1e-13 to 1e-11 inside each edge, the walker
    # restarts exactly where step raises BoundaryHit
    good = TrianglePoint(0.6, 0.3)
    verdicts = set()
    for d in (1e-13, 5e-13, 2e-12, 1e-11):
        for q in (TrianglePoint(0.5, d), TrianglePoint(0.5 + d, 0.5), TrianglePoint(1.0 - d, 0.5)):
            p = branch_point(EEE, 0, q)
            try:
                step(EEE, p)
                hit = False
            except BoundaryHit:
                hit = True
            _patch_draws(monkeypatch, [p, good])
            assert empirical_digits(EEE, 1, seed=1).restarts == int(hit), (d, q)
            verdicts.add(hit)
    assert verdicts == {False, True}


def test_walker_counts_deep_digit_once(monkeypatch):
    # a walker next to the y = 0 edge, whose digit is beyond the float
    # bracket, so that the exact path decides it; the digit is tallied
    # once, without a table as long as the digit
    deep = TrianglePoint(0.7, 3.3e-10)
    k_deep = int(digits(EEE.key, [deep.x], [deep.y])[0])
    assert k_deep > 2 ** 20
    exact = []
    real = maps._solve_exact

    def solve_exact(key, xs, ys, k_max):
        exact.append(xs.size)
        return real(key, xs, ys, k_max)

    monkeypatch.setattr(maps, "_solve_exact", solve_exact)
    rest = interior_points(5, 99)
    _patch_draws(monkeypatch, [deep, *rest])
    tracemalloc.start()
    try:
        st = empirical_digits(EEE, 100 * WALKER_STEPS, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exact and st.counts[k_deep] == 1 and st.restarts == 0
    assert sum(st.counts.values()) == 100 * WALKER_STEPS
    assert peak < 2 ** 20


def _envelope_grid():
    # an interior grid, and points 1e-12 to 1e-3 from each vertex and edge
    pts = [(x, y) for x in np.linspace(0.05, 0.95, 19) for y in np.linspace(0.025, 0.975, 20) * x]
    for d in (1e-12, 1e-9, 1e-6, 1e-3):
        pts += [(d, d / 2), (1 - d, d / 2), (1 - d / 2, 1 - d)]
        for u in (0.1, 0.5, 0.9):
            pts += [(u, d), (1 - d, u), (u, u - d)]
    return np.array(pts).T


@pytest.mark.parametrize("key", list(DENSITIES), ids=",".join)
def test_density_below_sampler_envelope(key):
    # r <= (12/pi^2) g, g = 1/x + 1/(1-y) + 1/(1-x+y): the envelope the
    # exact sampler rejects against
    x, y = _envelope_grid()
    g = 1 / x + 1 / (1 - y) + 1 / (1 - x + y)
    assert np.all(DENSITIES[key](x, y) <= 12 / PI2 * g)


def test_sampler_refuses_density_above_envelope(monkeypatch):
    # doubled, the (e,e,e) density is twice the envelope next to (0, 0)
    r = DENSITIES[EEE.key]
    monkeypatch.setitem(gausskuzmin.DENSITIES, EEE.key, lambda x, y: 2 * r(x, y))
    with pytest.raises(EnvelopeExceeded):
        empirical_digits(EEE, 100, seed=1)


@pytest.mark.parametrize("key", list(DENSITIES), ids=",".join)
def test_draws_match_cylinder_measures(key):
    # the draws are independent and exact, so the binomial sigma of their
    # digit frequencies is honest
    n = 20000
    t = PermutationTriple(*key)
    xs, ys = gausskuzmin._draws(np.random.Generator(np.random.Philox(77)), density(t), n)
    assert xs.shape == ys.shape == (n,) and in_triangle((xs, ys)).all()
    found = digits(key, xs, ys)
    for k, p in enumerate(cylinder_measures(t, range(3))):
        assert abs(np.mean(found == k) - p) < 4 * math.sqrt(p * (1 - p) / n), k
def test_empirical_matches_theory_small_n():
    st = empirical_digits(E23E, 50_000, seed=9)
    f0 = st.frequency(0)
    assert abs(f0 - 0.5) < 0.01


def test_invariance_check():
    assert invariance_check(EEE) < 1e-6
    assert invariance_check(PermutationTriple("13", "13", "13")) < 1e-6

