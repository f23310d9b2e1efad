"""Special functions and quadrature shared by the analysis modules.

bessel_j1 is plain float64: below 16 a degree-15 polynomial per interval
[2i, 2i + 2] times x, above it the Hankel form with degree-7 polynomials
in (16/x)^2 and the phase taken through sin x and cos x.  The coefficients
are mpmath fits (scripts/fit_bessel_j1.py) written into this file, and the
tier-1 workflow checks them bit for bit against the script's output; the
absolute error against mpmath is below 1e-15 on [0, 100], and below
2.3e-16 on a 45k-point grid there.

Half-line integrals against dm(t) = t dt / (e^t - 1) run on Gauss-Laguerre
nodes: a coarse set of DM_COARSE = 48 nodes and a fine set of DM_FINE = 64,
gated on the worst |fine - coarse| <= DM_TOL = 1e-9 over the batch (a nan
gap fails the gate too; NonConvergent otherwise).  There is no cutoff of the
half-line.  An integrand that carries a known e^(-rate t) is integrated on
the nodes x/(1 + rate), x the laggauss nodes, so the rule resolves every
rate from 0 up with the same node counts; rate may be an array over the
batch axes.  There is one such rule, fixed by these constants: a smaller or
larger rule is an edit of them, which the spectrum test of the Bessel
kernel on both node sets (tests/test_hilbert.py) guards.  Keep them at
about 100 or less: laggauss's weights lose accuracy beyond that.
Integrands passed to the half-line routines are evaluated on numpy arrays
only, once per integral: on the coarse and the fine nodes concatenated
along the last axis, the coarse ones first, whose two halves are summed
and gated.  A scalar result is broadcast, and a callable that cannot take
an array raises NotArrayNative.  An integrand may return shape (..., n),
the nodes on the last axis, to get a batch of integrals in one call.
halfline_nodes hands out that one row and gated_halves sums and gates its
halves, for callers that apply a kernel on the nodes instead of a
callable.

The triangle integrator is an adaptive subdivision scheme built on a
degree-5 seven-point rule whose nodes are strictly interior, so integrable
boundary singularities (1/x, 1/(1-y), log types) never get sampled on the
singular set itself.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergent, NotArrayNative

PI2_6 = math.pi ** 2 / 6


# the one dm rule: DM_COARSE Gauss-Laguerre nodes (the coarse set) and
# DM_FINE (the fine set), gated on |fine - coarse| <= DM_TOL.  The fine set
# is not 2 * DM_COARSE: at 96 nodes laggauss's weights already cost the
# kernel spectrum test (tests/test_hilbert.py) its 1e-13 bound
DM_COARSE = 48
DM_FINE = 64
DM_TOL = 1e-9


def dilog(z: float) -> float:
    """Li2 on [-1, 1]; series on [0, 1/2], reflection above, and
    Li2(-z) = Li2(z^2)/2 - Li2(z) below 0."""
    if not -1.0 <= z <= 1.0:
        raise DomainError(f"dilog argument {z} outside [-1, 1]")
    if z < 0.0:
        return 0.5 * dilog(z * z) - dilog(-z)
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return PI2_6
    if z > 0.5:
        return PI2_6 - math.log(z) * math.log1p(-z) - dilog(1.0 - z)
    total, power, n = 0.0, z, 1
    while True:
        term = power / (n * n)
        total += term
        if term < 1e-17 * max(total, 1e-300):
            return total
        power *= z
        n += 1


# float64 J1, coefficients from scripts/fit_bessel_j1.py: Chebyshev
# interpolation with mpmath at 40 digits, rounded to float64, highest
# degree first.  Below _J1_X0 = 16, J1(x) = x g_i(x - (2i + 1)) on
# [2i, 2i + 2], i = 0..7, each g_i a degree-15 fit of J1(x)/x; the largest
# fit error in J1 is 1.5e-19.  From _J1_X0 up, the Hankel form
# J1(x) = (p(y) (sin x - cos x) + q(y)/x (sin x + cos x)) / sqrt(x) with
# y = (16/x)^2 in (0, 1] and p, q degree-7 fits (1/sqrt(pi) folded in); the
# fit errors are 2.6e-18 for p and 1.9e-17 for q.  Writing the phase
# x - 3 pi/4 through sin x and cos x keeps it free of rounding.
_J1_X0 = 16.0
_J1_PIECES = np.array([
    [
        7.121748792169982e-15, -9.065592043145979e-14, -1.8224619994758933e-12,
        2.0893853039653138e-11, 3.512397883596008e-10, -3.5774201752645256e-09,
        -4.940814211993301e-08, 4.4006237830550645e-07, 4.773311666781658e-06,
        -3.6420915758631625e-05, -0.00028894121247949295, 0.0018366660788981712,
        0.00936890383064921, -0.04767006547461604, -0.11490348493190047,
        0.4400505857449335,
    ],
    [
        3.3932850812210676e-15, 1.3310368361384375e-13, -9.375451677296012e-13,
        -2.9585961944214364e-11, 1.97893356273998e-10, 4.8160754944584664e-09,
        -3.1029736301375556e-08, -5.501449858716985e-07, 3.4220377740389746e-06,
        4.044790869108672e-05, -0.00024450774800854034, -0.0016391531326910673,
        0.009834918796146635, 0.024505383676659102, -0.16203042019529704,
        0.11301965284197882,
    ],
    [
        -8.48465318512167e-15, 2.1331448656288605e-14, 2.1465881735125085e-12,
        -6.537507651319997e-12, -4.0553275492967746e-10, 1.451548615223027e-09,
        5.5048441318801744e-08, -2.2638497930998198e-07, -4.97106780721361e-06,
        2.3148698492210793e-05, 0.0002608215736390966, -0.0013713211563047263,
        -0.005744454069681599, 0.03555182073581165, -0.009313023255550444,
        -0.06551582751829305,
    ],
    [
        1.1659093119266726e-15, -1.3202146679375816e-13, -1.5514671542588875e-13,
        2.9330527443810785e-11, -4.4993477082805744e-12, -4.727083260170533e-09,
        6.62879704024165e-09, 5.243131942227451e-07, -1.3483792065904163e-06,
        -3.5847314889023904e-05, 0.00013034832163475525, 0.0012046563499810753,
        -0.0054668495803250955, -0.008892570366136728, 0.04305960286942002,
        -0.0006689747831922618,
    ],
    [
        7.004867282623377e-15, 4.665173217578528e-14, -1.8014405930235688e-12,
        -7.816300555398663e-12, 3.43945015315363e-10, 7.472685471392326e-10,
        -4.6622280425722977e-08, -1.0577514854345994e-08, 4.1055149980127465e-06,
        -5.892196001097943e-06, -0.00020028661312251954, 0.0005335202568949797,
        0.0037992420674948686, -0.010946074410879109, -0.016094149059167107,
        0.02725686517481392,
    ],
    [
        -4.696359819709235e-15, 9.003696968055551e-14, 1.0234068959511658e-12,
        -2.0697691334679798e-11, -1.5459307006863007e-10, 3.421718344108024e-09,
        1.4523831381385444e-08, -3.8331082298521046e-07, -6.089430710660799e-07,
        2.58603651956371e-05, -9.98113623331579e-06, -0.0008501733319961738,
        0.0011673259054979501, 0.009759424978760495, -0.012640683525336479,
        -0.01607139081424741,
    ],
    [
        -3.4675987434473482e-15, -8.690852094890948e-14, 9.675573384988865e-13,
        1.6765664104349156e-11, -1.9780786547241822e-10, -2.207833908392695e-09,
        2.821471425356485e-08, 1.8101433154320553e-07, -2.563275170294656e-06,
        -7.567541944355123e-06, 0.00012808594700613042, 9.767294524439992e-05,
        -0.0028014150750065676, 0.0007718990676249968, 0.01674955878784283,
        -0.00540908093244449,
    ],
    [
        5.89692724165636e-15, -2.721648686365406e-14, -1.35813515466457e-12,
        7.704527519295551e-12, 2.2433283945626585e-10, -1.4810898977814723e-09,
        -2.511909883043377e-08, 1.8436795018279223e-07, 1.7207434014298932e-06,
        -1.343196025806291e-05, -6.179650872022776e-05, 0.00048761338028355293,
        0.0008930592171030555, -0.006559656767282422, -0.0027714451983500317,
        0.01367360257423485,
    ],
])
_J1_P = (
    5.036799681083196e-13, -5.9461416620808235e-12, 6.187289108324982e-11,
    -9.040418975091255e-10, 2.275261414283583e-08, -1.241357888571538e-06,
    0.000258265495398113, 0.5641895835477563,
)
_J1_Q = (
    -3.2156658496358343e-12, 3.4534479840170964e-11, -3.06016877251906e-10,
    3.577720602782056e-09, -6.703870276625336e-08, 2.389613897671714e-06,
    -0.0002259823084712136, 0.2115710938304086,
)


def _horner(coeffs, t: np.ndarray) -> np.ndarray:
    acc = np.full_like(t, coeffs[0])
    for c in coeffs[1:]:
        acc *= t
        acc += c
    return acc


def bessel_j1(x):
    """J1 for x >= 0 in float64: piecewise polynomials below 16, the
    Hankel form beyond; absolute error below 1e-15 against mpmath on
    [0, 100].  Accepts scalars or numpy arrays."""
    scalar = np.isscalar(x)
    arr = np.asarray(x, dtype=float).ravel()
    if np.any(arr < 0):
        raise DomainError("bessel_j1 requires x >= 0")
    out = np.empty_like(arr)
    small = arr < _J1_X0
    xs = arr[small]
    if xs.size:
        piece = (xs * 0.5).astype(np.intp)
        t = xs - (2 * piece + 1)
        # the 16 coefficients of each argument's piece, row i the i-th
        coef = np.take(_J1_PIECES.T, piece, axis=1)
        acc = coef[0]
        for col in coef[1:]:
            acc *= t
            acc += col
        acc *= xs
        out[small] = acc

    large = ~small          # NaN lands here and stays NaN
    xl = arr[large]
    if xl.size:
        inv = 1.0 / xl
        y = inv * inv
        y *= _J1_X0 * _J1_X0
        p = _horner(_J1_P, y)
        q = _horner(_J1_Q, y)
        q *= inv
        # p (s - c) + q (s + c) = (p + q) s - (p - q) c
        val = p + q
        val *= np.sin(xl)
        p -= q
        p *= np.cos(xl)
        val -= p
        val /= np.sqrt(xl)
        out[large] = val
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def _laguerre1_rows(K: int, t: np.ndarray) -> np.ndarray:
    """L_k^(1)(t) for k = 0..K by the three-term recurrence, row k of a
    (K + 1,) + t.shape array."""
    if K < 0:
        raise ValueError("k must be non-negative")
    rows = np.empty((K + 1,) + t.shape)
    rows[0] = 1.0 + 0.0 * t
    if K > 0:
        rows[1] = 2.0 - t
    for n in range(1, K):
        rows[n + 1] = ((2 * n + 2 - t) * rows[n] - (n + 1) * rows[n - 1]) / (n + 1)
    return rows


def laguerre1(k: int, t):
    """Associated Laguerre polynomial L_k^(1)(t), the last of _laguerre1_rows."""
    val = _laguerre1_rows(k, np.asarray(t, dtype=float))[k]
    return float(val) if np.isscalar(t) else val


def _eval_vec(fun: Callable, *args: np.ndarray) -> np.ndarray:
    """fun(*args) as a float array of the shape of args[0]; a scalar result
    is broadcast."""
    try:
        return np.broadcast_to(np.asarray(fun(*args), dtype=float), args[0].shape)
    except (TypeError, ValueError) as exc:
        raise NotArrayNative(f"integrand {fun!r} cannot take arrays: {exc}") from exc


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The DM_COARSE and then the DM_FINE Gauss-Laguerre nodes x in one
    row, and the weights w e^x of the plain int_0^inf f(x) dx on them;
    built once, read-only."""
    x, w = np.concatenate([np.polynomial.laguerre.laggauss(n) for n in (DM_COARSE, DM_FINE)],
                          axis=1)
    w = w * np.exp(x)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def halfline_nodes(rate=0.0, dm_weight: bool = True) -> tuple[np.ndarray, np.ndarray, int]:
    """The one node row (t, w) for integrands decaying like e^(-rate t),
    and the count n = DM_COARSE of its coarse nodes, which come first; the
    fine ones follow.  t = x/scale on the Gauss-Laguerre nodes x, scale =
    1 + rate for the weights of int f(t) dm(t) if dm_weight (dm carries its
    own e^-t), else scale = rate for the plain int f(t) dt.  An array rate
    gives t and w of shape rate.shape + (DM_COARSE + DM_FINE,)."""
    x, w = _laguerre_rule()
    scale = np.asarray(rate, dtype=float)[..., None] + (1.0 if dm_weight else 0.0)
    t = x / scale
    w = w / scale
    if dm_weight:
        w = w * t / np.expm1(t)             # dm(t) = t dt/(e^t - 1)
    return t, w, DM_COARSE


def gated(coarse, fine, abs_tol: float, what: str = "half-line quadrature",
          tail: float = 0.0):
    """fine, once the worst |fine - coarse| over the batch, plus a bound
    tail on what both node sets leave out, is within abs_tol; written so
    that a nan gap fails the gate too.  An empty batch passes."""
    gap = float(np.max(np.abs(fine - coarse), initial=0.0)) + tail
    if not gap <= abs_tol:
        raise NonConvergent(f"{what} stalled: gap {gap} > {abs_tol}")
    return fine


def gated_halves(a, b, n: int, what: str = "half-line quadrature"):
    """gated by DM_TOL on the sums of a * b over the last axis, the coarse
    one over its first n entries and the fine one over the rest, for a and
    b on the node row of halfline_nodes."""
    # einsum, not BLAS: a threaded product burns CPU on every core for no
    # wall-clock gain at these sizes
    return gated(np.einsum("...n,...n->...", a[..., :n], b[..., :n]),
                 np.einsum("...n,...n->...", a[..., n:], b[..., n:]), DM_TOL, what)


def _halfline_weighted(fun: Callable, rate, dm_weight: bool):
    """int_0^inf fun(t) * [t/(e^t - 1) if dm_weight] dt, fun decaying at
    least like e^(-rate t) up to polynomial factors.  fun may return shape
    (..., n), the nodes on the last axis, for a batch of integrals; rate
    may be an array that broadcasts against the batch shape.  The result
    has the batch shape, a float for a 1-d integrand."""
    t, w, n = halfline_nodes(rate, dm_weight)
    try:
        vals = np.asarray(fun(t), dtype=float)
        vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, t.shape))
    except (TypeError, ValueError) as exc:
        raise NotArrayNative(f"integrand {fun!r} cannot take arrays: {exc}") from exc
    fine = gated_halves(vals, w, n)
    return float(fine) if fine.ndim == 0 else fine


def integrate_dm(fun: Callable, rate=0.0):
    """int_0^inf fun(t) dm(t) with dm(t) = t dt/(e^t - 1), fun decaying
    like e^(-rate t); batched as in _halfline_weighted."""
    return _halfline_weighted(fun, rate, dm_weight=True)


def integrate_halfline(fun: Callable, rate):
    """Plain int_0^inf fun(t) dt for integrands decaying like e^(-rate t),
    rate > 0; batched as in _halfline_weighted."""
    return _halfline_weighted(fun, rate, dm_weight=False)


_SQRT15 = math.sqrt(15.0)
_TRI_WEIGHTS = (9 / 40,
                (155 - _SQRT15) / 1200, (155 - _SQRT15) / 1200, (155 - _SQRT15) / 1200,
                (155 + _SQRT15) / 1200, (155 + _SQRT15) / 1200, (155 + _SQRT15) / 1200)
_A1 = (6 - _SQRT15) / 21
_A2 = (6 + _SQRT15) / 21
_TRI_BARY = ((1 / 3, 1 / 3, 1 / 3),
             (_A1, _A1, 1 - 2 * _A1), (_A1, 1 - 2 * _A1, _A1), (1 - 2 * _A1, _A1, _A1),
             (_A2, _A2, 1 - 2 * _A2), (_A2, 1 - 2 * _A2, _A2), (1 - 2 * _A2, _A2, _A2))

TRIANGLE_VERTICES = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))


_TRI_BARY_ARR = np.array(_TRI_BARY)          # (7, 3)
_TRI_W_ARR = np.array(_TRI_WEIGHTS)          # (7,)


def _quad_many(fun, tris: np.ndarray) -> np.ndarray:
    """Degree-5 rule of fun on a batch of triangles of shape (n, 3, 2)."""
    xs = tris[:, :, 0] @ _TRI_BARY_ARR.T     # (n, 7)
    ys = tris[:, :, 1] @ _TRI_BARY_ARR.T
    areas = 0.5 * np.abs(
        (tris[:, 1, 0] - tris[:, 0, 0]) * (tris[:, 2, 1] - tris[:, 0, 1])
        - (tris[:, 2, 0] - tris[:, 0, 0]) * (tris[:, 1, 1] - tris[:, 0, 1]))
    return (_eval_vec(fun, xs, ys) @ _TRI_W_ARR) * areas


# the four children of a triangle (a, b, c), as rows of a, b, c and the
# midpoints of ab, bc and ca
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


def _subdivide(tris: np.ndarray) -> np.ndarray:
    corners = np.concatenate([tris, (tris + tris[:, [1, 2, 0]]) / 2], axis=1)
    return corners[:, _CHILDREN]


def integrate_triangle(fun: Callable[[float, float], float], abs_tol: float,
                       max_depth: int = 40, max_leaves: int = 400_000) -> float:
    """Adaptive integral of fun(x, y) over the triangle 0 < y < x < 1, to
    an absolute abs_tol >= 0.

    Leaves carry the one-level difference |fine - coarse| as error
    estimate (conservative: near singularities the rule drops to first
    order, so no Richardson discount is applied); only the leaves
    dominating the summed estimate get refined, so meshes grade
    geometrically into corner or edge singularities without flooding the
    smooth interior.  fun is evaluated on numpy arrays only; one that
    cannot take them raises NotArrayNative.

    The loop stops once the summed estimate is at most 0.9 abs_tol.  A
    leaf at max_depth is not refined; a nan estimate, no leaf left to
    refine, or a refinement that would pass max_leaves raises
    NonConvergent.
    """
    if not abs_tol >= 0.0:
        # written so that a nan abs_tol fails it too
        raise ValueError(f"abs_tol must be >= 0, not {abs_tol}")

    def expand(tris, coarse):
        # leaf payload: children quads give the refined value and the gap
        kids = _subdivide(tris)
        kq = _quad_many(fun, kids.reshape(-1, 3, 2)).reshape(-1, 4)
        fine = kq.sum(axis=1)
        return kids, kq, fine, np.abs(fine - coarse)

    tris = np.array([TRIANGLE_VERTICES])
    kids, kidq, fine, gap = expand(tris, _quad_many(fun, tris))
    depth = np.zeros(1, dtype=int)

    # np.cumsum adds the leaves one by one in array order, the kept leaves
    # and then the new ones; np.sum's pairwise order would move last bits
    while not (total_err := np.cumsum(gap)[-1]) <= 0.9 * abs_tol:
        refinable = depth < max_depth
        # fmax passes over a nan estimate, which the stuck test below catches
        worst = np.fmax.reduce(np.where(refinable, gap, -np.inf), initial=-np.inf)
        sel = refinable & (gap >= np.maximum(total_err / (2.0 * gap.size), worst / 64.0))
        if not sel.any():
            sel = refinable & (gap == worst)
        # a nan estimate selects no leaf, and would never leave the loop;
        # each selected leaf turns into four, which must not pass max_leaves
        if np.isnan(total_err) or worst == -np.inf or gap.size + 3 * sel.sum() > max_leaves:
            raise NonConvergent(
                f"triangle quadrature stuck at error {total_err:.3e} with {gap.size} leaves")
        nk, nkq, nfine, ngap = expand(kids[sel].reshape(-1, 3, 2), kidq[sel].reshape(-1))
        keep = ~sel
        kids = np.concatenate([kids[keep], nk])
        kidq = np.concatenate([kidq[keep], nkq])
        fine = np.concatenate([fine[keep], nfine])
        gap = np.concatenate([gap[keep], ngap])
        depth = np.concatenate([depth[keep], np.repeat(depth[sel] + 1, 4)])

    return float(np.cumsum(fine)[-1])
