"""The registry of the paper's claims, each gated on a stated tolerance.

A claim's run() takes no arguments and returns one float, the worst value
measured over its cases; the claim holds iff that value is below tol.  A
yes/no fact is folded into the value so the gate stays exact: a wrong
digit makes the round-trip value inf, a non-convergent summand sum makes
the grid maximum inf (gated against tol = inf), and a preimage tree with
a weight that is not positive is counted against tol = 1.  The
acceptance tests and `tripmaps verify` both run this list.  Importing
the module computes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import gausskuzmin, hilbert, maps, spectral, transfer
from .domain import PermutationTriple, TrianglePoint, interior_points, supported_triples
from .specfun import dilog, integrate_dm, integrate_triangle, laguerre1
from .tables.banach import BANACH
from .tables.eigen import DENSITIES, EIGENFUNCTIONS
from .tables.transfer_rows import TRANSFER

# one triple per sigma class of the kernel-form table
SIGMA_REPS = [("e", "23", "e"), ("12", "13", "12"), ("13", "13", "13"),
              ("23", "23", "23"), ("123", "12", "132"), ("132", "123", "123")]


@dataclass(frozen=True)
class Claim:
    name: str
    tol: float
    run: Callable[[], float]


CLAIMS: list[Claim] = []


def _claim(name: str, tol: float):
    def register(run: Callable[[], float]) -> Callable[[], float]:
        CLAIMS.append(Claim(name, tol, run))
        return run
    return register


def _triples(keys) -> list[PermutationTriple]:
    return [PermutationTriple(*key) for key in keys]


def _worst(values: Iterable[float]) -> float:
    # np.max propagates nan, so a nan case fails the value < tol gate
    return float(np.max(np.fromiter(values, dtype=float)))


@_claim("branch_roundtrip", 1e-10)
def _branch_roundtrip() -> float:
    # forward(branch_k(p)) = p and exact digit recovery: all 108 triples,
    # k <= 20, 100 seeded interior points
    pts = interior_points(101, 100)
    reports = (maps.branch_roundtrip(t, 20, pts) for t in _triples(supported_triples()))
    return _worst(err if digits_exact else math.inf for err, digits_exact in reports)


@_claim("jacobian_oracle", 1e-6)
def _jacobian_oracle() -> float:
    # tabulated weights against finite-difference Jacobians, k <= 10
    pts = interior_points(202, 5, margin=5e-2)
    return _worst(transfer.jacobian_residual(t, k, p)
                  for t in _triples(supported_triples())
                  for k in range(11) for p in pts)


@_claim("eigenvalue_one", 1e-8)
def _eigenvalue_one() -> float:
    # |Lh - h|/|h| on the 10x10 margin-0.05 grid, all 18 eigenfunctions
    grid = spectral.GridSpec(margin=0.05, density=10)
    return _worst(spectral.eigen_residual(t, grid, eps=1e-9).max_rel_residual
                  for t in _triples(EIGENFUNCTIONS))


@_claim("summand_convergence", math.inf)
def _summand_convergence() -> float:
    # the grid maximum is inf where a summand sum fails to converge
    grid = spectral.GridSpec(margin=0.05, density=5)
    return _worst(spectral.summand_bound(t, grid, eps=1e-9) for t in _triples(BANACH))


@_claim("summand_consistency", 1e-10)
def _summand_consistency() -> float:
    # the tabulated summand equals g(p) w_k(p) / g(branch_k(p)), relative
    # to max(1, |value|), k <= 10
    pts = interior_points(404, 3, margin=5e-2)

    def gap(key, k, p) -> float:
        t, row = PermutationTriple(*key), BANACH[key]
        q = transfer.branch_point(t, k, p)
        expect = row.g(p.x, p.y) * transfer.weight(t, k, p) / row.g(q.x, q.y)
        return abs(row.summand(float(k), p.x, p.y) - expect) / max(1.0, abs(expect))

    return _worst(gap(key, k, p) for key in BANACH for k in range(11) for p in pts)


@_claim("monotonicity", 1.0)
def _monotonicity() -> float:
    # f < g implies L^n f < L^n g, n = 1..3, 47 rows, through positive
    # preimage-tree weights: the number of (row, n) pairs with a weight <= 0
    return float(sum(
        not spectral.monotonicity_check(t, n=n, trials=20, seed=1000 + n, branches=12)
        for t in _triples(BANACH) for n in (1, 2, 3)))


@_claim("density_normalization", 1e-8)
def _density_normalization() -> float:
    return _worst(abs(integrate_triangle(r, 1e-9) - 1.0) for r in DENSITIES.values())


@_claim("density_invariance", 1e-6)
def _density_invariance() -> float:
    return _worst(gausskuzmin.invariance_check(t, abs_tol=1e-6)
                  for t in _triples(DENSITIES))


def pullback_measures(t: PermutationTriple, ks) -> np.ndarray:
    """p(k) = mu(cylinder k) for each k of ks by adaptive cubature, each to
    an absolute 1e-9: the k-th inverse branch maps the triangle onto the
    cylinder, so p(k) = int_tri r(branch_k(q)) weight(k, q) dq.  The
    integrand is smooth, which is what lets the cubature reach 1e-9; a
    pointwise digit-indicator integral would stall at the cylinder
    boundary.  The numerical route to gausskuzmin.cylinder_measures."""
    r, row = gausskuzmin.density(t), TRANSFER[t.key]

    def measure(k) -> float:
        def fun(x, y):
            w, a, b = transfer._inverse(row, k, x, y, transfer.parity_sign(k))
            return w * r(a, b)
        return integrate_triangle(fun, 1e-9)

    return np.array([measure(k) for k in ks])


@_claim("gauss_kuzmin_e23e_p0", 1e-8)
def _gauss_kuzmin_e23e_p0() -> float:
    # p(0) = 1/2 exactly for (e,23,e)
    key = ("e", "23", "e")
    return abs(float(pullback_measures(PermutationTriple(*key), [0])[0])
               - gausskuzmin.CLOSED_FORMS[key](0))


@_claim("gauss_kuzmin_closed_forms", 1e-6)
def _gauss_kuzmin_closed_forms() -> float:
    # cylinder cubature against the closed forms, k <= 5; at k = 1..5
    # this agreement also pins the (k+1) reading of the printed (e,e,e)
    # formula
    cases = [(("e", "e", "e"), range(6)), (("e", "23", "e"), range(1, 6))]
    return _worst(abs(p - gausskuzmin.CLOSED_FORMS[key](k))
                  for key, ks in cases
                  for k, p in zip(ks, pullback_measures(PermutationTriple(*key), ks)))


@_claim("monte_carlo_digits", 3.0)
def _monte_carlo_digits() -> float:
    # |frequency - p| in binomial sigmas, k < 3, 1e6 steps per ergodic triple
    n = 1_000_000
    z = []
    for key, theory in gausskuzmin.CLOSED_FORMS.items():
        stats = gausskuzmin.empirical_digits(PermutationTriple(*key), n, seed=12345)
        for k in range(3):
            p = theory(k)
            z.append(abs(stats.frequency(k) - p) / math.sqrt(p * (1.0 - p) / n))
    return _worst(z)


def theorem31_points() -> list[TrianglePoint]:
    """The five points of the Theorem 3.1 claims."""
    return interior_points(909, 5, margin=8e-2)


@_claim("theorem31_identity", 1e-4)
def _theorem31_identity() -> float:
    # relative gap of the kernel identity, eta_0 and eta_1, 5 points
    pts = theorem31_points()

    def gap(key, k_eta, p) -> float:
        phi = hilbert.eta_profile(k_eta)
        lhs, rhs = hilbert.theorem31_check(PermutationTriple(*key), phi, p)
        return abs(lhs - rhs) / abs(lhs)

    return _worst(gap(key, k_eta, p) for key in SIGMA_REPS for k_eta in (0, 1) for p in pts)


@_claim("theorem31_laguerre", 1e-3)
def _theorem31_laguerre() -> float:
    # the K = 50 Laguerre partial sum against the branch-sum side
    p = theorem31_points()[0]

    def gap(key) -> float:
        t, phi = PermutationTriple(*key), hilbert.eta_profile(0)
        lhs = hilbert.theorem31_lhs(t, phi, p)
        return abs(hilbert.laguerre_expansion_partial(t, phi, p, 50) - lhs) / abs(lhs)

    return _worst(gap(key) for key in SIGMA_REPS)


@_claim("dilog_reflection", 1e-13)
def _dilog_reflection() -> float:
    # Li2(z) + Li2(1-z) = pi^2/6 - ln(z) ln(1-z)
    return _worst(abs(dilog(z) + dilog(1.0 - z)
                      - (math.pi ** 2 / 6 - math.log(z) * math.log1p(-z)))
                  for z in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95))


@_claim("dm_total_mass", 1e-10)
def _dm_total_mass() -> float:
    # int_0^inf dm = pi^2/6
    return abs(integrate_dm(lambda t: 1.0 + 0.0 * t) - math.pi ** 2 / 6)


@_claim("laguerre_exact_sum", 1e-10)
def _laguerre_exact_sum() -> float:
    # L_k^(1) against its finite sum, k <= 10, relative above magnitude 1
    def gap(k, t) -> float:
        exact = sum((-1) ** i * math.comb(k + 1, k - i) * t ** i
                    / math.factorial(i) for i in range(k + 1))
        got = laguerre1(k, t)
        return abs(got - exact) / max(abs(got), abs(exact), 1.0)

    return _worst(gap(k, t) for k in range(11) for t in (0.3, 1.0, 4.5))
