"""Bessel-kernel form of the transfer operator on the dm half-line space.

For 44 triples the branch sum acting on transformed test functions equals
an integral operator with kernel J_1(2 sqrt(st))/sqrt(st) against
dm(t) = t dt/(e^t - 1).  This module evaluates both sides numerically:
the left side is apply_transfer of the sigma-indexed transform of a
profile phi, the right side is j(p) int_0^inf e^{-t(l(p)-1)} K(phi)(t) dt
with a plain dt on the outside.  The Laguerre expansion over eta_k / e_k
gives a third, series-form route to the same value.  Every dm-integral
here goes through the one rule of specfun.integrate_dm, batched: the
transforms at all branch points of a block, the kernel matrix over its
t values, and the eta_k and E_k for all k <= K each take one call.

Slot convention: a profile is a callable of two reals, evaluated on
numpy arrays that broadcast against each other.  Four of the six sigma
classes integrate over the second slot and carry the transform argument
in the first; the classes 13 and 132 swap the slots, mirroring the
printed transform rows.  ARG_SLOT records the non-integration slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import DomainError, UnsupportedTriple
from .specfun import (
    QuadratureRule,
    _laguerre1_rows,
    bessel_j1,
    integrate_dm,
    integrate_halfline,
)
from .tables.hilbert_rows import ARG_SLOT, HILBERT, TRANSFORM_ARG, HilbertRow
from .transfer import TruncationPolicy, apply_transfer, branch_point

INNER_RULE = QuadratureRule(abs_tol=1e-9)
OUTER_RULE = QuadratureRule(abs_tol=1e-7)


@dataclass(frozen=True)
class HilbertTriple:
    l: Callable[[float, float], float]
    j: Callable[[float, float], float]
    h3: Callable[[float, float], float]
    slot: int
    arg: Callable[[float, float], float]


@dataclass(frozen=True)
class ProfileFunction:
    eval: Callable[[float, float], float]
    description: str = ""


def hilbert_triple(t: PermutationTriple) -> HilbertTriple:
    row: HilbertRow | None = HILBERT.get(t.key)
    if row is None:
        raise UnsupportedTriple(f"no kernel-form row for {t}")
    return HilbertTriple(l=row.l, j=row.j, h3=row.h,
                         slot=ARG_SLOT[t.sigma], arg=TRANSFORM_ARG[t.sigma])


def eta(k: int, s):
    """eta_k(s) = s^k e^{-s} / (k+1)!; log-domain to keep large k stable."""
    if k < 0:
        raise ValueError("k must be non-negative")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise DomainError("eta requires s >= 0")
    if k == 0:
        out = np.exp(-arr)
    else:
        safe = np.where(arr > 0, arr, 1.0)
        out = np.where(
            arr > 0,
            np.exp(k * np.log(safe) - arr - math.lgamma(k + 2)),
            0.0)
    return float(out) if np.isscalar(s) else out


def eta_profile(k: int, var_slot: int = 1) -> ProfileFunction:
    """eta_k applied to the slot holding the integration variable."""
    if var_slot == 1:
        return ProfileFunction(lambda a, s: eta(k, s), f"eta_{k}")
    return ProfileFunction(lambda s, a: eta(k, s), f"eta_{k}(slot 0)")


def _placed(phi: ProfileFunction, arg, slot: int):
    if slot == 0:
        return lambda s: phi.eval(arg, s)
    return lambda s: phi.eval(s, arg)


def _transform(ht: HilbertTriple, phi: ProfileFunction, xs, ys,
               rule: QuadratureRule):
    """(1/h3) int_0^inf e^(-s h3) phi(arg, s) dm(s) at the points xs, ys
    (arrays or floats), one batched dm-integral; arg is the sigma-row
    scalar and the slot order is the one of the printed table."""
    h3 = np.asarray(ht.h3(xs, ys), dtype=float)[..., None]
    psi = _placed(phi, np.asarray(ht.arg(xs, ys), dtype=float)[..., None], ht.slot)
    return integrate_dm(lambda s: np.exp(-s * h3) * psi(s), rule) / h3[..., 0]


def transform_hat(t: PermutationTriple, phi: ProfileFunction, p: TrianglePoint,
                  rule: QuadratureRule = INNER_RULE) -> float:
    """The transform at one point p: the one-point face of _transform."""
    return float(_transform(hilbert_triple(t), phi, p.x, p.y, rule))


def _capital_E_rows(t: PermutationTriple, K: int, p: TrianglePoint,
                    rule: QuadratureRule) -> np.ndarray:
    """E_k(p) = j(p) int_0^inf e^{-t(l(p)-1)} L_k^(1)(t) dm(t) for
    k = 0..K, one batched dm-integral."""
    ht = hilbert_triple(t)
    decay = ht.l(p.x, p.y) - 1.0
    val = integrate_dm(lambda tt: np.exp(-tt * decay) * _laguerre1_rows(K, tt), rule)
    return ht.j(p.x, p.y) * val


def capital_E(t: PermutationTriple, k: int, p: TrianglePoint,
              rule: QuadratureRule = INNER_RULE) -> float:
    """E_k(p), the last of _capital_E_rows."""
    return float(_capital_E_rows(t, k, p, rule)[k])


def _bessel_kernel(z: np.ndarray) -> np.ndarray:
    """J_1(2 sqrt(z)) / sqrt(z), with the removable limit 1 at z = 0."""
    near0 = ~(z > 1e-10)
    root = np.sqrt(np.where(near0, 1.0, z))
    out = bessel_j1(2.0 * root)
    out /= root
    if near0.any():
        zs = z[near0]
        out[near0] = 1.0 - zs / 2.0 + zs * zs / 12.0
    return out


def kernel_apply(phi: ProfileFunction, x_arg: float, tpoint,
                 rule: QuadratureRule = INNER_RULE, slot: int = 0):
    """K(phi)(x, t) = (t/(e^t - 1)) int_0^inf J_1(2 sqrt(st))/sqrt(st)
    phi(x, s) dm(s); accepts scalar or array tpoint."""
    scalar = np.isscalar(tpoint)
    tarr = np.atleast_1d(np.asarray(tpoint, dtype=float))
    if np.any(tarr < 0):
        raise DomainError("kernel_apply requires t >= 0")
    psi = _placed(phi, x_arg, slot)

    def integrand(s: np.ndarray) -> np.ndarray:
        # the (t x s) kernel, weighted by the profile in place
        kern = _bessel_kernel(tarr[..., None] * s)
        kern *= psi(s)
        return kern

    inner = integrate_dm(integrand, rule)
    front = np.where(tarr > 0, tarr / np.expm1(np.where(tarr > 0, tarr, 1.0)), 1.0)
    out = front * inner
    return float(out[0]) if scalar else out.reshape(np.shape(tpoint))


def theorem31_lhs(t: PermutationTriple, phi: ProfileFunction, p: TrianglePoint,
                  inner_rule: QuadratureRule = INNER_RULE) -> float:
    """The branch-sum side of the kernel identity at p: the transfer
    operator applied to the transformed profile."""
    ht = hilbert_triple(t)
    return apply_transfer(t, lambda xs, ys: _transform(ht, phi, xs, ys, inner_rule),
                          p, TruncationPolicy(eps=1e-7))[0]


def theorem31_check(t: PermutationTriple, phi: ProfileFunction,
                    p: TrianglePoint,
                    inner_rule: QuadratureRule = INNER_RULE,
                    outer_rule: QuadratureRule = OUTER_RULE
                    ) -> tuple[float, float]:
    """Both sides of the kernel identity at p: lhs is the branch sum of
    the transformed profile, rhs the j-weighted outer integral of the
    kernel image.  The transform argument is constant along the branch
    family, so the kernel side reuses the value at the k = 0 branch."""
    ht = hilbert_triple(t)
    lhs = theorem31_lhs(t, phi, p, inner_rule)

    c = ht.arg(*branch_point(t, 0, p).xy)
    decay = ht.l(p.x, p.y) - 1.0
    outer = integrate_halfline(
        lambda tau: np.exp(-tau * decay)
        * kernel_apply(phi, c, tau, inner_rule, ht.slot),
        decay, outer_rule)
    rhs = ht.j(p.x, p.y) * outer
    return lhs, rhs


def laguerre_expansion_partial(t: PermutationTriple, phi: ProfileFunction,
                               p: TrianglePoint, K: int,
                               rule: QuadratureRule = INNER_RULE) -> float:
    """sum_{k<=K} <phi, eta_k>_dm E_k(p), the series form of the kernel
    image; the profile is pinned to the branch-family transform argument
    exactly as in theorem31_check."""
    if K < 0:
        raise ValueError("K must be non-negative")
    ht = hilbert_triple(t)
    c = ht.arg(*branch_point(t, 0, p).xy)
    psi = _placed(phi, c, ht.slot)
    ips = integrate_dm(
        lambda s: psi(s) * np.stack([eta(k, s) for k in range(K + 1)]), rule)
    return float(np.sum(ips * _capital_E_rows(t, K, p, rule)))
