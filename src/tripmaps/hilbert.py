"""Bessel-kernel form of the transfer operator on the dm half-line space.

For 44 triples the branch sum acting on transformed test functions equals
an integral operator with kernel J_1(2 sqrt(st))/sqrt(st) against
dm(t) = t dt/(e^t - 1).  This module evaluates both sides numerically:
the left side is apply_transfer of the sigma-indexed transform of a
profile phi, the right side is j(p) int_0^inf e^{-t(l(p)-1)} K(phi)(t) dt.
The front factor t/(e^t - 1) of K(phi) turns that outer dt into dm(t).

Every dm-integral runs on specfun's one Gauss-Laguerre rule (48 coarse and
64 fine nodes), scaled by 1 + r where r is the rate of the integrand's
known exponential: r = h at each point of the transform, r = l(p) - 1 for
the E_k rows and for the outer integral of the right side.  The inner
integral K(phi) has one route, a kernel block that serves both the right
side and kernel_apply: the kernel J_1(2 sqrt(st))/sqrt(st) from the points
tau to the rate-0 node row s, coarse and fine nodes at once, with the
profile evaluated once on that row; the coarse and fine inner integrals
are gated by specfun.DM_TOL.  The right side takes the block per point on
its outer nodes, and gates the outer integral by OUTER_TOL.  On these
nodes the inner integral is resolved only up to tau = TAU_MAX = 50, so
outer nodes beyond it are left out, and the bound ||phi||_{L^1(dm)}
int_50^inf e^{-tau (l(p)-1)} dm(tau) on what they carry
(|J_1(2 sqrt z)/sqrt z| <= 1) is added to the outer gap before its gate.
No decay is refused.  The Laguerre expansion over eta_k / E_k gives a
third, series-form route to the same value.  The transforms at all branch
points of a block and the eta_k and E_k for all k <= K each take one
batched specfun.integrate_dm call.

Profiles: a profile is a family phi(c, s) of functions of the
integration variable s, indexed by the transform argument c, for every
sigma class; it is evaluated on numpy arrays that broadcast against each
other.  The printed transform rows of the classes 13 and 132 put the
variable first (tables.hilbert_rows.ARG_SLOT); a profile phi_printed
written in that order is passed as lambda c, s: phi_printed(s, c).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import DomainError, UnsupportedTriple
from .specfun import (
    _eval_vec,
    _laguerre1_rows,
    bessel_j1,
    gated,
    gated_halves,
    halfline_nodes,
    integrate_dm,
)
from .tables.hilbert_rows import HILBERT, HilbertRow
from .transfer import TruncationPolicy, apply_transfer, branch_point

# the gate of the outer dm-integral of the kernel side
OUTER_TOL = 1e-7
# the outer nodes of the kernel side reach tau = 360/(1 + decay), but the
# inner Bessel integral on the rate-0 nodes is resolved only up to about
# here: for eta_0 its gap is 6e-12 at tau = 50, 1e-9 at 80, 3e-2 at 200
TAU_MAX = 50.0


# a profile phi(c, s): the transform argument c, then the integration variable s
Profile = Callable[[float, float], float]


def hilbert_triple(t: PermutationTriple) -> HilbertRow:
    """The kernel-form row of t; raises UnsupportedTriple where there is
    none."""
    row = HILBERT.get(t.key)
    if row is None:
        raise UnsupportedTriple(f"no kernel-form row for {t}")
    return row


def _eta_rows(ks, s: np.ndarray) -> np.ndarray:
    """eta_k(s) for each k of the sequence ks, row i of a (len(ks),) +
    s.shape array, in one pass in the log domain: k ln s - s - ln (k+1)!,
    with eta_0 = e^{-s}, eta_k(0) = 0 for k > 0 and eta_k(inf) = 0."""
    k = np.array(ks, dtype=float).reshape((-1,) + (1,) * s.ndim)
    lgam = np.array([math.lgamma(i + 2) for i in ks]).reshape(k.shape)
    pos = (s > 0) & (s < np.inf)
    klog = np.where(k == 0, 0.0, k * np.log(np.where(pos, s, 1.0)))
    return np.where(pos | (k == 0), np.exp(klog - s - lgam), 0.0)


def eta(k: int, s):
    """eta_k(s) = s^k e^{-s} / (k+1)!, one row of _eta_rows."""
    if k < 0:
        raise ValueError("k must be non-negative")
    arr = np.asarray(s, dtype=float)
    # written so that nan fails it
    if not np.all(arr >= 0):
        raise DomainError("eta requires s >= 0")
    out = _eta_rows([k], arr)[0]
    return float(out) if np.isscalar(s) else out


def eta_profile(k: int) -> Profile:
    """The profile eta_k(s), the same for every transform argument c."""
    return lambda c, s: eta(k, s)


def _transform(row: HilbertRow, phi: Profile, xs, ys):
    """(1/h) int_0^inf e^(-s h) phi(c, s) dm(s) at the points xs, ys
    (arrays or floats), one batched dm-integral; c is the sigma-row
    transform argument."""
    h = np.asarray(row.h(xs, ys), dtype=float)[..., None]
    c = np.asarray(row.arg(xs, ys), dtype=float)[..., None]

    def integrand(s: np.ndarray) -> np.ndarray:
        # one (points x nodes) temporary, exponentiated and weighted in
        # place: arrays this large are mapped afresh on every allocation
        out = np.multiply(-s, h)
        np.exp(out, out=out)
        out *= phi(c, s)
        return out

    return integrate_dm(integrand, rate=h[..., 0]) / h[..., 0]


def transform_hat(t: PermutationTriple, phi: Profile, p: TrianglePoint) -> float:
    """The transform at one point p: the one-point face of _transform."""
    return float(_transform(hilbert_triple(t), phi, p.x, p.y))


def _capital_E_rows(t: PermutationTriple, K: int, p: TrianglePoint) -> np.ndarray:
    """E_k(p) = j(p) int_0^inf e^{-t(l(p)-1)} L_k^(1)(t) dm(t) for
    k = 0..K, one batched dm-integral at rate l(p) - 1."""
    row = hilbert_triple(t)
    decay = row.l(p.x, p.y) - 1.0
    val = integrate_dm(lambda tt: np.exp(-tt * decay) * _laguerre1_rows(K, tt), rate=decay)
    return row.j(p.x, p.y) * val


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


def _kernel_image(phi: Profile, c: float, tau: np.ndarray) -> tuple[np.ndarray, float]:
    """The inner integrals int_0^inf J_1(2 sqrt(tau s))/sqrt(tau s)
    phi(c, s) dm(s) at every tau (an array of any shape), on the rate-0
    node row with the profile evaluated once on it and gated by DM_TOL,
    and ||phi(c, .)||_{L^1(dm)} on the fine set."""
    s, w, n = halfline_nodes()
    psi = _eval_vec(lambda s: phi(c, s), s) * w
    inner = gated_halves(_bessel_kernel(tau[..., None] * s), psi, n,
                         "Bessel-kernel inner quadrature")
    return inner, float(np.abs(psi[n:]).sum())


def kernel_apply(phi: Profile, c: float, tpoint):
    """K(phi)(c, t) = (t/(e^t - 1)) int_0^inf J_1(2 sqrt(st))/sqrt(st)
    phi(c, s) dm(s); accepts scalar or array tpoint.  The inner integral
    is the kernel block of _kernel_image, the one theorem31_rhs takes on
    its outer nodes: it runs on the rate-0 dm nodes, so its gate holds up
    to t of about TAU_MAX = 50 and fails (NonConvergent) far beyond it."""
    scalar = np.isscalar(tpoint)
    tarr = np.atleast_1d(np.asarray(tpoint, dtype=float))
    # written so that nan fails it
    if not np.all(tarr >= 0):
        raise DomainError("kernel_apply requires t >= 0")
    inner, _ = _kernel_image(phi, c, tarr)
    front = np.where(tarr > 0, tarr / np.expm1(np.where(tarr > 0, tarr, 1.0)), 1.0)
    out = front * inner
    return float(out[0]) if scalar else out.reshape(np.shape(tpoint))


def theorem31_lhs(t: PermutationTriple, phi: Profile, p: TrianglePoint) -> float:
    """The branch-sum side of the kernel identity at p: the transfer
    operator applied to the transformed profile."""
    row = hilbert_triple(t)
    return apply_transfer(t, lambda xs, ys: _transform(row, phi, xs, ys),
                          p, TruncationPolicy(eps=1e-7))[0]


def _dm_tail(decay: float) -> float:
    """An upper bound of int_TAU_MAX^inf e^{-tau decay} dm(tau): there
    tau/(e^tau - 1) <= tau e^{-tau}/(1 - e^{-TAU_MAX}), and
    int_T^inf tau e^{-a tau} dtau = e^{-a T} (T/a + 1/a^2)."""
    a = 1.0 + decay
    return (math.exp(-a * TAU_MAX) * (TAU_MAX / a + 1.0 / (a * a))
            / -math.expm1(-TAU_MAX))


def theorem31_rhs(t: PermutationTriple, phi: Profile, p: TrianglePoint) -> float:
    """The kernel side of the identity at p:
    j(p) int_0^inf e^{-tau (l(p)-1)} int_0^inf K(tau, s) phi(c, s) dm(s) dm(tau),
    where the outer dm is the dt of the identity times the front factor
    tau/(e^tau - 1) of kernel_apply, and c is the transform argument at the
    k = 0 branch (it is constant along the branch family).  The inner
    integrals run on the rate-0 nodes and are gated by DM_TOL at every
    outer node; the outer integral runs on nodes at rate l(p) - 1 up to
    TAU_MAX and is gated by OUTER_TOL, its gap raised by the bound of
    _dm_tail times ||phi||_{L^1(dm)} on the nodes left out."""
    row = hilbert_triple(t)
    c = row.arg(*branch_point(t, 0, p).xy)
    decay = row.l(p.x, p.y) - 1.0
    taus, outer_w, n = halfline_nodes(decay)
    kept = taus <= TAU_MAX
    n = int(np.count_nonzero(kept[:n]))
    taus, outer_w = taus[kept], outer_w[kept]
    inner, l1 = _kernel_image(phi, c, taus)
    terms = np.exp(-taus * decay) * outer_w * inner
    outer = gated(terms[:n].sum(), terms[n:].sum(), OUTER_TOL,
                  "Bessel-kernel outer quadrature", tail=l1 * _dm_tail(decay))
    return row.j(p.x, p.y) * float(outer)


def theorem31_check(t: PermutationTriple, phi: Profile,
                    p: TrianglePoint) -> tuple[float, float]:
    """Both sides of the kernel identity at p: lhs is the branch sum of
    the transformed profile (theorem31_lhs), rhs the j-weighted outer
    dm-integral of the kernel image (theorem31_rhs)."""
    return theorem31_lhs(t, phi, p), theorem31_rhs(t, phi, p)


def laguerre_expansion_partial(t: PermutationTriple, phi: Profile,
                               p: TrianglePoint, K: int) -> float:
    """sum_{k<=K} <phi, eta_k>_dm E_k(p), the series form of the kernel
    image; the profile is pinned to the branch-family transform argument
    exactly as in theorem31_rhs."""
    if K < 0:
        raise ValueError("K must be non-negative")
    row = hilbert_triple(t)
    c = row.arg(*branch_point(t, 0, p).xy)
    ips = integrate_dm(lambda s: phi(c, s) * _eta_rows(range(K + 1), s))
    return float(np.sum(ips * _capital_E_rows(t, K, p)))
