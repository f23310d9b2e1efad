"""Bessel-kernel form of the transfer operator on the dm half-line space.

For 44 triples the branch sum acting on transformed test functions equals
an integral operator with kernel J_1(2 sqrt(st))/sqrt(st) against
dm(t) = t dt/(e^t - 1).  This module evaluates both sides numerically:
the left side is apply_transfer of the sigma-indexed transform of a
profile phi, the right side is j(p) int_0^inf e^{-t(l(p)-1)} K(phi)(t) dt.
The front factor t/(e^t - 1) of K(phi) turns that outer dt into dm(t), so
the outer integral runs on the same rate-1 nodes as every dm-integral.
The kernel on those nodes then depends on neither the triple, the point
nor the profile: it is one matrix on the one node set of specfun's dm
rule, built on first use and cached, and the right side of a check is two
einsums against it.  Its inner integrals are gated by specfun.DM_TOL and
its outer integral by OUTER_TOL.  The Laguerre expansion over eta_k / E_k
gives a third, series-form route to the same value.  Every other
dm-integral here goes through specfun.integrate_dm, batched: the
transforms at all branch points of a block and the eta_k and E_k for all
k <= K each take one call.

Profiles: a profile is a family phi(c, s) of functions of the
integration variable s, indexed by the transform argument c, for every
sigma class; it is evaluated on numpy arrays that broadcast against each
other.  The printed transform rows of the classes 13 and 132 put the
variable first (tables.hilbert_rows.ARG_SLOT); a profile phi_printed
written in that order is passed as lambda c, s: phi_printed(s, c).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import PermutationTriple, TrianglePoint
from .errors import DomainError, NonConvergent, UnsupportedTriple
from .specfun import (
    DM_TOL,
    _eval_vec,
    _laguerre1_rows,
    bessel_j1,
    gated,
    halfline_nodes,
    integrate_dm,
)
from .tables.hilbert_rows import HILBERT, HilbertRow
from .transfer import TruncationPolicy, apply_transfer, branch_point

# the gate of the outer dm-integral of the kernel side
OUTER_TOL = 1e-7


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
    with eta_0 = e^{-s} and eta_k(0) = 0 for k > 0."""
    k = np.array(ks, dtype=float).reshape((-1,) + (1,) * s.ndim)
    lgam = np.array([math.lgamma(i + 2) for i in ks]).reshape(k.shape)
    pos = s > 0
    klog = np.where(k == 0, 0.0, k * np.log(np.where(pos, s, 1.0)))
    return np.where(pos | (k == 0), np.exp(klog - s - lgam), 0.0)


def eta(k: int, s):
    """eta_k(s) = s^k e^{-s} / (k+1)!, one row of _eta_rows."""
    if k < 0:
        raise ValueError("k must be non-negative")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
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

    return integrate_dm(integrand) / h[..., 0]


def transform_hat(t: PermutationTriple, phi: Profile, p: TrianglePoint) -> float:
    """The transform at one point p: the one-point face of _transform."""
    return float(_transform(hilbert_triple(t), phi, p.x, p.y))


def _capital_E_rows(t: PermutationTriple, K: int, p: TrianglePoint) -> np.ndarray:
    """E_k(p) = j(p) int_0^inf e^{-t(l(p)-1)} L_k^(1)(t) dm(t) for
    k = 0..K, one batched dm-integral."""
    row = hilbert_triple(t)
    decay = row.l(p.x, p.y) - 1.0
    val = integrate_dm(lambda tt: np.exp(-tt * decay) * _laguerre1_rows(K, tt))
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


def kernel_apply(phi: Profile, c: float, tpoint):
    """K(phi)(c, t) = (t/(e^t - 1)) int_0^inf J_1(2 sqrt(st))/sqrt(st)
    phi(c, s) dm(s); accepts scalar or array tpoint.  The one-profile face
    of the kernel: theorem31_rhs applies the shared kernel matrix instead."""
    scalar = np.isscalar(tpoint)
    tarr = np.atleast_1d(np.asarray(tpoint, dtype=float))
    if np.any(tarr < 0):
        raise DomainError("kernel_apply requires t >= 0")

    def integrand(s: np.ndarray) -> np.ndarray:
        # the (t x s) kernel, weighted by the profile in place
        kern = _bessel_kernel(tarr[..., None] * s)
        kern *= phi(c, s)
        return kern

    inner = integrate_dm(integrand)
    front = np.where(tarr > 0, tarr / np.expm1(np.where(tarr > 0, tarr, 1.0)), 1.0)
    out = front * inner
    return float(out[0]) if scalar else out.reshape(np.shape(tpoint))


def theorem31_lhs(t: PermutationTriple, phi: Profile, p: TrianglePoint) -> float:
    """The branch-sum side of the kernel identity at p: the transfer
    operator applied to the transformed profile."""
    row = hilbert_triple(t)
    return apply_transfer(t, lambda xs, ys: _transform(row, phi, xs, ys),
                          p, TruncationPolicy(eps=1e-7))[0]


@dataclass(frozen=True)
class _KernelMatrix:
    """The Bessel kernel on the nodes s of the dm rule, the coarse set
    followed by the fine one, as both the outer (rows) and the inner
    (columns) nodes; entry (i, j) is J_1(2 sqrt(s_i s_j))/sqrt(s_i s_j)
    times the dm-weight w_j of s_j."""
    s: np.ndarray
    w: np.ndarray
    coarse: int             # the first coarse nodes are the coarse set
    mat: np.ndarray


# rows of the kernel matrix per _bessel_kernel call: the temporaries of a
# block stay near a megabyte instead of the matrix's 24 MB
_KERNEL_ROWS = 64
# the decays l(p) - 1 on which the rate-1 outer nodes are shown to hold
# (tests/test_hilbert.py): on the dm rule's nodes the rhs matches the
# closed-form route to 3e-14 up to 80, the outer gate fails from about
# 90, and from about 1e3 the outer integral shrinks under the gate while
# its error grows; so decays beyond 80 are refused
DECAY_MAX = 80.0


@functools.cache
def _kernel_matrix() -> _KernelMatrix:
    """The shared kernel matrix, built on first use."""
    sets = halfline_nodes()
    s, w = (np.concatenate(a) for a in zip(*sets))
    mat = np.empty((s.size, s.size))
    for i in range(0, s.size, _KERNEL_ROWS):
        block = mat[i:i + _KERNEL_ROWS]
        block[...] = _bessel_kernel(s[i:i + _KERNEL_ROWS, None] * s)
        block *= w
    for arr in (s, w, mat):
        arr.flags.writeable = False
    return _KernelMatrix(s, w, sets[0][0].size, mat)


def theorem31_rhs(t: PermutationTriple, phi: Profile, p: TrianglePoint) -> float:
    """The kernel side of the identity at p:
    j(p) int_0^inf e^{-tau (l(p)-1)} int_0^inf K(tau, s) phi(c, s) dm(s) dm(tau),
    where the outer dm is the dt of the identity times the front factor
    tau/(e^tau - 1) of kernel_apply, and c is the transform argument at the
    k = 0 branch (it is constant along the branch family).  The inner
    integrals at every outer node are gated by DM_TOL, the outer integral
    by OUTER_TOL, each fine set against coarse."""
    row = hilbert_triple(t)
    c = row.arg(*branch_point(t, 0, p).xy)
    decay = row.l(p.x, p.y) - 1.0
    if not 0.0 < decay <= DECAY_MAX:
        raise NonConvergent(f"decay l(p) - 1 = {decay} at {p} is outside (0, {DECAY_MAX}], "
                            "the range the shared kernel nodes resolve")
    km = _kernel_matrix()
    psi = _eval_vec(lambda s: phi(c, s), km.s)
    # einsum, not BLAS: a threaded product raises CPU time for no gain
    n = km.coarse
    inner = gated(np.einsum("ij,j->i", km.mat[:, :n], psi[:n]),
                  np.einsum("ij,j->i", km.mat[:, n:], psi[n:]),
                  DM_TOL, "Bessel-kernel inner quadrature")
    terms = np.exp(-km.s * decay) * km.w * inner
    outer = gated(terms[:n].sum(), terms[n:].sum(),
                  OUTER_TOL, "Bessel-kernel outer quadrature")
    return row.j(p.x, p.y) * float(outer)


def theorem31_check(t: PermutationTriple, phi: Profile,
                    p: TrianglePoint) -> tuple[float, float]:
    """Both sides of the kernel identity at p: lhs is the branch sum of
    the transformed profile (theorem31_lhs), rhs the j-weighted outer
    dm-integral of the kernel image on the shared kernel matrix
    (theorem31_rhs)."""
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
