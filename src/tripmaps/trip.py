"""The TRIP construction (Dasaratha, Flapan, Garrity et al., Int. J. Number
Theory 10 (2014)): each label is a permutation matrix, row i with its 1 in
column c[i]; A0 and A1 split the triangle with vertices V, the columns
(x, y, 1) of (0, 0), (1, 0), (1, 1).  Only here are a row's parity
classes read off its forward flag (_parities) and its branches built into
one integer pencil per class (pencils): transfer sums its tails, maps
solves digits and gausskuzmin finds its laws over them."""

import numpy as np

from .tables.forward import FORWARD

_PERMUTATIONS = {label: np.eye(3, dtype=np.int64)[list(c)] for label, c in (
    ("e", (0, 1, 2)), ("12", (1, 0, 2)), ("13", (2, 1, 0)), ("23", (0, 2, 1)),
    ("123", (1, 2, 0)), ("132", (2, 0, 1)))}
_A0 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 1]])
_A1 = np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
_V = np.array([[0, 1, 1], [0, 0, 1], [1, 1, 1]])
# the one class of a parity-free row: every k, with s = 1
_ALL_K = ((0, 1, 1.0),)
# s of even and odd k
_SIGNS = np.array([1.0, -1.0])


def _adjugate(m):
    """adj(m) of an integer 3x3 matrix: m @ adj(m) = det(m) I."""
    return np.cross(m[[1, 2, 0]], m[[2, 0, 1]]).T


def _trip(key):
    """The integer matrices F0 = sigma A0 tau0 and F1 = sigma A1 tau1 of
    the labels of key."""
    sigma, tau0, tau1 = (_PERMUTATIONS[label] for label in key)
    return sigma @ _A0 @ tau0, sigma @ _A1 @ tau1


def parity_sign(k):
    """s = (-1)**k of an integer k, elementwise on an integer array: the
    one place s is computed from k.  A scalar k gives a numpy scalar."""
    return _SIGNS[k & 1]


def _parities(key) -> tuple[tuple[int, int, float], ...]:
    """(first k, step, sign s) of each parity class of a row: the terms
    k = first + step*m, m >= 0, on which s = (-1)**k is constant."""
    return ((0, 2, 1.0), (1, 2, -1.0)) if FORWARD[key].parity else _ALL_K


def pencils(key):
    """Yields the integer branch pencil (M0, M1) of each class (first,
    step, s) of _parities(key): branch first + step*j is M0 + j M1 =
    V (I + j E) F1^first F0 adj(V) on (x, y, 1), as F1^(step j) = I + j E
    for E = F1^step - I, E^2 = 0 (det V = 1)."""
    f0, f1 = _trip(key)
    for first, step, _ in _parities(key):
        e = np.linalg.matrix_power(f1, step) - np.eye(3, dtype=np.int64)
        ahead = np.linalg.matrix_power(f1, first) @ f0 @ _adjugate(_V)
        yield _V @ ahead, _V @ e @ ahead
