"""The TRIP construction (Dasaratha, Flapan, Garrity et al., Int. J. Number
Theory 10 (2014)), read by maps and gausskuzmin: each label is a
permutation matrix, row i with its 1 in column c[i]; A0 and A1 split the
triangle with vertices V, the columns (x, y, 1) of (0, 0), (1, 0), (1, 1)."""

import numpy as np

_PERMUTATIONS = {label: np.eye(3, dtype=np.int64)[list(c)] for label, c in (
    ("e", (0, 1, 2)), ("12", (1, 0, 2)), ("13", (2, 1, 0)), ("23", (0, 2, 1)),
    ("123", (1, 2, 0)), ("132", (2, 0, 1)))}
_A0 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 1]])
_A1 = np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
_V = np.array([[0, 1, 1], [0, 0, 1], [1, 1, 1]])


def _adjugate(m):
    """adj(m) of an integer 3x3 matrix: m @ adj(m) = det(m) I."""
    return np.cross(m[[1, 2, 0]], m[[2, 0, 1]]).T


def _trip(key):
    """The integer matrices F0 = sigma A0 tau0 and F1 = sigma A1 tau1 of
    the labels of key: branch k of the map is V F1^k F0 V^-1 on (x, y, 1)."""
    sigma, tau0, tau1 = (_PERMUTATIONS[label] for label in key)
    return sigma @ _A0 @ tau0, sigma @ _A1 @ tau1
