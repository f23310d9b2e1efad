"""Data for the Bessel-kernel form of 44 transfer operators.

Each row stores the coordinate functions ``l``, ``j``, ``h`` on the triangle
that recast the branch sum as an integral against the kernel
``J_1(2 sqrt(st)) / sqrt(st)`` over the measure ``t dt / (e^t - 1)``.

``TRANSFORM_ARG`` gives, per first permutation, the scalar carried into the
test function by the associated transform.  ``ARG_SLOT`` records which slot
it occupies in the printed rows; the library itself takes every profile as
phi(c, s), the transform argument first (see tripmaps.hilbert).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Func2 = Callable[[float, float], float]


@dataclass(frozen=True)
class HilbertRow:
    l: Func2
    j: Func2
    h: Func2


_L: dict[str, Func2] = {
    "a": lambda x, y: (y + 1) / x,
    "b": lambda x, y: (y + 1) / (-x + y + 1),
    "c": lambda x, y: (x - 2) / (y - 1),
    "d": lambda x, y: (x - y + 1) / x,
    "e": lambda x, y: (x - 2) / (x - y - 1),
    "f": lambda x, y: 1 - x / (y - 1),
}

_J: dict[str, Func2] = {
    "x": lambda x, y: 1 / x ** 3,
    "u": lambda x, y: 1 / (-x + y + 1) ** 3,
    "w": lambda x, y: 1 / (1 - y) ** 3,
}

_H: dict[str, Func2] = {
    "y": lambda x, y: y,
    "1-x": lambda x, y: 1 - x,
    "x-y": lambda x, y: x - y,
}

# (l key, j key, h key) per triple, straight from the 44-row table
_KEYS: dict[tuple[str, str, str], tuple[str, str, str]] = {
    ("e", "e", "e"): ("a", "x", "y"),
    ("e", "e", "12"): ("a", "x", "y"),
    ("e", "12", "e"): ("b", "u", "y"),
    ("e", "13", "e"): ("c", "w", "y"),
    ("e", "23", "e"): ("d", "x", "y"),
    ("e", "23", "12"): ("d", "x", "y"),
    ("e", "123", "e"): ("e", "u", "y"),
    ("e", "132", "e"): ("f", "w", "y"),
    ("12", "e", "e"): ("a", "x", "y"),
    ("12", "e", "12"): ("a", "x", "y"),
    ("12", "12", "12"): ("b", "u", "y"),
    ("12", "13", "12"): ("c", "w", "y"),
    ("12", "23", "e"): ("d", "x", "y"),
    ("12", "23", "12"): ("d", "x", "y"),
    ("12", "123", "12"): ("e", "u", "y"),
    ("12", "132", "12"): ("f", "w", "y"),
    ("13", "e", "13"): ("a", "x", "1-x"),
    ("13", "e", "123"): ("a", "x", "1-x"),
    ("13", "12", "13"): ("b", "u", "1-x"),
    ("13", "13", "13"): ("c", "w", "1-x"),
    ("13", "23", "13"): ("d", "x", "1-x"),
    ("13", "23", "123"): ("d", "x", "1-x"),
    ("13", "123", "13"): ("e", "u", "1-x"),
    ("13", "132", "13"): ("f", "w", "1-x"),
    ("23", "e", "23"): ("a", "x", "x-y"),
    ("23", "12", "23"): ("b", "u", "x-y"),
    ("23", "13", "23"): ("c", "w", "x-y"),
    ("23", "23", "23"): ("d", "x", "x-y"),
    ("23", "123", "23"): ("e", "u", "x-y"),
    ("23", "132", "23"): ("f", "w", "x-y"),
    ("123", "e", "132"): ("a", "x", "x-y"),
    ("123", "12", "132"): ("b", "u", "x-y"),
    ("123", "13", "132"): ("c", "w", "x-y"),
    ("123", "23", "132"): ("d", "x", "x-y"),
    ("123", "123", "132"): ("e", "u", "x-y"),
    ("123", "132", "132"): ("f", "w", "x-y"),
    ("132", "e", "13"): ("a", "x", "1-x"),
    ("132", "e", "123"): ("a", "x", "1-x"),
    ("132", "12", "123"): ("b", "u", "1-x"),
    ("132", "13", "123"): ("c", "w", "1-x"),
    ("132", "23", "13"): ("d", "x", "1-x"),
    ("132", "23", "123"): ("d", "x", "1-x"),
    ("132", "123", "123"): ("e", "u", "1-x"),
    ("132", "132", "123"): ("f", "w", "1-x"),
}

HILBERT: dict[tuple[str, str, str], HilbertRow] = {
    triple: HilbertRow(l=_L[lk], j=_J[jk], h=_H[hk])
    for triple, (lk, jk, hk) in _KEYS.items()
}

# scalar argument of the transformed test function, by first permutation
TRANSFORM_ARG: dict[str, Func2] = {
    "e": lambda x, y: y / x,
    "12": lambda x, y: (x - 1) / y,
    "13": lambda x, y: (1 - x) / (1 - y),
    "23": lambda x, y: y / x,
    "123": lambda x, y: (1 - y) / (x - y),
    "132": lambda x, y: y / (1 - x),
}

# slot of the non-integration argument: 0 puts it first, 1 second
ARG_SLOT: dict[str, int] = {
    "e": 0, "12": 0, "13": 1, "23": 0, "123": 0, "132": 1,
}
