"""Forward branch formulas for the 108 polynomial-behavior triangle partition maps.

Each entry maps a triple label to a function ``f(k, x, y, s) -> (x', y')``
giving the image of ``(x, y)`` under the digit-``k`` branch.  ``s`` must be
``(-1)**k``; it is threaded explicitly so callers can evaluate a fixed parity
class at non-integer ``k`` (used by tail acceleration and closed-form digit
extraction).  Rows whose formulas never reference ``s`` are flagged
``parity=False``; for those rows both components are affine in ``k``.
This flag is the only statement of a row's parity: the inverse rows of
:mod:`tripmaps.tables.transfer_rows` read ``s`` exactly when it is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ForwardRow:
    parity: bool
    f: Callable[[float, float, float, float], tuple[float, float]]


def _rows() -> dict[tuple[str, str, str], ForwardRow]:
    R = ForwardRow
    return {
        # --- sigma = e ---
        ("e", "e", "e"): R(False, lambda k, x, y, s: (y / x, -(x + k * y - 1) / x)),
        ("e", "e", "12"): R(True, lambda k, x, y, s: (
            4 * y / (s * (4 * x - y - 2) - 2 * k * y + y + 2),
            (4 - 4 * k * y) / (s * (4 * x - y - 2) - 2 * k * y + y + 2) - 1)),
        ("e", "e", "23"): R(True, lambda k, x, y, s: (
            (1 - s) / 2 + s * y / x,
            (-(2 * k + s + 3) * x + 2 * (-1 + s) * y + 4) / (4 * x))),
        ("e", "12", "e"): R(False, lambda k, x, y, s: (
            (1 - (k + 1) * y) / x, -(x + k * y - 1) / x)),
        ("e", "12", "12"): R(True, lambda k, x, y, s: (
            -4 * (k * y + y - 1) / (s * (4 * x - y - 2) - 2 * k * y + y + 2),
            (4 - 4 * k * y) / (s * (4 * x - y - 2) - 2 * k * y + y + 2) - 1)),
        ("e", "12", "23"): R(True, lambda k, x, y, s: (
            -(2 * k * x + x - s * (x - 2 * y) + 2 * y - 4) / (4 * x),
            (-(2 * k + s + 3) * x + 2 * (-1 + s) * y + 4) / (4 * x))),
        ("e", "13", "e"): R(False, lambda k, x, y, s: (
            (2 * x + k * y - 1) / x, 1 - y / x)),
        ("e", "13", "12"): R(True, lambda k, x, y, s: (
            (4 * k * y - 4) / (s * (4 * x - y - 2) - 2 * k * y + y + 2) + 2,
            1 - 4 * y / (s * (4 * x - y - 2) - 2 * k * y + y + 2))),
        ("e", "13", "23"): R(True, lambda k, x, y, s: (
            (2 * k * x + 7 * x + s * (x - 2 * y) + 2 * y - 4) / (4 * x),
            (x + s * (x - 2 * y)) / (2 * x))),
        ("e", "23", "e"): R(False, lambda k, x, y, s: (
            y / x, (x + k * y + y - 1) / x)),
        ("e", "23", "12"): R(True, lambda k, x, y, s: (
            4 * y / (s * (4 * x - y - 2) - 2 * k * y + y + 2),
            4 * (k * y + y - 1) / (s * (4 * x - y - 2) - 2 * k * y + y + 2) + 1)),
        ("e", "23", "23"): R(True, lambda k, x, y, s: (
            (1 - s) / 2 + s * y / x,
            ((2 * k - s + 5) * x + 2 * (s * y + y - 2)) / (4 * x))),
        ("e", "123", "e"): R(False, lambda k, x, y, s: (
            (2 * x + k * y - 1) / x, (x + k * y + y - 1) / x)),
        ("e", "123", "12"): R(True, lambda k, x, y, s: (
            (4 * k * y - 4) / (s * (4 * x - y - 2) - 2 * k * y + y + 2) + 2,
            4 * (k * y + y - 1) / (s * (4 * x - y - 2) - 2 * k * y + y + 2) + 1)),
        ("e", "123", "23"): R(True, lambda k, x, y, s: (
            (2 * k * x + 7 * x + s * (x - 2 * y) + 2 * y - 4) / (4 * x),
            ((2 * k - s + 5) * x + 2 * (s * y + y - 2)) / (4 * x))),
        ("e", "132", "e"): R(False, lambda k, x, y, s: (
            (1 - (k + 1) * y) / x, 1 - y / x)),
        ("e", "132", "12"): R(True, lambda k, x, y, s: (
            -4 * (k * y + y - 1) / (s * (4 * x - y - 2) - 2 * k * y + y + 2),
            1 - 4 * y / (s * (4 * x - y - 2) - 2 * k * y + y + 2))),
        ("e", "132", "23"): R(True, lambda k, x, y, s: (
            -(2 * k * x + x - s * (x - 2 * y) + 2 * y - 4) / (4 * x),
            (x + s * (x - 2 * y)) / (2 * x))),
        # --- sigma = 12 ---
        ("12", "e", "e"): R(True, lambda k, x, y, s: (
            4 * y / (-s * (4 * x - 3 * y - 2) - 2 * k * y + y + 2),
            (4 * k * y - 4) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2) - 1)),
        ("12", "e", "12"): R(False, lambda k, x, y, s: (
            y / (-x + y + 1), (-x + k * y + y) / (x - y - 1))),
        ("12", "e", "123"): R(True, lambda k, x, y, s: (
            0.5 - s * (x + y - 1) / (2 * (x - y - 1)),
            (-3 * x + 5 * y + 2 * k * (-x + y + 1) - s * (x + y - 1) - 1) / (4 * (x - y - 1)))),
        ("12", "12", "e"): R(True, lambda k, x, y, s: (
            4 * (k * y + y - 1) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2),
            (4 * k * y - 4) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2) - 1)),
        ("12", "12", "12"): R(False, lambda k, x, y, s: (
            (k * y + y - 1) / (x - y - 1), (-x + k * y + y) / (x - y - 1))),
        ("12", "12", "123"): R(True, lambda k, x, y, s: (
            (-x + 3 * y + 2 * k * (-x + y + 1) + s * (x + y - 1) - 3) / (4 * (x - y - 1)),
            (-3 * x + 5 * y + 2 * k * (-x + y + 1) - s * (x + y - 1) - 1) / (4 * (x - y - 1)))),
        ("12", "13", "e"): R(True, lambda k, x, y, s: (
            (4 - 4 * k * y) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2) + 2,
            1 - 4 * y / (-s * (4 * x - 3 * y - 2) - 2 * k * y + y + 2))),
        ("12", "13", "12"): R(False, lambda k, x, y, s: (
            (-2 * x + (k + 2) * y + 1) / (-x + y + 1), (x - 1) / (x - y - 1))),
        ("12", "13", "123"): R(True, lambda k, x, y, s: (
            (7 * x + 2 * k * (x - y - 1) - 9 * y + s * (x + y - 1) - 3) / (4 * (x - y - 1)),
            0.5 * (s * (x + y - 1) / (x - y - 1) + 1))),
        ("12", "23", "e"): R(True, lambda k, x, y, s: (
            4 * y / (-s * (4 * x - 3 * y - 2) - 2 * k * y + y + 2),
            (4 - 4 * (k + 1) * y) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2) + 1)),
        ("12", "23", "12"): R(False, lambda k, x, y, s: (
            y / (-x + y + 1), ((k + 2) * y - x) / (-x + y + 1))),
        ("12", "23", "123"): R(True, lambda k, x, y, s: (
            0.5 - s * (x + y - 1) / (2 * (x - y - 1)),
            (5 * x + 2 * k * (x - y - 1) - 7 * y - s * (x + y - 1) - 1) / (4 * (x - y - 1)))),
        ("12", "123", "e"): R(True, lambda k, x, y, s: (
            (4 - 4 * k * y) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2) + 2,
            (4 - 4 * (k + 1) * y) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2) + 1)),
        ("12", "123", "12"): R(False, lambda k, x, y, s: (
            (-2 * x + (k + 2) * y + 1) / (-x + y + 1), ((k + 2) * y - x) / (-x + y + 1))),
        ("12", "123", "123"): R(True, lambda k, x, y, s: (
            (7 * x + 2 * k * (x - y - 1) - 9 * y + s * (x + y - 1) - 3) / (4 * (x - y - 1)),
            (5 * x + 2 * k * (x - y - 1) - 7 * y - s * (x + y - 1) - 1) / (4 * (x - y - 1)))),
        ("12", "132", "e"): R(True, lambda k, x, y, s: (
            4 * (k * y + y - 1) / (s * (4 * x - 3 * y - 2) + 2 * k * y - y - 2),
            1 - 4 * y / (-s * (4 * x - 3 * y - 2) - 2 * k * y + y + 2))),
        ("12", "132", "12"): R(False, lambda k, x, y, s: (
            (k * y + y - 1) / (x - y - 1), (x - 1) / (x - y - 1))),
        ("12", "132", "123"): R(True, lambda k, x, y, s: (
            (-x + 3 * y + 2 * k * (-x + y + 1) + s * (x + y - 1) - 3) / (4 * (x - y - 1)),
            0.5 * (s * (x + y - 1) / (x - y - 1) + 1))),
        # --- sigma = 13 ---
        ("13", "e", "13"): R(False, lambda k, x, y, s: (
            (x - 1) / (y - 1), (-x * k + k - y) / (y - 1))),
        ("13", "e", "123"): R(True, lambda k, x, y, s: (
            (4 - 4 * x) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3),
            (4 * k * (x - 1) + 4) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3) - 1)),
        ("13", "e", "132"): R(True, lambda k, x, y, s: (
            0.5 - s * (-2 * x + y + 1) / (2 * (y - 1)),
            (-2 * x + s * (2 * x - y - 1) - 2 * k * (y - 1) - 3 * y + 1) / (4 * (y - 1)))),
        ("13", "12", "13"): R(False, lambda k, x, y, s: (
            (k - (k + 1) * x) / (y - 1), (-x * k + k - y) / (y - 1))),
        ("13", "12", "123"): R(True, lambda k, x, y, s: (
            4 * (k * (x - 1) + x) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3),
            (4 * k * (x - 1) + 4) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3) - 1)),
        ("13", "12", "132"): R(True, lambda k, x, y, s: (
            (-2 * (1 + s) * x - 2 * k * (y - 1) + (-1 + s) * (y + 1)) / (4 * (y - 1)),
            (-2 * x + s * (2 * x - y - 1) - 2 * k * (y - 1) - 3 * y + 1) / (4 * (y - 1)))),
        ("13", "13", "13"): R(False, lambda k, x, y, s: (
            (k * (x - 1) + 1) / (y - 1) + 2, (y - x) / (y - 1))),
        ("13", "13", "123"): R(True, lambda k, x, y, s: (
            1 / ((k * (x - 1) + 1) / (-x + s * (x - 4 * y + 1) + 1) + 0.5),
            4 * (x - 1) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3) + 1)),
        ("13", "13", "132"): R(True, lambda k, x, y, s: (
            (-2 * (-1 + s) * x + 2 * k * (y - 1) + 7 * y + s * (y + 1) - 5) / (4 * (y - 1)),
            0.5 * (s * (-2 * x + y + 1) / (y - 1) + 1))),
        ("13", "23", "13"): R(False, lambda k, x, y, s: (
            (x - 1) / (y - 1), ((k + 1) * (x - 1) + y) / (y - 1))),
        ("13", "23", "123"): R(True, lambda k, x, y, s: (
            (4 - 4 * x) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3),
            (4 * k - 4 * (k + 1) * x) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3) + 1)),
        ("13", "23", "132"): R(True, lambda k, x, y, s: (
            0.5 - s * (-2 * x + y + 1) / (2 * (y - 1)),
            (2 * x + s * (2 * x - y - 1) + 2 * k * (y - 1) + 5 * y - 3) / (4 * (y - 1)))),
        ("13", "123", "13"): R(False, lambda k, x, y, s: (
            (k * (x - 1) + 1) / (y - 1) + 2, ((k + 1) * (x - 1) + y) / (y - 1))),
        ("13", "123", "123"): R(True, lambda k, x, y, s: (
            1 / ((k * (x - 1) + 1) / (-x + s * (x - 4 * y + 1) + 1) + 0.5),
            (4 * k - 4 * (k + 1) * x) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3) + 1)),
        ("13", "123", "132"): R(True, lambda k, x, y, s: (
            (-2 * (-1 + s) * x + 2 * k * (y - 1) + 7 * y + s * (y + 1) - 5) / (4 * (y - 1)),
            (2 * x + s * (2 * x - y - 1) + 2 * k * (y - 1) + 5 * y - 3) / (4 * (y - 1)))),
        ("13", "132", "13"): R(False, lambda k, x, y, s: (
            (k - (k + 1) * x) / (y - 1), (y - x) / (y - 1))),
        ("13", "132", "123"): R(True, lambda k, x, y, s: (
            4 * (k * (x - 1) + x) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3),
            4 * (x - 1) / (2 * k * (x - 1) - x + s * (x - 4 * y + 1) + 3) + 1)),
        ("13", "132", "132"): R(True, lambda k, x, y, s: (
            (-2 * (1 + s) * x - 2 * k * (y - 1) + (-1 + s) * (y + 1)) / (4 * (y - 1)),
            0.5 * (s * (-2 * x + y + 1) / (y - 1) + 1))),
        # --- sigma = 23 ---
        ("23", "e", "e"): R(True, lambda k, x, y, s: (
            (x + s * (x - 2 * y)) / (2 * x),
            (-2 * k * x - 5 * x + s * (x - 2 * y) + 2 * y + 4) / (4 * x))),
        ("23", "e", "23"): R(False, lambda k, x, y, s: (
            1 - y / x, (-(k + 1) * x + k * y + 1) / x)),
        ("23", "e", "132"): R(True, lambda k, x, y, s: (
            4 * (x - y) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2),
            (4 * k * (y - x) + 4) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2) - 1)),
        ("23", "12", "e"): R(True, lambda k, x, y, s: (
            (2 * (s * y + y + 2) - (2 * k + s + 3) * x) / (4 * x),
            (-2 * k * x - 5 * x + s * (x - 2 * y) + 2 * y + 4) / (4 * x))),
        ("23", "12", "23"): R(False, lambda k, x, y, s: (
            (-(k + 1) * x + k * y + y + 1) / x, (-(k + 1) * x + k * y + 1) / x)),
        ("23", "12", "132"): R(True, lambda k, x, y, s: (
            4 * (-(k + 1) * x + k * y + y + 1) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2),
            (4 * k * (y - x) + 4) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2) - 1)),
        ("23", "13", "e"): R(True, lambda k, x, y, s: (
            ((2 * k - s + 9) * x + 2 * (-1 + s) * y - 4) / (4 * x),
            (1 - s) / 2 + s * y / x)),
        ("23", "13", "23"): R(False, lambda k, x, y, s: (
            ((k + 2) * x - k * y - 1) / x, y / x)),
        ("23", "13", "132"): R(True, lambda k, x, y, s: (
            1 / ((k * (y - x) + 1) / (x - y + s * (3 * x + y - 2)) + 0.5),
            (4 * y - 4 * x) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2) + 1)),
        ("23", "23", "e"): R(True, lambda k, x, y, s: (
            (x + s * (x - 2 * y)) / (2 * x),
            ((2 * k + s + 7) * x - 2 * (s * y + y + 2)) / (4 * x))),
        ("23", "23", "23"): R(False, lambda k, x, y, s: (
            1 - y / x, ((k + 2) * x - (k + 1) * y - 1) / x)),
        ("23", "23", "132"): R(True, lambda k, x, y, s: (
            4 * (x - y) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2),
            4 * (k * x + x - (k + 1) * y - 1) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2) + 1)),
        ("23", "123", "e"): R(True, lambda k, x, y, s: (
            ((2 * k - s + 9) * x + 2 * (-1 + s) * y - 4) / (4 * x),
            ((2 * k + s + 7) * x - 2 * (s * y + y + 2)) / (4 * x))),
        ("23", "123", "23"): R(False, lambda k, x, y, s: (
            ((k + 2) * x - k * y - 1) / x, ((k + 2) * x - (k + 1) * y - 1) / x)),
        ("23", "123", "132"): R(True, lambda k, x, y, s: (
            1 / ((k * (y - x) + 1) / (x - y + s * (3 * x + y - 2)) + 0.5),
            4 * (k * x + x - (k + 1) * y - 1) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2) + 1)),
        ("23", "132", "e"): R(True, lambda k, x, y, s: (
            (2 * (s * y + y + 2) - (2 * k + s + 3) * x) / (4 * x),
            (1 - s) / 2 + s * y / x)),
        ("23", "132", "23"): R(False, lambda k, x, y, s: (
            (-(k + 1) * x + k * y + y + 1) / x, y / x)),
        ("23", "132", "132"): R(True, lambda k, x, y, s: (
            4 * (-(k + 1) * x + k * y + y + 1) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2),
            (4 * y - 4 * x) / (-2 * k * x + x + 2 * k * y - y + s * (3 * x + y - 2) + 2) + 1)),
        # --- sigma = 123 ---
        ("123", "e", "13"): R(True, lambda k, x, y, s: (
            0.5 * (s * (-2 * x + y + 1) / (y - 1) + 1),
            -(-2 * x + s * (2 * x - y - 1) + 2 * k * (y - 1) + 5 * y + 1) / (4 * (y - 1)))),
        ("123", "e", "23"): R(True, lambda k, x, y, s: (
            (4 * y - 4 * x) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2),
            (4 * k * (x - y) - 4) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2) - 1)),
        ("123", "e", "132"): R(False, lambda k, x, y, s: (
            (y - x) / (y - 1), (k * x - (k + 1) * y) / (y - 1))),
        ("123", "12", "13"): R(True, lambda k, x, y, s: (
            -(-2 * (1 + s) * x + 2 * k * (y - 1) + (3 + s) * (y + 1)) / (4 * (y - 1)),
            -(-2 * x + s * (2 * x - y - 1) + 2 * k * (y - 1) + 5 * y + 1) / (4 * (y - 1)))),
        ("123", "12", "23"): R(True, lambda k, x, y, s: (
            4 * (k * x + x - (k + 1) * y - 1) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2),
            (4 * k * (x - y) - 4) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2) - 1)),
        ("123", "12", "132"): R(False, lambda k, x, y, s: (
            (k * x + x - (k + 1) * y - 1) / (y - 1), (k * x - (k + 1) * y) / (y - 1))),
        ("123", "13", "13"): R(True, lambda k, x, y, s: (
            (-2 * x + s * (2 * x - y - 1) + 2 * k * (y - 1) + 9 * y - 3) / (4 * (y - 1)),
            0.5 - s * (-2 * x + y + 1) / (2 * (y - 1)))),
        ("123", "13", "23"): R(True, lambda k, x, y, s: (
            1 / ((k * (x - y) - 1) / (-x + y + s * (x + 3 * y - 2)) + 0.5),
            4 * (x - y) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2) + 1)),
        ("123", "13", "132"): R(False, lambda k, x, y, s: (
            k + (-x * k + k + 1) / (y - 1) + 2, (x - 1) / (y - 1))),
        ("123", "23", "13"): R(True, lambda k, x, y, s: (
            0.5 * (s * (-2 * x + y + 1) / (y - 1) + 1),
            (-2 * (1 + s) * x + 2 * k * (y - 1) + 7 * y + s * (y + 1) - 1) / (4 * (y - 1)))),
        ("123", "23", "23"): R(True, lambda k, x, y, s: (
            (4 * y - 4 * x) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2),
            4 * (-(k + 1) * x + k * y + y + 1) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2) + 1)),
        ("123", "23", "132"): R(False, lambda k, x, y, s: (
            (y - x) / (y - 1), ((k + 2) * y - (k + 1) * x) / (y - 1))),
        ("123", "123", "13"): R(True, lambda k, x, y, s: (
            (-2 * x + s * (2 * x - y - 1) + 2 * k * (y - 1) + 9 * y - 3) / (4 * (y - 1)),
            (-2 * (1 + s) * x + 2 * k * (y - 1) + 7 * y + s * (y + 1) - 1) / (4 * (y - 1)))),
        ("123", "123", "23"): R(True, lambda k, x, y, s: (
            1 / ((k * (x - y) - 1) / (-x + y + s * (x + 3 * y - 2)) + 0.5),
            4 * (-(k + 1) * x + k * y + y + 1) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2) + 1)),
        ("123", "123", "132"): R(False, lambda k, x, y, s: (
            k + (-x * k + k + 1) / (y - 1) + 2, ((k + 2) * y - (k + 1) * x) / (y - 1))),
        ("123", "132", "13"): R(True, lambda k, x, y, s: (
            -(-2 * (1 + s) * x + 2 * k * (y - 1) + (3 + s) * (y + 1)) / (4 * (y - 1)),
            0.5 - s * (-2 * x + y + 1) / (2 * (y - 1)))),
        ("123", "132", "23"): R(True, lambda k, x, y, s: (
            4 * (k * x + x - (k + 1) * y - 1) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2),
            4 * (x - y) / (2 * k * x - x - 2 * k * y + y + s * (x + 3 * y - 2) - 2) + 1)),
        ("123", "132", "132"): R(False, lambda k, x, y, s: (
            (k * x + x - (k + 1) * y - 1) / (y - 1), (x - 1) / (y - 1))),
        # --- sigma = 132 ---
        ("132", "e", "12"): R(True, lambda k, x, y, s: (
            0.5 * (s * (x + y - 1) / (x - y - 1) + 1),
            (-5 * x + 3 * y + 2 * k * (-x + y + 1) + s * (x + y - 1) + 1) / (4 * (x - y - 1)))),
        ("132", "e", "13"): R(True, lambda k, x, y, s: (
            4 * (x - 1) / (-2 * k * (x - 1) + x + s * (3 * x - 4 * y - 1) - 3),
            (4 * k * (x - 1) + 4) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3) - 1)),
        ("132", "e", "123"): R(False, lambda k, x, y, s: (
            (x - 1) / (x - y - 1), (k * (x - 1) + 1) / (-x + y + 1) - 1)),
        ("132", "12", "12"): R(True, lambda k, x, y, s: (
            (-3 * x + y + 2 * k * (-x + y + 1) - s * (x + y - 1) - 1) / (4 * (x - y - 1)),
            (-5 * x + 3 * y + 2 * k * (-x + y + 1) + s * (x + y - 1) + 1) / (4 * (x - y - 1)))),
        ("132", "12", "13"): R(True, lambda k, x, y, s: (
            4 * (k * (x - 1) + x) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3),
            (4 * k * (x - 1) + 4) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3) - 1)),
        ("132", "12", "123"): R(False, lambda k, x, y, s: (
            (k * (x - 1) + x) / (-x + y + 1), (k * (x - 1) + 1) / (-x + y + 1) - 1)),
        ("132", "13", "12"): R(True, lambda k, x, y, s: (
            (9 * x + 2 * k * (x - y - 1) - 7 * y - s * (x + y - 1) - 5) / (4 * (x - y - 1)),
            0.5 - s * (x + y - 1) / (2 * (x - y - 1)))),
        ("132", "13", "13"): R(True, lambda k, x, y, s: (
            (-4 * k * (x - 1) - 4) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3) + 2,
            (4 - 4 * x) / (-2 * k * (x - 1) + x + s * (3 * x - 4 * y - 1) - 3) + 1)),
        ("132", "13", "123"): R(False, lambda k, x, y, s: (
            (-x * k + k - 1) / (-x + y + 1) + 2, y / (-x + y + 1))),
        ("132", "23", "12"): R(True, lambda k, x, y, s: (
            0.5 * (s * (x + y - 1) / (x - y - 1) + 1),
            (7 * x + 2 * k * (x - y - 1) - 5 * y + s * (x + y - 1) - 3) / (4 * (x - y - 1)))),
        ("132", "23", "13"): R(True, lambda k, x, y, s: (
            4 * (x - 1) / (-2 * k * (x - 1) + x + s * (3 * x - 4 * y - 1) - 3),
            (4 * k - 4 * (k + 1) * x) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3) + 1)),
        ("132", "23", "123"): R(False, lambda k, x, y, s: (
            (x - 1) / (x - y - 1), (-x * k + k - 2 * x + y + 1) / (-x + y + 1))),
        ("132", "123", "12"): R(True, lambda k, x, y, s: (
            (9 * x + 2 * k * (x - y - 1) - 7 * y - s * (x + y - 1) - 5) / (4 * (x - y - 1)),
            (7 * x + 2 * k * (x - y - 1) - 5 * y + s * (x + y - 1) - 3) / (4 * (x - y - 1)))),
        ("132", "123", "13"): R(True, lambda k, x, y, s: (
            (-4 * k * (x - 1) - 4) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3) + 2,
            (4 * k - 4 * (k + 1) * x) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3) + 1)),
        ("132", "123", "123"): R(False, lambda k, x, y, s: (
            (-x * k + k - 1) / (-x + y + 1) + 2, (-x * k + k - 2 * x + y + 1) / (-x + y + 1))),
        ("132", "132", "12"): R(True, lambda k, x, y, s: (
            (-3 * x + y + 2 * k * (-x + y + 1) - s * (x + y - 1) - 1) / (4 * (x - y - 1)),
            0.5 - s * (x + y - 1) / (2 * (x - y - 1)))),
        ("132", "132", "13"): R(True, lambda k, x, y, s: (
            4 * (k * (x - 1) + x) / (2 * k * (x - 1) - x - s * (3 * x - 4 * y - 1) + 3),
            (4 - 4 * x) / (-2 * k * (x - 1) + x + s * (3 * x - 4 * y - 1) - 3) + 1)),
        ("132", "132", "123"): R(False, lambda k, x, y, s: (
            (k * (x - 1) + x) / (-x + y + 1), y / (-x + y + 1))),
    }


FORWARD: dict[tuple[str, str, str], ForwardRow] = _rows()
