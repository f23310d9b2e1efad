"""Inverse branches and Jacobian weights of the 108 transfer operators.

Each row holds ``weight(k, x, y, s)`` (the coefficient multiplying the
function value, equal to the reciprocal Jacobian of the forward map at the
branch point) and ``branch(k, x, y, s) -> (a, b)`` (the digit-``k`` preimage
of ``(x, y)``).  As in :mod:`tripmaps.tables.forward`, ``s`` must equal
``(-1)**k`` and is threaded explicitly so tails of the branch sum can be
evaluated along a single parity class at real ``k``.  Whether a row reads
``s`` is stated once, by the ``parity`` flag of its forward row.

Every power in a weight has a base that is non-negative on the triangle.
A cube base that is negative there is written ``1 / abs(base) ** 3``
rather than ``-1 / base ** 3``: the same function, but numpy raises a
negative float to a power on a scalar path, 20 to 30 times slower per
element than its vector ``pow``.  ``tests/test_transfer.py`` walks every
base of every weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class TransferRow:
    weight: Callable[[float, float, float, float], float]
    branch: Callable[[float, float, float, float], tuple[float, float]]


def _rows() -> dict[tuple[str, str, str], TransferRow]:
    R = TransferRow
    return {
        # --- sigma = e ---
        ("e", "e", "e"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (1 / (k * x + y + 1), x / (k * x + y + 1))),
        ("e", "e", "12"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                s * (-x - 2 * y + s * (2 * k * x + x + 2 * y + 2) + 2) / (4 * (k * x + y + 1)),
                x / (k * x + y + 1))),
        ("e", "e", "23"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1),
                -2 * (2 * x + s - 1) / (-2 * x - s * (2 * k - 2 * x + 4 * y + 5) + 1))),
        ("e", "12", "e"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                1 / (-x * k + y * k + k + y + 1),
                (-x + y + 1) / (-x * k + y * k + k + y + 1))),
        ("e", "12", "12"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                -(x - s * (x - 3 * y + 1) + 2 * k * (x - y - 1) - 3 * y - 3)
                / (4 * (-x * k + y * k + k + y + 1)),
                (-x + y + 1) / (-x * k + y * k + k + y + 1))),
        ("e", "12", "23"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1),
                2 * (-2 * x + s + 2 * y + 1) / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1))),
        ("e", "13", "e"): R(
            lambda k, x, y, s: 1 / (-y * k + k - x + 2) ** 3,
            lambda k, x, y, s: (
                1 / (-y * k + k - x + 2), (y - 1) / (x + k * (y - 1) - 2))),
        ("e", "13", "12"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (-2 * x - y + s * (2 * x + 2 * k * (y - 1) + y - 5) + 1) / (4 * (x + k * (y - 1) - 2)),
                (y - 1) / (x + k * (y - 1) - 2))),
        ("e", "13", "23"): R(
            lambda k, x, y, s: 64 / abs(-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1),
                2 * (-2 * y + s + 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1))),
        ("e", "23", "e"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (1 / (k * x + x - y + 1), x / (k * x + x - y + 1))),
        ("e", "23", "12"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                s * (-3 * x + s * ((2 * k + 3) * x - 2 * y + 2) + 2 * y + 2) / (4 * (k * x + x - y + 1)),
                x / (k * x + x - y + 1))),
        ("e", "23", "23"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1),
                2 * (2 * x + s - 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1))),
        ("e", "123", "e"): R(
            lambda k, x, y, s: 1 / (-x + k * (-x + y + 1) + 2) ** 3,
            lambda k, x, y, s: (
                1 / (-x * k + y * k + k - x + 2),
                (-x + y + 1) / (-x * k + y * k + k - x + 2))),
        ("e", "123", "12"): R(
            lambda k, x, y, s: 1 / abs(x + k * (x - y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (-3 * x + s * (3 * x + 2 * k * (x - y - 1) - y - 5) + y + 1)
                / (4 * (x + k * (x - y - 1) - 2)),
                (-x + y + 1) / (-x * k + y * k + k - x + 2))),
        ("e", "123", "23"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1),
                -2 * (-2 * x + s + 2 * y + 1) / (2 * x - 2 * y + s * (-2 * k + 2 * x + 2 * y - 7) - 1))),
        ("e", "132", "e"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                1 / (k + x - (k + 1) * y + 1),
                (y - 1) / (-x + k * (y - 1) + y - 1))),
        ("e", "132", "12"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                s * (2 * x - 3 * y + s * (-2 * x + 2 * k * (y - 1) + 3 * y - 3) - 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)),
                (y - 1) / (-x + k * (y - 1) + y - 1))),
        ("e", "132", "23"): R(
            lambda k, x, y, s: 64 / abs(s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1),
                -2 * (-2 * y + s + 1) / (-s * (2 * k + 4 * x - 2 * y + 3) + 2 * y - 1))),
        # --- sigma = 12 ---
        ("12", "e", "e"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                s * (x + 2 * y + s * (2 * k * x + 3 * x + 2 * y + 2) - 2) / (4 * (k * x + y + 1)),
                x / (k * x + y + 1))),
        ("12", "e", "12"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                (k * x + x + y) / (k * x + y + 1), x / (k * x + y + 1))),
        ("12", "e", "123"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (6 * x + s * (2 * k - 2 * x + 4 * y + 3) - 3) / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1),
                -2 * (2 * x + s - 1) / (-2 * x - s * (2 * k - 2 * x + 4 * y + 5) + 1))),
        ("12", "12", "e"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                -s * (x - 3 * y + s * (3 * x + 2 * k * (x - y - 1) - 5 * (y + 1)) + 1)
                / (4 * (y + k * (-x + y + 1) + 1)),
                (-x + y + 1) / (-x * k + y * k + k + y + 1))),
        ("12", "12", "12"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                (k - (k + 1) * x + (k + 2) * y + 1) / (y + k * (-x + y + 1) + 1),
                (-x + y + 1) / (-x * k + y * k + k + y + 1))),
        ("12", "12", "123"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1) ** 3,
            lambda k, x, y, s: (
                (-6 * x + 6 * y + s * (2 * k + 2 * x + 2 * y + 1) + 3)
                / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1),
                2 * (-2 * x + s + 2 * y + 1) / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1))),
        ("12", "13", "e"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (2 * x + y + s * (2 * x + 2 * k * (y - 1) + 3 * y - 7) - 1) / (4 * (x + k * (y - 1) - 2)),
                (y - 1) / (x + k * (y - 1) - 2))),
        ("12", "13", "12"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (x + k * (y - 1) + y - 2) / (x + k * (y - 1) - 2),
                (y - 1) / (x + k * (y - 1) - 2))),
        ("12", "13", "123"): R(
            lambda k, x, y, s: 64 / abs(-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1) ** 3,
            lambda k, x, y, s: (
                (-6 * y + s * (2 * k - 4 * x + 2 * y + 5) + 3) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1),
                2 * (-2 * y + s + 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1))),
        ("12", "23", "e"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                s * (3 * x + s * ((2 * k + 5) * x - 2 * y + 2) - 2 * y - 2) / (4 * (k * x + x - y + 1)),
                x / (k * x + x - y + 1))),
        ("12", "23", "12"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                ((k + 2) * x - y) / (k * x + x - y + 1), x / (k * x + x - y + 1))),
        ("12", "23", "123"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (6 * x + s * (2 * k + 2 * x - 4 * y + 3) - 3) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1),
                2 * (2 * x + s - 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1))),
        ("12", "123", "e"): R(
            lambda k, x, y, s: 1 / abs(x + k * (x - y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (3 * x + s * (5 * x + 2 * k * (x - y - 1) - 3 * y - 7) - y - 1)
                / (4 * (x + k * (x - y - 1) - 2)),
                (-x + y + 1) / (-x * k + y * k + k - x + 2))),
        ("12", "123", "12"): R(
            lambda k, x, y, s: 1 / (-x + k * (-x + y + 1) + 2) ** 3,
            lambda k, x, y, s: (
                ((k + 2) * (x - 1) - (k + 1) * y) / (x + k * (x - y - 1) - 2),
                (-x + y + 1) / (-x * k + y * k + k - x + 2))),
        ("12", "123", "123"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (-6 * x + s * (2 * k - 2 * x - 2 * y + 5) + 6 * y + 3)
                / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1),
                -2 * (-2 * x + s + 2 * y + 1) / (2 * x - 2 * y + s * (-2 * k + 2 * x + 2 * y - 7) - 1))),
        ("12", "132", "e"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                s * (-2 * x + 3 * y + s * (-2 * x + 2 * k * (y - 1) + 5 * y - 5) + 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)),
                (y - 1) / (-x + k * (y - 1) + y - 1))),
        ("12", "132", "12"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                (k + x - (k + 2) * y + 1) / (k + x - (k + 1) * y + 1),
                (y - 1) / (-x + k * (y - 1) + y - 1))),
        ("12", "132", "123"): R(
            lambda k, x, y, s: 64 / abs(s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (s * (2 * k + 4 * x - 2 * y + 1) - 6 * y + 3) / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1),
                -2 * (-2 * y + s + 1) / (-s * (2 * k + 4 * x - 2 * y + 3) + 2 * y - 1))),
        # --- sigma = 13 ---
        ("13", "e", "13"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + y + 1), 1 - 1 / (k * x + y + 1))),
        ("13", "e", "123"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + y + 1),
                s * (x + 2 * y + s * (2 * k * x - x + 2 * y + 2) - 2) / (4 * (k * x + y + 1)))),
        ("13", "e", "132"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (-2 * x + s * (2 * k - 2 * x + 4 * y + 3) + 1) / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1),
                (2 * x + s * (2 * k - 2 * x + 4 * y + 1) - 1) / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1))),
        ("13", "12", "13"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                (-x * k + y * k + k + x) / (-x * k + y * k + k + y + 1),
                1 - 1 / (-x * k + y * k + k + y + 1))),
        ("13", "12", "123"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                (-x * k + y * k + k + x) / (-x * k + y * k + k + y + 1),
                (x - s * (x - 3 * y + 1) + y + 2 * k * (-x + y + 1) + 1)
                / (4 * (y + k * (-x + y + 1) + 1)))),
        ("13", "12", "132"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1) ** 3,
            lambda k, x, y, s: (
                (2 * x - 2 * y + s * (2 * k + 2 * x + 2 * y + 1) - 1)
                / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1),
                (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y - 1) + 1)
                / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1))),
        ("13", "13", "13"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (x + k * (y - 1) - y - 1) / (x + k * (y - 1) - 2),
                1 + 1 / (x + k * (y - 1) - 2))),
        ("13", "13", "123"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (x + k * (y - 1) - y - 1) / (x + k * (y - 1) - 2),
                s * (2 * x + s * (2 * x + 2 * k * (y - 1) - y - 3) + y - 1) / (4 * (x + k * (y - 1) - 2)))),
        ("13", "13", "132"): R(
            lambda k, x, y, s: 64 / abs(-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1) ** 3,
            lambda k, x, y, s: (
                (2 * y + s * (2 * k - 4 * x + 2 * y + 5) - 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1),
                (-2 * y + s * (2 * k - 4 * x + 2 * y + 3) + 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1))),
        ("13", "23", "13"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + x - y + 1), 1 + 1 / (-(k + 1) * x + y - 1))),
        ("13", "23", "123"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + x - y + 1),
                s * (3 * x + s * (2 * k * x + x - 2 * y + 2) - 2 * y - 2) / (4 * (k * x + x - y + 1)))),
        ("13", "23", "132"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (-2 * x + s * (2 * k + 2 * x - 4 * y + 3) + 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1),
                (2 * x + s * (2 * k + 2 * x - 4 * y + 1) - 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1))),
        ("13", "123", "13"): R(
            lambda k, x, y, s: 1 / (-x + k * (-x + y + 1) + 2) ** 3,
            lambda k, x, y, s: (
                (k * (x - y - 1) + y - 1) / (x + k * (x - y - 1) - 2),
                1 + 1 / (x + k * (x - y - 1) - 2))),
        ("13", "123", "123"): R(
            lambda k, x, y, s: 1 / abs(x + k * (x - y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (k * (x - y - 1) + y - 1) / (x + k * (x - y - 1) - 2),
                s * (3 * x - y + s * (x + 2 * k * (x - y - 1) + y - 3) - 1)
                / (4 * (x + k * (x - y - 1) - 2)))),
        ("13", "123", "132"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (2 * x + s * (2 * k - 2 * x - 2 * y + 5) - 2 * y - 1)
                / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1),
                (-2 * x + s * (2 * k - 2 * x - 2 * y + 3) + 2 * y + 1)
                / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1))),
        ("13", "132", "13"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                (-y * k + k + x) / (k + x - (k + 1) * y + 1),
                1 + 1 / (-x + k * (y - 1) + y - 1))),
        ("13", "132", "123"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                (-y * k + k + x) / (k + x - (k + 1) * y + 1),
                s * (-2 * x + 3 * y + s * (-2 * x + 2 * k * (y - 1) + y - 1) + 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)))),
        ("13", "132", "132"): R(
            lambda k, x, y, s: 64 / abs(s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (s * (2 * k + 4 * x - 2 * y + 1) + 2 * y - 1) / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1),
                (s * (2 * k + 4 * x - 2 * y - 1) - 2 * y + 1) / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1))),
        # --- sigma = 23 ---
        ("23", "e", "e"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1),
                -2 * (-2 * x + s + 1) / (-2 * x - s * (2 * k - 2 * x + 4 * y + 5) + 1))),
        ("23", "e", "23"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (1 / (k * x + y + 1), (1 - x) / (k * x + y + 1))),
        ("23", "e", "132"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                s * (-x - 2 * y + s * (2 * k * x + x + 2 * y + 2) + 2) / (4 * (k * x + y + 1)),
                s * (-x - 2 * y + s * (2 * k * x - 3 * x + 2 * y + 2) + 2) / (4 * (k * x + y + 1)))),
        ("23", "12", "e"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1),
                2 * (2 * x + s - 2 * y - 1) / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1))),
        ("23", "12", "23"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                1 / (-x * k + y * k + k + y + 1),
                (x - y) / (-x * k + y * k + k + y + 1))),
        ("23", "12", "132"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                (-x + s * (x - 3 * y + 1) + 3 * y + 2 * k * (-x + y + 1) + 3)
                / (4 * (y + k * (-x + y + 1) + 1)),
                s * (x - 3 * y - s * (-3 * x + 2 * k * (x - y - 1) + y + 1) + 1)
                / (4 * (y + k * (-x + y + 1) + 1)))),
        ("23", "13", "e"): R(
            lambda k, x, y, s: 64 / abs(-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1),
                2 * (2 * y + s - 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1))),
        ("23", "13", "23"): R(
            lambda k, x, y, s: 1 / (-y * k + k - x + 2) ** 3,
            lambda k, x, y, s: (
                1 / (-y * k + k - x + 2), y / (-y * k + k - x + 2))),
        ("23", "13", "132"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (-2 * x - y + s * (2 * x + 2 * k * (y - 1) + y - 5) + 1) / (4 * (x + k * (y - 1) - 2)),
                s * (-2 * x + s * (2 * x + 2 * k * (y - 1) - 3 * y - 1) - y + 1) / (4 * (x + k * (y - 1) - 2)))),
        ("23", "23", "e"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1),
                2 * (-2 * x + s + 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1))),
        ("23", "23", "23"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                1 / (k * x + x - y + 1), (1 - x) / (k * x + x - y + 1))),
        ("23", "23", "132"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                s * (-3 * x + s * ((2 * k + 3) * x - 2 * y + 2) + 2 * y + 2) / (4 * (k * x + x - y + 1)),
                s * (-3 * x + s * ((2 * k - 1) * x - 2 * y + 2) + 2 * y + 2) / (4 * (k * x + x - y + 1)))),
        ("23", "123", "e"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1),
                (-4 * x - 2 * s + 4 * y + 2) / (2 * x - 2 * y + s * (-2 * k + 2 * x + 2 * y - 7) - 1))),
        ("23", "123", "23"): R(
            lambda k, x, y, s: 1 / (-x + k * (-x + y + 1) + 2) ** 3,
            lambda k, x, y, s: (
                1 / (-x * k + y * k + k - x + 2),
                (y - x) / (x + k * (x - y - 1) - 2))),
        ("23", "123", "132"): R(
            lambda k, x, y, s: 1 / abs(x + k * (x - y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (-3 * x + s * (3 * x + 2 * k * (x - y - 1) - y - 5) + y + 1)
                / (4 * (x + k * (x - y - 1) - 2)),
                s * (-3 * x + y + s * (-x + 2 * k * (x - y - 1) + 3 * y - 1) + 1)
                / (4 * (x + k * (x - y - 1) - 2)))),
        ("23", "132", "e"): R(
            lambda k, x, y, s: 64 / abs(s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                4 * s / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1),
                -2 * (2 * y + s - 1) / (-s * (2 * k + 4 * x - 2 * y + 3) + 2 * y - 1))),
        ("23", "132", "23"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                1 / (k + x - (k + 1) * y + 1),
                y / (k + x - (k + 1) * y + 1))),
        ("23", "132", "132"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                s * (2 * x - 3 * y + s * (-2 * x + 2 * k * (y - 1) + 3 * y - 3) - 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)),
                s * (2 * x - 3 * y - s * (2 * x - 2 * k * (y - 1) + y - 1) - 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)))),
        # --- sigma = 123 ---
        ("123", "e", "13"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (6 * x + s * (2 * k - 2 * x + 4 * y + 3) - 3) / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1),
                (2 * x + s * (2 * k - 2 * x + 4 * y + 1) - 1) / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1))),
        ("123", "e", "23"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                s * (x + 2 * y + s * (2 * k * x + 3 * x + 2 * y + 2) - 2) / (4 * (k * x + y + 1)),
                s * (x + 2 * y + s * (2 * k * x - x + 2 * y + 2) - 2) / (4 * (k * x + y + 1)))),
        ("123", "e", "132"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                (k * x + x + y) / (k * x + y + 1), 1 - 1 / (k * x + y + 1))),
        ("123", "12", "13"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1) ** 3,
            lambda k, x, y, s: (
                (-6 * x + 6 * y + s * (2 * k + 2 * x + 2 * y + 1) + 3)
                / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1),
                (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y - 1) + 1)
                / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1))),
        ("123", "12", "23"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                -s * (x - 3 * y + s * (3 * x + 2 * k * (x - y - 1) - 5 * (y + 1)) + 1)
                / (4 * (y + k * (-x + y + 1) + 1)),
                (x - s * (x - 3 * y + 1) + y + 2 * k * (-x + y + 1) + 1)
                / (4 * (y + k * (-x + y + 1) + 1)))),
        ("123", "12", "132"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                (k - (k + 1) * x + (k + 2) * y + 1) / (y + k * (-x + y + 1) + 1),
                1 - 1 / (-x * k + y * k + k + y + 1))),
        ("123", "13", "13"): R(
            lambda k, x, y, s: 64 / abs(-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1) ** 3,
            lambda k, x, y, s: (
                (-6 * y + s * (2 * k - 4 * x + 2 * y + 5) + 3) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1),
                (-2 * y + s * (2 * k - 4 * x + 2 * y + 3) + 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1))),
        ("123", "13", "23"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (2 * x + y + s * (2 * x + 2 * k * (y - 1) + 3 * y - 7) - 1) / (4 * (x + k * (y - 1) - 2)),
                s * (2 * x + s * (2 * x + 2 * k * (y - 1) - y - 3) + y - 1) / (4 * (x + k * (y - 1) - 2)))),
        ("123", "13", "132"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (x + k * (y - 1) + y - 2) / (x + k * (y - 1) - 2),
                1 + 1 / (x + k * (y - 1) - 2))),
        ("123", "23", "13"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (6 * x + s * (2 * k + 2 * x - 4 * y + 3) - 3) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1),
                (2 * x + s * (2 * k + 2 * x - 4 * y + 1) - 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1))),
        ("123", "23", "23"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                s * (3 * x + s * ((2 * k + 5) * x - 2 * y + 2) - 2 * y - 2) / (4 * (k * x + x - y + 1)),
                s * (3 * x + s * (2 * k * x + x - 2 * y + 2) - 2 * y - 2) / (4 * (k * x + x - y + 1)))),
        ("123", "23", "132"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                ((k + 2) * x - y) / (k * x + x - y + 1),
                1 + 1 / (-(k + 1) * x + y - 1))),
        ("123", "123", "13"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (-6 * x + s * (2 * k - 2 * x - 2 * y + 5) + 6 * y + 3)
                / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1),
                (-2 * x + s * (2 * k - 2 * x - 2 * y + 3) + 2 * y + 1)
                / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1))),
        ("123", "123", "23"): R(
            lambda k, x, y, s: 1 / abs(x + k * (x - y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                s * (3 * x + s * (5 * x + 2 * k * (x - y - 1) - 3 * y - 7) - y - 1)
                / (4 * (x + k * (x - y - 1) - 2)),
                s * (3 * x - y + s * (x + 2 * k * (x - y - 1) + y - 3) - 1)
                / (4 * (x + k * (x - y - 1) - 2)))),
        ("123", "123", "132"): R(
            lambda k, x, y, s: 1 / (-x + k * (-x + y + 1) + 2) ** 3,
            lambda k, x, y, s: (
                ((k + 2) * (x - 1) - (k + 1) * y) / (x + k * (x - y - 1) - 2),
                1 + 1 / (x + k * (x - y - 1) - 2))),
        ("123", "132", "13"): R(
            lambda k, x, y, s: 64 / abs(s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (s * (2 * k + 4 * x - 2 * y + 1) - 6 * y + 3) / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1),
                (s * (2 * k + 4 * x - 2 * y - 1) - 2 * y + 1) / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1))),
        ("123", "132", "23"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                s * (-2 * x + 3 * y + s * (-2 * x + 2 * k * (y - 1) + 5 * y - 5) + 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)),
                s * (-2 * x + 3 * y + s * (-2 * x + 2 * k * (y - 1) + y - 1) + 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)))),
        ("123", "132", "132"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                (k + x - (k + 2) * y + 1) / (k + x - (k + 1) * y + 1),
                1 + 1 / (-x + k * (y - 1) + y - 1))),
        # --- sigma = 132 ---
        ("132", "e", "12"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (-2 * x + s * (2 * k - 2 * x + 4 * y + 3) + 1) / (2 * x + s * (2 * k - 2 * x + 4 * y + 5) - 1),
                -2 * (-2 * x + s + 1) / (-2 * x - s * (2 * k - 2 * x + 4 * y + 5) + 1))),
        ("132", "e", "13"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + y + 1),
                s * (-x - 2 * y + s * (2 * k * x - 3 * x + 2 * y + 2) + 2) / (4 * (k * x + y + 1)))),
        ("132", "e", "123"): R(
            lambda k, x, y, s: 1 / (k * x + y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + y + 1), (1 - x) / (k * x + y + 1))),
        ("132", "12", "12"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1) ** 3,
            lambda k, x, y, s: (
                (2 * x - 2 * y + s * (2 * k + 2 * x + 2 * y + 1) - 1)
                / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1),
                2 * (2 * x + s - 2 * y - 1) / (-2 * x + 2 * y + s * (2 * k + 2 * x + 2 * y + 3) + 1))),
        ("132", "12", "13"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                (-x * k + y * k + k + x) / (-x * k + y * k + k + y + 1),
                s * (x - 3 * y - s * (-3 * x + 2 * k * (x - y - 1) + y + 1) + 1)
                / (4 * (y + k * (-x + y + 1) + 1)))),
        ("132", "12", "123"): R(
            lambda k, x, y, s: 1 / (-x * k + y * k + k + y + 1) ** 3,
            lambda k, x, y, s: (
                (-x * k + y * k + k + x) / (-x * k + y * k + k + y + 1),
                (x - y) / (-x * k + y * k + k + y + 1))),
        ("132", "13", "12"): R(
            lambda k, x, y, s: 64 / abs(-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1) ** 3,
            lambda k, x, y, s: (
                (2 * y + s * (2 * k - 4 * x + 2 * y + 5) - 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1),
                2 * (2 * y + s - 1) / (-2 * y + s * (2 * k - 4 * x + 2 * y + 7) + 1))),
        ("132", "13", "13"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (x + k * (y - 1) - y - 1) / (x + k * (y - 1) - 2),
                s * (-2 * x + s * (2 * x + 2 * k * (y - 1) - 3 * y - 1) - y + 1) / (4 * (x + k * (y - 1) - 2)))),
        ("132", "13", "123"): R(
            lambda k, x, y, s: 1 / abs(x + k * (y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (x + k * (y - 1) - y - 1) / (x + k * (y - 1) - 2),
                y / (-y * k + k - x + 2))),
        ("132", "23", "12"): R(
            lambda k, x, y, s: 64 / abs(2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1) ** 3,
            lambda k, x, y, s: (
                (-2 * x + s * (2 * k + 2 * x - 4 * y + 3) + 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1),
                2 * (-2 * x + s + 1) / (2 * x + s * (2 * k + 2 * x - 4 * y + 5) - 1))),
        ("132", "23", "13"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + x - y + 1),
                s * (-3 * x + s * ((2 * k - 1) * x - 2 * y + 2) + 2 * y + 2) / (4 * (k * x + x - y + 1)))),
        ("132", "23", "123"): R(
            lambda k, x, y, s: 1 / (k * x + x - y + 1) ** 3,
            lambda k, x, y, s: (
                1 - x / (k * x + x - y + 1), (1 - x) / (k * x + x - y + 1))),
        ("132", "123", "12"): R(
            lambda k, x, y, s: 64 / abs(-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (2 * x + s * (2 * k - 2 * x - 2 * y + 5) - 2 * y - 1)
                / (-2 * x + s * (2 * k - 2 * x - 2 * y + 7) + 2 * y + 1),
                (-4 * x - 2 * s + 4 * y + 2) / (2 * x - 2 * y + s * (-2 * k + 2 * x + 2 * y - 7) - 1))),
        ("132", "123", "13"): R(
            lambda k, x, y, s: 1 / abs(x + k * (x - y - 1) - 2) ** 3,
            lambda k, x, y, s: (
                (k * (x - y - 1) + y - 1) / (x + k * (x - y - 1) - 2),
                s * (-3 * x + y + s * (-x + 2 * k * (x - y - 1) + 3 * y - 1) + 1)
                / (4 * (x + k * (x - y - 1) - 2)))),
        ("132", "123", "123"): R(
            lambda k, x, y, s: 1 / (-x + k * (-x + y + 1) + 2) ** 3,
            lambda k, x, y, s: (
                (k * (x - y - 1) + y - 1) / (x + k * (x - y - 1) - 2),
                (y - x) / (x + k * (x - y - 1) - 2))),
        ("132", "132", "12"): R(
            lambda k, x, y, s: 64 / abs(s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1) ** 3,
            lambda k, x, y, s: (
                (s * (2 * k + 4 * x - 2 * y + 1) + 2 * y - 1) / (s * (2 * k + 4 * x - 2 * y + 3) - 2 * y + 1),
                -2 * (2 * y + s - 1) / (-s * (2 * k + 4 * x - 2 * y + 3) + 2 * y - 1))),
        ("132", "132", "13"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                (-y * k + k + x) / (k + x - (k + 1) * y + 1),
                s * (2 * x - 3 * y - s * (2 * x - 2 * k * (y - 1) + y - 1) - 1)
                / (4 * (k + 1) * y - 4 * (k + x + 1)))),
        ("132", "132", "123"): R(
            lambda k, x, y, s: 1 / (k + x - (k + 1) * y + 1) ** 3,
            lambda k, x, y, s: (
                (-y * k + k + x) / (k + x - (k + 1) * y + 1),
                y / (k + x - (k + 1) * y + 1))),
    }


TRANSFER: dict[tuple[str, str, str], TransferRow] = _rows()
