"""Core identifiers, triangle points and seeded interior samples.

The library supports the 108 triangle partition maps with polynomial
branch behavior.  A map is named by a triple of permutation labels
(sigma, tau0, tau1), the keys of the embedded data tables.  trip reads
each label as a permutation matrix and multiplies them into the map's
TRIP matrices, off which maps reads its digit model and gausskuzmin its
Gauss-Kuzmin laws; every other value is evaluated on the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideTriangle, ParseError, UnsupportedTriple
from .tables.forward import FORWARD

PERMUTATION_LABELS = ("e", "12", "13", "23", "123", "132")

# triples whose ergodicity is established in the literature; empirical
# digit statistics are asserted only for these
ERGODIC_TRIPLES = (("e", "e", "e"), ("e", "23", "e"))


@dataclass(frozen=True)
class PermutationTriple:
    sigma: str
    tau0: str
    tau1: str

    def __post_init__(self) -> None:
        key = (self.sigma, self.tau0, self.tau1)
        if key not in FORWARD:
            raise UnsupportedTriple(f"unsupported triple {key}")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.sigma, self.tau0, self.tau1)

    def __str__(self) -> str:
        return f"{self.sigma},{self.tau0},{self.tau1}"


@dataclass(frozen=True)
class TrianglePoint:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not in_triangle((self.x, self.y)):
            raise OutsideTriangle(f"({self.x}, {self.y}) not interior to the triangle")

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


def parse_triple(text: str) -> PermutationTriple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or not all(parts):
        raise ParseError(f"expected three comma-separated labels, got {text!r}")
    for p in parts:
        if p not in PERMUTATION_LABELS:
            raise ParseError(f"unknown permutation label {p!r} in {text!r}")
    return PermutationTriple(*parts)


def in_triangle(p) -> bool:
    """0 < y < x < 1, elementwise where the coordinates are arrays."""
    x, y = p[0], p[1]
    return (0.0 < y) & (y < x) & (x < 1.0)


def supported_triples() -> list[tuple[str, str, str]]:
    """All 108 triples, in embedded-table order."""
    return list(FORWARD.keys())


def interior_points(seed: int, count: int, margin: float = 1e-3) -> list[TrianglePoint]:
    """count seeded points with margin < y < x - margin and x < 1 - margin,
    drawn as sorted uniform pairs and kept by rejection.  No point
    satisfies those bounds once margin >= 1/3."""
    if not (0.0 <= margin < 1.0 / 3.0):
        raise ValueError("margin must lie in [0, 1/3)")
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        u1, u2 = rng.random(2)
        x, y = max(u1, u2), min(u1, u2)
        if margin < y < x - margin and x < 1 - margin:
            pts.append(TrianglePoint(x, y))
    return pts
