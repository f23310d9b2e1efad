"""Reference values computed apart from the program, with mpmath at 30 digits.

The oracles read the embedded tables (tripmaps.tables) as data: the table
lambdas accept mpf arguments.  They never call tripmaps.transfer, specfun
or hilbert, so a fault in the operator, quadrature or Bessel kernel cannot
reach both sides of a comparison.

Oracles that do not depend on the benchmark seed and take seconds each are
cached in oracles.json next to this file.  Recompute the cache with

    python3 tripbench/oracles.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tripmaps.tables.banach import BANACH  # noqa: E402
from tripmaps.tables.eigen import DENSITIES, EIGENFUNCTIONS  # noqa: E402,F401
from tripmaps.tables.forward import FORWARD  # noqa: E402,F401
from tripmaps.tables.hilbert_rows import HILBERT  # noqa: E402
from tripmaps.tables.transfer_rows import TRANSFER  # noqa: E402

DPS = 30
CACHE = HERE / "oracles.json"

# the `tripmaps hilbert` verb evaluates Theorem 3.1 at this fixed point
HILBERT_POINT = (0.6, 0.3)
SIGMA_REPS = ("e,23,e", "12,13,12", "13,13,13", "23,23,23", "123,12,132",
              "132,123,123")
PHIS = ("eta0", "eta1")
GK_KMAX = 10

mp.mp.dps = DPS


def key(text: str) -> tuple[str, str, str]:
    """Table key of a triple label such as "e,23,e"."""
    return tuple(text.split(","))


def label(k: tuple[str, str, str]) -> str:
    return ",".join(k)


def branch_sum(triple: str, f, x: float, y: float):
    """sum_k w_k(p) f(branch_k(p)), one mp.nsum per parity class."""
    row = TRANSFER[key(triple)]
    x, y = mp.mpf(x), mp.mpf(y)
    total = mp.mpf(0)
    for parity in (0, 1):
        s = 1 - 2 * parity

        def term(m, parity=parity, s=s):
            k = 2 * m + parity
            a, b = row.branch(k, x, y, s)
            return row.weight(k, x, y, s) * f(a, b)

        total += mp.nsum(term, [0, mp.inf])
    return total


def theorem31_lhs(triple: str, phi: str, x: float, y: float):
    """Left side of Theorem 3.1: the branch sum of the transformed eta
    profile.  For eta0 the transform is psi'(h3 + 2)/h3, for eta1 it is
    -psi''(h3 + 2)/(2 h3), with h3 the kernel-form h row at the branch
    point."""
    h3 = HILBERT[key(triple)].h
    if phi == "eta0":
        def T(a, b):
            h = h3(a, b)
            return mp.psi(1, h + 2) / h
    else:
        def T(a, b):
            h = h3(a, b)
            return -mp.psi(2, h + 2) / (2 * h)
    return branch_sum(triple, T, x, y)


def abs_summand_sum(triple: str, x: float, y: float):
    """sum_k |summand(k, x, y)| of the weighted-norm row (parity-free)."""
    row = BANACH[key(triple)]
    x, y = mp.mpf(x), mp.mpf(y)
    return mp.nsum(lambda k: abs(row.summand(k, x, y)), [0, mp.inf])


def p_eee(k: int):
    """p(k) for (e,e,e) from the printed closed form, read with (k+1)."""
    if k == 0:
        return 1 - (6 * mp.polylog(2, mp.mpf(1) / 4)
                    + 12 * mp.log(2) ** 2) / mp.pi ** 2
    k = mp.mpf(k)
    return 6 / mp.pi ** 2 * (
        mp.polylog(2, 1 / (k + 1) ** 2) - mp.polylog(2, 1 / (k + 2) ** 2)
        + 4 * mp.log(k + 1) ** 2 - 2 * mp.log((k + 2) / (k + 1)) ** 2
        - 2 * mp.log(k * (k + 2)) * mp.log(k + 1))


def p_e23e(k: int):
    """p(k) for (e,23,e): mp.quad of the printed two-piece iterated
    integral of 6/(pi^2 x (1 - y)); p(0) = 1/2."""
    if k == 0:
        return mp.mpf(1) / 2
    k = mp.mpf(k)

    def r(x, y):
        return 6 / (mp.pi ** 2 * x * (1 - y))

    piece1 = mp.quad(lambda x: mp.quad(lambda y: r(x, y), [(1 - x) / (k + 1), x]),
                     [1 / (k + 2), 1 / (k + 1)])
    piece2 = mp.quad(lambda x: mp.quad(lambda y: r(x, y),
                                       [(1 - x) / (k + 1), (1 - x) / k]),
                     [1 / (k + 1), 1])
    return piece1 + piece2


def theorem31_key(triple: str, phi: str) -> str:
    return f"{triple}|{phi}|{HILBERT_POINT[0]!r}|{HILBERT_POINT[1]!r}"


def compute_cache() -> dict:
    x, y = HILBERT_POINT
    return {
        "dps": DPS,
        "theorem31_lhs": {theorem31_key(t, phi): mp.nstr(theorem31_lhs(t, phi, x, y), DPS)
                          for t in SIGMA_REPS for phi in PHIS},
        "p_e23e": {str(k): mp.nstr(p_e23e(k), DPS) for k in range(GK_KMAX + 1)},
    }


def load_cache() -> dict:
    """The cached oracles as floats; exits if the cache lacks a value."""
    with open(CACHE) as fh:
        raw = json.load(fh)
    need_t31 = {theorem31_key(t, phi) for t in SIGMA_REPS for phi in PHIS}
    need_gk = {str(k) for k in range(GK_KMAX + 1)}
    if raw.get("dps") != DPS or not need_t31 <= raw.get("theorem31_lhs", {}).keys() \
            or not need_gk <= raw.get("p_e23e", {}).keys():
        raise SystemExit(f"{CACHE} is stale; recompute it with python3 tripbench/oracles.py")
    return {
        "theorem31_lhs": {k: float(v) for k, v in raw["theorem31_lhs"].items()},
        "p_e23e": {int(k): float(v) for k, v in raw["p_e23e"].items()},
    }


if __name__ == "__main__":
    cache = compute_cache()
    with open(CACHE, "w") as fh:
        json.dump(cache, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {CACHE}")
