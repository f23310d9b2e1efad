"""Sweep the Bessel-kernel operator identity over all 44 tabulated
triples at a fixed interior point, reporting the branch-sum side, the
kernel-integral side, and the K=50 Laguerre partial sum.  CSV goes to
stdout, the worst relative gap to stderr.

    python scripts/kernel_identity_sweep.py [--point 0.6,0.3] [--eta 0]
"""

import argparse
import csv
import sys

from tripmaps.domain import PermutationTriple, TrianglePoint
from tripmaps import hilbert
from tripmaps.tables.hilbert_rows import ARG_SLOT, HILBERT


def sweep(keys, p: TrianglePoint, eta: int, laguerre: bool, out) -> float:
    """Write one CSV row per triple key to out; return the worst gap."""
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["triple", "lhs", "rhs", "rel_gap"] + (["laguerre_K50"] if laguerre else []))
    worst = 0.0
    for key in keys:
        t = PermutationTriple(*key)
        phi = hilbert.eta_profile(eta, var_slot=1 - ARG_SLOT[key[0]])
        lhs, rhs = hilbert.theorem31_check(t, phi, p)
        rel = abs(lhs - rhs) / abs(lhs)
        worst = max(worst, rel)
        row = [",".join(key), f"{lhs:.17g}", f"{rhs:.17g}", f"{rel:.3e}"]
        if laguerre:
            row.append(f"{hilbert.laguerre_expansion_partial(t, phi, p, 50):.17g}")
        w.writerow(row)
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--point", default="0.6,0.3")
    ap.add_argument("--eta", type=int, default=0)
    ap.add_argument("--laguerre", action="store_true",
                    help="also evaluate the K=50 partial sum (slower)")
    args = ap.parse_args()
    x, y = (float(v) for v in args.point.split(","))
    worst = sweep(HILBERT, TrianglePoint(x, y), args.eta, args.laguerre, sys.stdout)
    print(f"worst relative gap: {worst:.3e}", file=sys.stderr)


if __name__ == "__main__":
    main()
