"""Fit the float64 coefficients of specfun.bessel_j1 with mpmath and print
them as the Python literals that specfun.py carries.

    python scripts/fit_bessel_j1.py

Below X0 = 16, J1(x) = x * g(x) with g = J1(x)/x fitted piecewise on
[2i, 2i + 2] as a degree-15 polynomial in t = x - (2i + 1).  At and above
X0 the Hankel form J1(x) = (p(y) (sin x - cos x) + q(y)/x (sin x + cos x))
/ sqrt(x) is used, with y = (X0/x)^2 and p, q degree-7 polynomials in y;
the factor 1/sqrt(pi) is folded into p and q.  Every fit is Chebyshev
interpolation at 40 digits (mpmath.chebyfit); the printed error is its
own estimate of the largest interpolation error on the interval.
"""

import mpmath as mp

mp.mp.dps = 40

X0 = 16
PIECE_WIDTH = 2
PIECE_DEGREE = 15
HANKEL_DEGREE = 7


def g_piece(i):
    centre = mp.mpf(PIECE_WIDTH * i + PIECE_WIDTH // 2)

    def g(t):
        x = centre + t
        return mp.mpf(1) / 2 if x == 0 else mp.besselj(1, x) / x
    return g


def hankel_pq(y):
    """(p, q) at y = (X0/x)^2: p = P/sqrt(pi), q = x Q/sqrt(pi), where
    J1 = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - 3 pi/4."""
    if y == 0:
        return 1 / mp.sqrt(mp.pi), mp.mpf(3) / 8 / mp.sqrt(mp.pi)
    x = X0 / mp.sqrt(y)
    w = x - 3 * mp.pi / 4
    j, yv = mp.besselj(1, x), mp.bessely(1, x)
    f = mp.sqrt(x / 2)
    return (f * (j * mp.cos(w) + yv * mp.sin(w)),
            x * f * (yv * mp.cos(w) - j * mp.sin(w)))


def literals(coeffs, indent: str) -> str:
    # chebyfit lists the highest degree first, the order Horner wants;
    # three literals to a line
    text = [repr(float(c)) for c in coeffs]
    return "".join(f"\n{indent}" + ", ".join(text[i:i + 3]) + ","
                   for i in range(0, len(text), 3))


def main() -> None:
    print(f"# pieces [2i, 2i + 2], i = 0..{X0 // PIECE_WIDTH - 1}; "
          f"degree {PIECE_DEGREE} in t = x - (2i + 1)")
    worst = mp.mpf(0)
    print("_J1_PIECES = np.array([")
    for i in range(X0 // PIECE_WIDTH):
        coeffs, err = mp.chebyfit(g_piece(i), [-1, 1], PIECE_DEGREE + 1, error=True)
        # J1 = x g, so the error in J1 is at most x_max times that in g
        worst = max(worst, err * PIECE_WIDTH * (i + 1))
        print(f"    [{literals(coeffs, ' ' * 8)}\n    ],")
    print("])")
    print(f"# largest fit error in J1 below {X0}: {mp.nstr(worst, 3)}")
    for name, part in (("_J1_P", 0), ("_J1_Q", 1)):
        coeffs, err = mp.chebyfit(lambda y: hankel_pq(y)[part], [0, 1],
                                  HANKEL_DEGREE + 1, error=True)
        print(f"{name} = ({literals(coeffs, ' ' * 4)}\n)")
        print(f"# fit error of {name[1:]} on y in [0, 1]: {mp.nstr(err, 3)}")


if __name__ == "__main__":
    main()
