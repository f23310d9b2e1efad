"""End-to-end acceptance suite: one test per claim of tripmaps.claims.

The registry holds each claim with its tolerance, and `tripmaps verify`
runs the same list, so the tests and the verb gate the same values.  The
independent oracles (mpmath and scipy, closed forms, second quadrature
routes) live in the per-module tests and in the benchmark's checks.
"""

import pytest

from tripmaps.claims import CLAIMS


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.name)
def test_claim(claim):
    value = claim.run()
    assert value < claim.tol, f"{claim.name}: {value!r} is not below {claim.tol!r}"
