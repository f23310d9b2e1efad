import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tripmaps import gausskuzmin, hilbert, maps, specfun, spectral, transfer
from tripmaps.domain import (
    ERGODIC_TRIPLES,
    PERMUTATION_LABELS,
    PermutationTriple,
    TrianglePoint,
    in_triangle,
    integer,
    interior_points,
    parse_triple,
    supported_triples,
)
from tripmaps.errors import OutsideTriangle, ParseError, UnsupportedTriple
from tripmaps.tables.banach import BANACH
from tripmaps.tables.eigen import DENSITIES, EIGENFUNCTIONS
from tripmaps.tables.forward import FORWARD
from tripmaps.tables.hilbert_rows import HILBERT
from tripmaps.tables.transfer_rows import TRANSFER


def test_supported_count():
    assert len(supported_triples()) == 108


def test_table_coverage_counts():
    # the four capability tables cover 47 / 18 / 44 / 18 triples
    assert len(BANACH) == 47
    assert len(EIGENFUNCTIONS) == 18
    assert len(HILBERT) == 44
    assert len(DENSITIES) == 18
    sup = set(supported_triples())
    for table in (BANACH, EIGENFUNCTIONS, HILBERT, DENSITIES):
        assert set(table) <= sup


def _row_functions():
    """(name, f, number of arguments) of every function of the rational
    tables: the forward, transfer, Banach, eigenfunction and kernel-form
    rows.  The densities carry pi, so they are left out."""
    for key, row in FORWARD.items():
        yield f"forward {key}", row.f, 4
    for key, row in TRANSFER.items():
        yield f"weight {key}", row.weight, 4
        yield f"branch {key}", row.branch, 4
    for key, row in BANACH.items():
        yield f"g {key}", row.g, 2
        yield f"summand {key}", row.summand, 3
    for key, h in EIGENFUNCTIONS.items():
        yield f"eigenfunction {key}", h, 2
    for key, row in HILBERT.items():
        for name in ("l", "j", "h", "arg"):
            yield f"{name} {key}", getattr(row, name), 2


def test_rational_rows_stay_fractions():
    # exact evaluation needs plain Fraction in, Fraction out: a float
    # literal in a row would turn the value float
    points = [(Fraction(3, 5), Fraction(1, 5)), (Fraction(7, 9), Fraction(2, 3)),
              (Fraction(1, 2), Fraction(1, 7))]
    for name, f, n in _row_functions():
        evaluated = 0
        for x, y in points:
            for k in ((0, 1, 2, 7) if n > 2 else (0,)):
                k, sign = Fraction(k), Fraction((-1) ** k)
                args = {2: (x, y), 3: (k, x, y), 4: (k, x, y, sign)}[n]
                try:
                    value = f(*args)
                except ZeroDivisionError:
                    # the point lies on a pole of the row
                    continue
                values = value if isinstance(value, tuple) else (value,)
                assert all(type(v) is Fraction for v in values), (name, args, value)
                evaluated += 1
        assert evaluated, name


def test_parse_roundtrip():
    t = parse_triple("123, 132 ,132")
    assert t.key == ("123", "132", "132")
    assert parse_triple(str(t)) == t


@pytest.mark.parametrize("bad", ["e,e", "e,e,e,e", "a,b,c", "", "e;e;e", "e,,e"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_triple(bad)


def test_unsupported_triple():
    # valid labels but no polynomial-behavior row
    with pytest.raises(UnsupportedTriple):
        PermutationTriple("e", "e", "132")


def test_triangle_point_validation():
    TrianglePoint(0.5, 0.25)
    for (x, y) in ((0.25, 0.5), (0.5, 0.5), (1.0, 0.5), (0.5, 0.0), (-0.1, -0.2)):
        with pytest.raises(OutsideTriangle):
            TrianglePoint(x, y)


@pytest.mark.parametrize("margin", [1.0 / 3.0, 0.34, 0.5, -1e-3, float("nan")])
def test_interior_points_rejects_a_margin_no_point_meets(margin):
    # from 1/3 on no point has margin < y < x - margin and x < 1 - margin,
    # and the rejection loop would never return
    with pytest.raises(ValueError, match="margin"):
        interior_points(0, 1, margin=margin)


def test_interior_points_keep_their_margin():
    for margin in (0.0, 1e-3, 0.08, 0.3):
        for p in interior_points(7, 20, margin=margin):
            assert margin < p.y < p.x - margin and p.x < 1 - margin


@given(st.floats(0, 1), st.floats(0, 1))
def test_in_triangle_membership(a, b):
    assert in_triangle((a, b)) == (0.0 < b < a < 1.0)


def test_ergodic_triples_are_flagged():
    assert set(ERGODIC_TRIPLES) == {("e", "e", "e"), ("e", "23", "e")}
    # digit statistics are asserted against the invariant density
    assert set(ERGODIC_TRIPLES) <= set(DENSITIES)


def test_labels():
    assert PERMUTATION_LABELS == ("e", "12", "13", "23", "123", "132")


EEE = PermutationTriple("e", "e", "e")
P = TrianglePoint(0.5, 0.25)

# (name, lowest value, call) of every integer argument of the library
# outside the CLI, which checks its settings itself
_INTEGER_ARGUMENTS = {
    "digits": ("k_max", 0, lambda v: maps.digits(EEE.key, [0.5], [0.25], v)),
    "branch_roundtrip": ("k_max", 0, lambda v: maps.branch_roundtrip(EEE, v, [P])),
    "apply_branch_formula": ("k", 0, lambda v: maps.apply_branch_formula(EEE, v, P)),
    "branch_point": ("k", 0, lambda v: transfer.branch_point(EEE, v, P)),
    "weight": ("k", 0, lambda v: transfer.weight(EEE, v, P)),
    "jacobian_residual": ("k", 0, lambda v: transfer.jacobian_residual(EEE, v, P)),
    "TruncationPolicy": ("k_max", 1, lambda v: transfer.TruncationPolicy(k_max=v)),
    "empirical_digits-n": ("n", 1, lambda v: gausskuzmin.empirical_digits(EEE, v, 1)),
    "empirical_digits-seed": ("seed", 0, lambda v: gausskuzmin.empirical_digits(EEE, 1, v)),
    "p_closed_eee": ("k", 0, gausskuzmin.p_closed_eee),
    "p_integral_e23e": ("k", 0, gausskuzmin.p_integral_e23e),
    "invariance_check": ("seed", 0, lambda v: gausskuzmin.invariance_check(EEE, seed=v)),
    "eta": ("k", 0, lambda v: hilbert.eta(v, 2.0)),
    "laguerre_expansion_partial": ("K", 0, lambda v: hilbert.laguerre_expansion_partial(
        EEE, hilbert.eta_profile(0), P, v)),
    "_laguerre1_rows": ("k", 0, lambda v: specfun._laguerre1_rows(v, np.array([1.0]))),
    "laguerre1": ("k", 0, lambda v: specfun.laguerre1(v, 1.0)),
    "GridSpec": ("density", 2, lambda v: spectral.GridSpec(density=v)),
    "monotonicity_check-n": ("n", 1, lambda v: spectral.monotonicity_check(EEE, n=v)),
    "monotonicity_check-trials": ("trials", 1,
                                  lambda v: spectral.monotonicity_check(EEE, trials=v)),
    "monotonicity_check-branches": ("branches", 1,
                                    lambda v: spectral.monotonicity_check(EEE, branches=v)),
    "monotonicity_check-seed": ("seed", 0, lambda v: spectral.monotonicity_check(EEE, seed=v)),
    "interior_points-seed": ("seed", 0, lambda v: interior_points(v, 1)),
    "interior_points-count": ("count", 0, lambda v: interior_points(0, v)),
}


@pytest.mark.parametrize("bad", [True, 2.5, np.float64(2.0), "below"],
                         ids=["bool", "float", "numpy-float", "below"])
@pytest.mark.parametrize("argument", _INTEGER_ARGUMENTS)
def test_integer_arguments_are_named(argument, bad):
    # True ran as 1, 2.5 and 2.0 ran or raised errors that name no
    # argument, and so did values below the bound where none was checked
    name, low, call = _INTEGER_ARGUMENTS[argument]
    if bad == "below":
        bad = low - 1
        message = f"{name} must be non-negative" if low == 0 else f"{name} must be at least {low}"
    else:
        message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("value", [7, np.uint8(255), np.uint64(2 ** 64 - 1), 10 ** 30])
def test_integer_returns_a_python_int(value):
    got = integer("k", value)
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [np.bool_(True), None, "3", 3 + 0j, Fraction(3)])
def test_integer_rejects_what_is_no_int(value):
    with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(repr(value))}$"):
        integer("k", value)
