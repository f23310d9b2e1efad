from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tripmaps.domain import (
    ERGODIC_TRIPLES,
    PERMUTATION_LABELS,
    PermutationTriple,
    TrianglePoint,
    in_triangle,
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
