import pytest
from hypothesis import given, strategies as st

from tripmaps.domain import (
    ERGODIC_TRIPLES,
    PERMUTATION_LABELS,
    PermutationTriple,
    TrianglePoint,
    in_triangle,
    parse_triple,
    supported_triples,
)
from tripmaps.errors import OutsideTriangle, ParseError, UnsupportedTriple
from tripmaps.tables.banach import BANACH
from tripmaps.tables.eigen import DENSITIES, EIGENFUNCTIONS
from tripmaps.tables.hilbert_rows import HILBERT


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


@given(st.floats(0, 1), st.floats(0, 1))
def test_in_triangle_membership(a, b):
    assert in_triangle((a, b)) == (0.0 < b < a < 1.0)


def test_ergodic_triples_are_flagged():
    assert set(ERGODIC_TRIPLES) == {("e", "e", "e"), ("e", "23", "e")}
    # digit statistics are asserted against the invariant density
    assert set(ERGODIC_TRIPLES) <= set(DENSITIES)


def test_labels():
    assert PERMUTATION_LABELS == ("e", "12", "13", "23", "123", "132")
