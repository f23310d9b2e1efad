import pytest

from tripmaps.domain import PermutationTriple, interior_points, supported_triples


@pytest.fixture(scope="session")
def all_triples():
    return [PermutationTriple(*k) for k in supported_triples()]


@pytest.fixture(scope="session")
def sample_points():
    return interior_points(20240521, 12)
