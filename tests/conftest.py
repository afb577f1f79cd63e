import pytest
from helpers import shared_context

from doubled_odd import combinatorics as combinatorics_module
from doubled_odd import covering as covering_module

# the package's per-m memos: the neighbour tables of the doubled Odd graph
# and of the Odd graph; the orbit index is a run's own (CheckContext)
_PER_M_MEMOS = (
    combinatorics_module._neighbours,
    covering_module._odd_neighbours,
)


@pytest.fixture(scope="session")
def ctx_for():
    """Shared per-m construction contexts so expensive builds happen once."""
    return shared_context


@pytest.fixture
def fresh_memos():
    """Empty the per-m memos before and after the test, so that a test that
    counts constructions sees them and no entry built on monkeypatched
    data outlives it."""
    for memo in _PER_M_MEMOS:
        memo.cache_clear()
    yield
    for memo in _PER_M_MEMOS:
        memo.cache_clear()
