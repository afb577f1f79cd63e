import pytest

from doubled_odd import combinatorics as combinatorics_module
from doubled_odd import covering as covering_module
from doubled_odd import orbits as orbits_module
from doubled_odd.checks import CheckContext

_contexts: dict[int, CheckContext] = {}

# the per-m memos: the one orbit index, which holds A_1's push tables, and
# the neighbour tables of the doubled Odd graph and of the Odd graph
_PER_M_MEMOS = (
    orbits_module._orbit_coordinates,
    combinatorics_module._neighbours,
    covering_module._odd_neighbours,
)


@pytest.fixture(scope="session")
def ctx_for():
    """Shared per-m construction contexts so expensive builds happen once."""

    def get(m: int) -> CheckContext:
        if m not in _contexts:
            _contexts[m] = CheckContext(m)
        return _contexts[m]

    return get


@pytest.fixture
def fresh_memos():
    """Empty the per-m memos before and after the test, so that a test that
    counts constructions sees them and no entry built on monkeypatched orbit
    data outlives it."""
    for memo in _PER_M_MEMOS:
        memo.cache_clear()
    yield
    for memo in _PER_M_MEMOS:
        memo.cache_clear()
