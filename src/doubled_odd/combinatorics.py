"""Vertices, distances and distance-regularity data of doubled Odd graphs.

For the ground set S = {1, ..., 2m+1} the doubled Odd graph has all m-subsets
and all (m+1)-subsets of S as vertices, two of them adjacent exactly when one
strictly contains the other.  Subsets are stored as integer bitmasks (bit e-1
set <=> element e present), so sizes and intersections are popcounts.  The
canonical vertex order -- all m-subsets before all (m+1)-subsets, each group
by ascending mask value -- fixes every matrix row/column index in the package.

The graph is bipartite with diameter 2m+1, and the distance between vertices
y and z is |y| + |z| - 2|y n z|; a breadth-first search oracle for this
formula lives in the test suite, not here.  The intersection numbers are
read off the structure constants of the orbits of the base-vertex stabilizer
(orbits), which is built on this module and so imported where it is used.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .linalg import SparseExactMatrix


class GroundSet:
    """The point set S = {1, ..., 2m+1} of one doubled Odd graph.

    Immutable, and equal to (and hashed like) every GroundSet of the same m.
    """

    __slots__ = ("m",)

    def __init__(self, m: int):
        # bool is an int subclass, but True is not a size
        if type(m) is bool or not isinstance(m, int) or m < 1:
            raise ValueError(f"m must be a positive integer, got {m!r}")
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash((self.m,))

    def __repr__(self):
        return f"GroundSet(m={self.m!r})"

    @property
    def n_points(self) -> int:
        return 2 * self.m + 1

    @property
    def diameter(self) -> int:
        return 2 * self.m + 1

    @property
    def full_mask(self) -> int:
        return (1 << self.n_points) - 1

    @property
    def base_vertex(self) -> int:
        """The distinguished base vertex {1, ..., m} as a bitmask."""
        return (1 << self.m) - 1


class DistanceRegularityError(Exception):
    """Witness that some intersection number depends on the chosen pair."""

    def __init__(self, x: int, y: int, i: int, j: int):
        self.x, self.y, self.i, self.j = x, y, i, j
        super().__init__(
            f"intersection count for (i={i}, j={j}) differs at the pair "
            f"x={sorted(elements_of(x))}, y={sorted(elements_of(y))}"
        )


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def vertex_count(g: GroundSet) -> int:
    return 2 * comb(g.n_points, g.m)


@lru_cache(maxsize=32)
def _vertices(m: int) -> tuple[int, ...]:
    n = 2 * m + 1
    def masks(k: int) -> list[int]:
        return sorted(sum(1 << b for b in combo) for combo in combinations(range(n), k))
    return tuple(masks(m) + masks(m + 1))


@lru_cache(maxsize=32)
def _vertex_index(m: int) -> dict[int, int]:
    return {v: i for i, v in enumerate(_vertices(m))}


def enumerate_vertices(g: GroundSet) -> list[int]:
    """All vertices as bitmasks in the canonical order."""
    return list(_vertices(g.m))


def distance(y: int, z: int) -> int:
    """Graph distance |y| + |z| - 2|y n z| between two vertex bitmasks."""
    return y.bit_count() + z.bit_count() - 2 * (y & z).bit_count()


def adjacency_matrix(g: GroundSet) -> SparseExactMatrix:
    """0/1 adjacency matrix in the canonical vertex order."""
    verts = _vertices(g.m)
    index = _vertex_index(g.m)
    half = comb(g.n_points, g.m)
    n = len(verts)
    rows: dict[int, dict[int, object]] = {}
    full = g.full_mask
    for yi in range(half):
        y = verts[yi]
        rest = full & ~y
        while rest:
            bit = rest & -rest
            rest ^= bit
            zi = index[y | bit]
            rows.setdefault(yi, {})[zi] = 1
            rows.setdefault(zi, {})[yi] = 1
    return SparseExactMatrix(n, n, rows)


class IntersectionNumbers(NamedTuple):
    """The table p^h_{ij} = #{z : d(x,z) = i, d(z,y) = j} for d(x,y) = h."""

    m: int
    table: dict[tuple[int, int, int], int]

    def p(self, h: int, i: int, j: int) -> int:
        return self.table.get((h, i, j), 0)

    @property
    def valency(self) -> int:
        return self.p(0, 1, 1)


def intersection_numbers(g: GroundSet) -> IntersectionNumbers:
    """Every p^h_{ij}, read off the certified structure constants of the
    stabilizer's orbit matrices, held by the one orbit index per m
    (orbits.OrbitCoordinates), with the first pair of each orbit.

    Each orbit of vertex pairs lies at one distance, read off its label
    (orbits._orbit_distance), and its structure constants count, for its
    pairs (x, y), the vertices z by the orbits of (x, z) and (z, y); summed
    by d(x, z) and d(z, y), they give the counts of the exhaustive pass over
    all pairs.  Raises DistanceRegularityError with the first offending
    witness if any count depends on the chosen pair (it never should).
    """
    # orbits is built on this module, so it is imported here, not at the top
    from .orbits import _orbit_coordinates, _orbit_distance

    coords = _orbit_coordinates(g.m)
    dist = [_orbit_distance(g.m, lab) for lab in coords.labels]
    firsts = list(map(coords.first_pair, range(len(dist))))
    table = _orbit_intersection_table(_vertices(g.m), firsts, coords.products, dist)
    return IntersectionNumbers(m=g.m, table=table)


def _orbit_intersection_table(verts, firsts, index, dist: list[int]) -> dict[tuple[int, int, int], int]:
    """p^h_{ij} of the distance table that puts every pair of orbit c at
    distance dist[c], from the product index of the orbits' structure
    constants (orbits.OrbitCoordinates.products); firsts[c] is the first
    pair (x, y) of orbit c, as vertex indices.

    Every entry (c, p^c_{ab}) of index[a][b] adds p^c_{ab} to the count of
    orbit c at dist[a] * width + dist[b].  The table and the witness are
    those an exhaustive pass over all vertex triples of the n x n distance
    table would give: orbits are numbered by their first pair, so the first
    pair of the least orbit whose counts differ from those of the least
    orbit at the same distance is the first offending pair in row-major
    order.
    """
    width = 1 + max(dist)
    counts: list[dict[int, int]] = [{} for _ in dist]
    for a, products in enumerate(index):
        row_key = dist[a] * width
        for b, entries in products.items():
            key = row_key + dist[b]
            for c, p in entries:
                count = counts[c]
                count[key] = count.get(key, 0) + p
    profiles: dict[int, dict[int, int]] = {}
    for c, (h, count) in enumerate(zip(dist, counts)):
        known = profiles.setdefault(h, count)
        if known is not count and known != count:
            x, y = firsts[c]
            raise _witness(verts[x], verts[y], known, count, width)
    return _table(profiles, width)


def _witness(x: int, y: int, known: dict[int, int], here: dict[int, int], width: int) -> DistanceRegularityError:
    # the least key i * width + j whose count differs between the two profiles
    key = min(k for k in known.keys() | here.keys() if known.get(k, 0) != here.get(k, 0))
    return DistanceRegularityError(x, y, *divmod(key, width))


def _table(profiles: dict[int, dict[int, int]], width: int) -> dict[tuple[int, int, int], int]:
    return {
        (h, *divmod(key, width)): count
        for h in sorted(profiles)
        for key, count in sorted(profiles[h].items())
    }
