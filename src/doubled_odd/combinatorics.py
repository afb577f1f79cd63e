"""Vertices, distances and distance-regularity data of doubled Odd graphs.

For the ground set S = {1, ..., 2m+1} the doubled Odd graph has all m-subsets
and all (m+1)-subsets of S as vertices, two of them adjacent exactly when one
strictly contains the other.  Subsets are stored as integer bitmasks (bit e-1
set <=> element e present), so sizes and intersections are popcounts.  The
canonical vertex order -- all m-subsets before all (m+1)-subsets, each group
by ascending mask value -- fixes every matrix row/column index in the package.
The package names a graph by m alone: every function takes m: int, and the
base vertex x0 = {1, ..., m} is the mask (1 << m) - 1, the first vertex.
The adjacency A_1 is held as one neighbour table (_neighbours), which
lemma41, psi-intertwining and the cross-check of A_1's atom moves read; no
adjacency matrix is built.

The graph is bipartite with diameter 2m+1, and the distance between vertices
y and z is |y| + |z| - 2|y n z|, which the orbit index reads off each orbit's
label; lemma41 and psi-intertwining take its spheres around x0 from
breadth-first search (_radii), and the formula's oracles live in the tests.
The intersection numbers are read off A_1 A_i in the orbit coordinates of the
base-vertex stabilizer (orbits.OrbitCoordinates, passed in), and the rest
follow from the three-term recurrence of a distance-regular graph (Brouwer,
Cohen and Neumaier, Distance-Regular Graphs, 1989).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple


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


def vertex_count(m: int) -> int:
    return 2 * comb(2 * m + 1, m)


@lru_cache(maxsize=32)
def _vertices(m: int) -> tuple[int, ...]:
    n = 2 * m + 1
    def masks(k: int) -> list[int]:
        return sorted(sum(1 << b for b in combo) for combo in combinations(range(n), k))
    return tuple(masks(m) + masks(m + 1))


@lru_cache(maxsize=32)
def _vertex_index(m: int) -> dict[int, int]:
    return {v: i for i, v in enumerate(_vertices(m))}


def enumerate_vertices(m: int) -> list[int]:
    """All vertices as bitmasks in the canonical order."""
    return list(_vertices(m))


@lru_cache(maxsize=32)
def _neighbours(m: int) -> tuple[tuple[int, ...], ...]:
    """The graph as one neighbour table: entry y lists, ascending, the
    indices of the m + 1 neighbours of vertex y, the vertices with one point
    more or one point less.  The only place the package lists them."""
    verts, index = _vertices(m), _vertex_index(m)
    return tuple(
        tuple(sorted(index[y ^ 1 << k] for k in range(2 * m + 1) if y ^ 1 << k in index)) for y in verts
    )


def _distances_from(neighbours, start: int) -> list[int]:
    """Breadth-first search over a neighbour table, of either graph: the
    distance of every vertex from start, -1 for a vertex it does not reach."""
    dist = [-1] * len(neighbours)
    dist[start] = 0
    reached = [start]
    for a in reached:
        for b in neighbours[a]:
            if dist[b] < 0:
                dist[b] = dist[a] + 1
                reached.append(b)
    return dist


def _radii(m: int) -> list[int]:
    """The distance of every vertex from x0, the first vertex, by
    breadth-first search over the neighbour table."""
    return _distances_from(_neighbours(m), 0)


class IntersectionNumbers(NamedTuple):
    """The table p^h_{ij} = #{z : d(x,z) = i, d(z,y) = j} for d(x,y) = h."""

    m: int
    table: dict[tuple[int, int, int], int]

    def p(self, h: int, i: int, j: int) -> int:
        return self.table.get((h, i, j), 0)

    @property
    def valency(self) -> int:
        return self.p(0, 1, 1)


def intersection_numbers(coords) -> IntersectionNumbers:
    """Every p^h_{ij}, from A_1 A_i in the orbit coordinates coords (an
    orbits.OrbitCoordinates), each orbit at the distance its label gives.
    Raises DistanceRegularityError with the first offending witness if any
    count depends on the chosen pair (it never should)."""
    return IntersectionNumbers(m=coords.m, table=_recurrence_table(coords, coords.distance_of))


def _recurrence_table(coords, dist) -> dict[tuple[int, int, int], int]:
    """p^h_{ij} of the distance table that puts every pair of orbit c at
    distance dist[c], keyed (h, i, j) ascending, nonzero entries only.

    The coefficient of O_c in A_1 A_i, A_i the indicator of the orbits at
    distance i, counts for a pair (x, y) of c the neighbours z of x with
    d(z, y) = i.  The graph is distance-regular exactly when that count
    depends on h = d(x, y) alone and vanishes unless |h - i| <= 1.  The
    orbits are walked in the order of their first pairs, so the witness,
    the first pair of the first orbit that breaks it, is the first such
    pair in row-major order, with (1, i) for the least such i.  Then
    every p^h_{ij} follows from A_0 = I and the recurrence
    c_{i+1} A_{i+1} A_j = A_1 A_i A_j - a_i A_i A_j - b_{i-1} A_{i-1} A_j,
    where A_1 A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}, c_{i+1} >= 1.
    """
    width = 1 + max(dist)
    pushed = [coords.left(coords.adjacency, {c: 1 for c, h in enumerate(dist) if h == i}) for i in range(width)]
    # one[h][i] = p^h_{1i}, read off the first orbit at distance h
    one: dict[int, list[int]] = {}
    for c in sorted(range(len(dist)), key=coords.first_pair):
        h, here = dist[c], [v.get(c, 0) for v in pushed]
        known = one.setdefault(h, here)
        bad = [i for i, k in enumerate(here) if k != known[i] or (k and abs(h - i) > 1)]
        if bad:
            x, y = map(_vertices(coords.m).__getitem__, coords.first_pair(c))
            raise DistanceRegularityError(x, y, 1, bad[0])
    # p[i][j][h] = p^h_{ij}
    span = range(width)
    p = [[[int(h == j) for h in span] for j in span], [[one[h][j] for h in span] for j in span]]
    for i in range(1, width - 1):
        a, b, c = one[i][i], one[i - 1][i], one[i + 1][i]
        p.append([
            [(sum(pj[k] * one[h][k] for k in span) - a * pj[h] - b * qj[h]) // c for h in span]
            for pj, qj in zip(p[i], p[i - 1])
        ])
    return {(h, i, j): p[i][j][h] for h in span for i in span for j in span if p[i][j][h]}
