"""The doubled Odd graph as an antipodal 2-cover of the Odd graph.

The Odd graph on S = {1, ..., 2m+1} has the m-subsets as vertices, adjacent
when disjoint (m = 2 gives the Petersen graph).  Collapsing each vertex z of
the doubled graph onto the m-subset pi(z) = z if |z| = m, else S - z, folds
antipodal pairs together and maps the doubled graph 2-to-1 onto the Odd
graph.  The covering matrix psi has one row per Odd-graph vertex and one
column per doubled-graph vertex, with a 1 exactly where pi(column) = row:
every column holds a single 1, every row exactly two, and psi psi^T = 2I.

verify_intertwining checks the two transport identities of the fold:
adjacency satisfies psi A_1 = A_1(Odd) psi, and the spheres around the base
vertex satisfy E*_i(Odd) psi = psi (E*_i + E*_{2m+1-i}) for 0 <= i <= m.
The adjacency matrix is built from neighbours: the m-subsets disjoint from y
are the m + 1 sets (S - y) - {k}, k in S - y, with no scan over pairs.
Odd-graph distances come from breadth-first search over its rows; nothing
here assumes a closed distance formula.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from math import comb

from .combinatorics import GroundSet, _vertex_index, _vertices, adjacency_matrix
from .linalg import SparseExactMatrix
from .terwilliger import IdentityCheck, dual_idempotent


def odd_vertices(g: GroundSet) -> list[int]:
    """The m-subsets of S in canonical (ascending bitmask) order."""
    half = comb(g.n_points, g.m)
    return list(_vertices(g.m)[:half])


def odd_adjacency(g: GroundSet) -> SparseExactMatrix:
    """Disjointness adjacency matrix of the Odd graph (shared, do not mutate)."""
    return _odd_adjacency(g.m)


@lru_cache(maxsize=8)
def _odd_adjacency(m: int) -> SparseExactMatrix:
    # the m-subsets disjoint from y are the m + 1 sets (S - y) - {k}, k in S - y
    g = GroundSet(m)
    verts = odd_vertices(g)
    pos = _vertex_index(m)  # the m-subsets come first in the vertex order
    rows: dict[int, dict[int, object]] = {}
    for a, y in enumerate(verts):
        rest = g.full_mask & ~y
        neighbours = (pos[rest & ~(1 << k)] for k in range(g.n_points) if rest >> k & 1)
        rows[a] = dict.fromkeys(sorted(neighbours), 1)
    return SparseExactMatrix(len(verts), len(verts), rows)


@lru_cache(maxsize=8)
def _odd_distances_from_base(m: int) -> tuple[int, ...]:
    # breadth-first search from x0 over the rows of the adjacency matrix
    g = GroundSet(m)
    neighbours = _odd_adjacency(m)._rows
    dist = [-1] * len(neighbours)
    start = _vertex_index(m)[g.base_vertex]
    dist[start] = 0
    queue = deque([start])
    while queue:
        a = queue.popleft()
        for b in neighbours[a]:
            if dist[b] < 0:
                dist[b] = dist[a] + 1
                queue.append(b)
    if min(dist) < 0:
        raise RuntimeError("Odd graph is disconnected; this cannot happen")
    return tuple(dist)


def odd_sphere_diagonal(g: GroundSet, i: int) -> SparseExactMatrix:
    """Diagonal projection onto Odd-graph vertices at BFS distance i from x0."""
    dist = _odd_distances_from_base(g.m)
    if not 0 <= i <= max(dist):
        raise ValueError(f"sphere index {i} outside [0, {max(dist)}]")
    n = len(dist)
    rows = {a: {a: 1} for a, d in enumerate(dist) if d == i}
    return SparseExactMatrix(n, n, rows)


def fold(g: GroundSet, z: int) -> int:
    """pi(z): the m-subset a doubled-graph vertex folds onto."""
    if z.bit_count() == g.m:
        return z
    return g.full_mask & ~z


def build_psi(g: GroundSet) -> SparseExactMatrix:
    """The 0/1 covering matrix, rows 1..C(2m+1, m), columns the doubled graph."""
    doubled = _vertices(g.m)
    half = comb(g.n_points, g.m)
    odd_pos = {v: i for i, v in enumerate(doubled[:half])}
    rows: dict[int, dict[int, object]] = {}
    for zi, z in enumerate(doubled):
        rows.setdefault(odd_pos[fold(g, z)], {})[zi] = 1
    return SparseExactMatrix(half, len(doubled), rows)


def verify_intertwining(g: GroundSet) -> list[IdentityCheck]:
    """Structural checks of psi plus both transport identities."""
    psi = build_psi(g)
    half, n = psi.nrows, psi.ncols
    results: list[IdentityCheck] = []

    col_counts: dict[int, int] = {}
    row_ok = True
    for r, row in psi._rows.items():
        if sum(row.values()) != 2:
            row_ok = False
        for c in row:
            col_counts[c] = col_counts.get(c, 0) + 1
    results.append(IdentityCheck("psi-row-sums-two", row_ok and len(psi._rows) == half))
    results.append(
        IdentityCheck(
            "psi-column-sums-one",
            len(col_counts) == n and all(v == 1 for v in col_counts.values()),
        )
    )
    two_identity = SparseExactMatrix.identity(half).scale(2)
    results.append(IdentityCheck("psi-psiT-twice-identity", psi @ psi.transpose() == two_identity))

    a1_doubled = adjacency_matrix(g)
    a1_odd = odd_adjacency(g)
    results.append(
        IdentityCheck("adjacency-transport", psi @ a1_doubled == a1_odd @ psi)
    )

    sphere_ok = True
    for i in range(g.m + 1):
        lhs = odd_sphere_diagonal(g, i) @ psi
        rhs = psi @ (dual_idempotent(g, i) + dual_idempotent(g, g.diameter - i))
        if lhs != rhs:
            sphere_ok = False
    results.append(IdentityCheck("sphere-transport", sphere_ok))
    return results
