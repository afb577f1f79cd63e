"""The doubled Odd graph as an antipodal 2-cover of the Odd graph.

The Odd graph on S = {1, ..., 2m+1} has the m-subsets as vertices, adjacent
when disjoint (m = 2 gives the Petersen graph).  Collapsing each vertex z of
the doubled graph onto the m-subset pi(z) = z if |z| = m, else S - z, folds
antipodal pairs together and maps the doubled graph 2-to-1 onto the Odd
graph.  The covering matrix psi has one row per Odd-graph vertex and one
column per doubled-graph vertex, with a 1 exactly where pi(column) = row:
every column holds a single 1, every row exactly two, and psi psi^T = 2I.

verify_intertwining checks those facts and the transport identities
psi A_1 = A_1(Odd) psi and E*_i(Odd) psi = psi (E*_i + E*_{2m+1-i}),
0 <= i <= m, on the fold map (_fold_image), with no matrix product; the
export writes psi from the same map.  Both graphs are neighbour tables:
the doubled graph's is combinatorics._neighbours, and the m-subsets
disjoint from y are the m + 1 sets (S - y) - {k}, k in S - y.  Distances
from x0 in both graphs come from breadth-first search over those tables
(combinatorics._distances_from), not from a formula or the orbit index.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb

from .combinatorics import GroundSet, _distances_from, _neighbours, _radii, _vertex_index, _vertices


def odd_vertices(g: GroundSet) -> list[int]:
    """The m-subsets of S in canonical (ascending bitmask) order."""
    half = comb(g.n_points, g.m)
    return list(_vertices(g.m)[:half])


@lru_cache(maxsize=8)
def _odd_neighbours(m: int) -> tuple[tuple[int, ...], ...]:
    """The Odd graph as a neighbour table: entry a lists, ascending, the
    indices of the m-subsets disjoint from the a-th, (S - y) - {k} for each
    k in S - y."""
    g = GroundSet(m)
    pos = _vertex_index(m)  # the m-subsets come first in the vertex order
    table = []
    for y in odd_vertices(g):
        rest = g.full_mask & ~y
        table.append(tuple(sorted(pos[rest & ~(1 << k)] for k in range(g.n_points) if rest >> k & 1)))
    return tuple(table)


@lru_cache(maxsize=8)
def _odd_distances_from_base(m: int) -> tuple[int, ...]:
    # breadth-first search from x0, the first m-subset, over the neighbour table
    return tuple(_distances_from(_odd_neighbours(m), 0))


def fold(g: GroundSet, z: int) -> int:
    """pi(z): the m-subset a doubled-graph vertex folds onto."""
    if z.bit_count() == g.m:
        return z
    return g.full_mask & ~z


def _fold_image(g: GroundSet) -> list[int]:
    """image[z] is the index of pi(z) for each doubled-graph vertex z, the
    row of the one 1 of column z of psi."""
    pos = _vertex_index(g.m)  # the m-subsets come first in the vertex order
    return [pos[fold(g, z)] for z in _vertices(g.m)]


def verify_intertwining(g: GroundSet) -> dict[str, bool]:
    """The identities of psi, name -> verdict, each read off the fold map:
    image[z] is the index of pi(z), and psi[u, z] = [image[z] = u].

    * psi psi^T is diagonal with the fibre sizes, which are also psi's row
      sums: psi-row-sums-two and psi-psiT-twice-identity both say that
      every fibre has two vertices.
    * psi-column-sums-one: every image[z] is below C(2m+1, m).
    * adjacency-transport: column z of psi A_1 counts the images of z's
      neighbours (both graphs are undirected), and that of A_1(Odd) psi is
      the Odd-graph neighbours of image[z], each once.
    * sphere-transport: for r the radius of z (combinatorics._radii),
      column z of both sides is row image[z] or 0 for every i <= m
      exactly when odd_dist[image[z]] = min(r, 2m+1-r).
    """
    m, half, diam = g.m, comb(g.n_points, g.m), g.diameter
    image = _fold_image(g)
    fibres = Counter(image)
    fibres_two = all(fibres[u] == 2 for u in range(half))
    in_odd = all(u < half for u in image)
    odd = _odd_neighbours(m)
    transported = in_odd and all(
        Counter(image[w] for w in row) == dict.fromkeys(odd[image[z]], 1)
        for z, row in enumerate(_neighbours(m))
    )
    odd_dist = _odd_distances_from_base(m)
    spheres_fold = in_odd and all(odd_dist[u] == min(r, diam - r) for u, r in zip(image, _radii(m)))
    return {
        "psi-row-sums-two": fibres_two,
        "psi-column-sums-one": in_odd,
        "psi-psiT-twice-identity": fibres_two,
        "adjacency-transport": transported,
        "sphere-transport": spheres_fold,
    }
