"""The Terwilliger algebra of a doubled Odd graph at the base vertex.

The dual idempotent E*_i is the diagonal 0/1 projection onto the sphere of
radius i around x0 = {1, ..., m}.  The Terwilliger algebra T is the matrix
algebra generated by the distance matrices A_0, ..., A_{2m+1} together with
E*_0, ..., E*_{2m+1}.  build_terwilliger closes under A_1 and the E*_i only
and then certifies exactly that every other A_i, the indicator of the
orbits at distance i, lies in the result, so the smaller generating set is
checked rather than assumed.  T and its centre Z(T) live in the orbit
coordinates Q^d of a label scheme (orbits.LabelScheme), which lists no
vertex: E*_i keeps the orbits that start in its sphere, a row block of the
closure, so T is closed, and Z(T) solved on T's diagonal blocks
(center_basis), under A_1 alone, which moves one Venn atom.  The checks
pass the doubled Odd graph's certified orbit index (orbits.OrbitCoordinates,
d = 4 C(m+4, 4)); T is closed and Z(T) solved on every run, and only the
matrix export writes T out as n x n matrices.  Everything T is generated
by lies inside the centralizer algebra of the stabilizer of x0: each E*_i
is a single diagonal orbit matrix and each sandwich E*_i A_1 E*_{i+1} is a
single off-diagonal orbit matrix, with explicit four-tuple labels.  verify_sandwich_identities
checks those identifications by orbit label and count: each edge of the
neighbour table (combinatorics._neighbours) is sorted into its orbit
through the orbit index and tallied by the spheres it joins, since each
sandwich E*_i A_1 E*_j is the restriction of A_1 from sphere i to sphere
j, and no n x n matrix is built.

For m >= 3 the two algebras are expected to coincide, with

    dim T = 4 C(m+4, 4),    dim Z(T) = floor((m+2)^2 / 4),

and T decomposes into floor((m-d)/2) + 1 copies of a (2d+2) x (2d+2) full
matrix algebra for each d = 0..m; upsilon() and block_profile() expose the
bookkeeping behind those two counts.  At m = 1, 2 the same computations run
but their outcomes are reported as findings, not assertions.
"""

from __future__ import annotations

from typing import NamedTuple

from .combinatorics import _neighbours, _radii
from .linalg import (
    NotClosedError,
    ShapeMismatchError,
    SpanBasis,
    algebra_closure,
    centralizer_within,
)
from .orbits import BlockTag, LabelScheme, OrbitCoordinates, OrbitLabel


class TerwilligerAlgebra(NamedTuple):
    """The Terwilliger algebra as a closed span in orbit coordinates.

    basis is the RREF basis of T in the orbit coordinates Q^d of scheme.
    iterations is the generator actions the closure that produced it
    evaluated (ClosureResult.iterations), None for a span built otherwise.
    """

    scheme: LabelScheme
    basis: SpanBasis
    iterations: int | None

    @property
    def dimension(self) -> int:
        return self.basis.dimension


def build_terwilliger(scheme: LabelScheme) -> TerwilligerAlgebra:
    """T as the closure under the scheme's E*_i and A_1, computed in its
    orbit coordinates.

    T is generated by A_1 and the E*_i (Terwilliger 1992).  The scheme's row
    blocks are its spheres, so algebra_closure splits each product by
    sphere and closes under A_1 alone, one product per basis row, each row
    in one sphere.  Rather than rely on distance-regularity for the
    remaining distance matrices, each A_i, i != 1, the indicator of the
    orbits at distance i (LabelScheme.distance_classes), is tested for
    exact membership in the closure; a missing one raises NotClosedError,
    since the closure would then not be all of T.  The basis is returned in
    Q^d, as the closure left it.
    """
    closure = algebra_closure([scheme.adjacency], scheme)
    for i, orbits in enumerate(scheme.distance_classes):
        if i != 1 and not closure.basis.contains_vector(dict.fromkeys(orbits, 1)):
            raise NotClosedError(f"A_{i} is not in the algebra generated by A_1 and the E*_i")
    return TerwilligerAlgebra(scheme=scheme, basis=closure.basis, iterations=closure.iterations)


def _sandwich_label(m: int, i: int, transposed: bool) -> OrbitLabel:
    # orbit label of E*_i A_1 E*_{i+1} (or its transpose), 0 <= i <= 2m
    if i % 2 == 0:
        c = (2 * m - i) // 2
        block = BlockTag.III if transposed else BlockTag.II
        return OrbitLabel(block, (c, c, m, c))
    a = (2 * m + 1 - i) // 2
    b = (2 * m - 1 - i) // 2
    if transposed:
        return OrbitLabel(BlockTag.II, (b, a, m, b))
    return OrbitLabel(BlockTag.III, (a, b, m, b))


def _diagonal_label(m: int, i: int) -> OrbitLabel:
    # orbit label of E*_i
    if i % 2 == 0:
        c = (2 * m - i) // 2
        return OrbitLabel(BlockTag.I, (c, c, m, c))
    c = (2 * m + 1 - i) // 2
    return OrbitLabel(BlockTag.IV, (c, c, m + 1, c))


def verify_sandwich_identities(index: OrbitCoordinates) -> dict[str, bool]:
    """Exact matrix identities tying T's generators to single orbit matrices.

    Checks, name -> verdict in this order, for every admissible i:
      * E*_i equals one diagonal orbit matrix,
      * E*_i A_1 E*_{i+1} equals one orbit matrix of block II (i even) or
        III (i odd),
      * E*_{i+1} A_1 E*_i equals the transposed identification,
      * E*_i A_1 E*_j = 0 whenever |i - j| != 1 (the graph is bipartite), and
      * A_1 is the sum of all the sandwich orbit matrices.

    Each identity is checked by orbit label and count, with no n x n orbit
    matrix.  E*_i and E*_j are the 0/1 diagonal projections onto the spheres
    of radius i and j around x0, so E*_i A_1 E*_j is the restriction of A_1
    from sphere i to sphere j.  A_1's n (m + 1) entries, the edges of the
    neighbour table (combinatorics._neighbours), are read once: the orbit
    of each, through the index's one lookup (OrbitCoordinates.orbits), is
    tallied under the spheres of its two ends (OrbitCoordinates.sphere_of);
    a key of no orbit counts as no orbit.  A 0/1 matrix equals the orbit
    matrix O_a exactly when all its entries lie in orbit a and there are
    sizes[a] of them, which decides each identity: E*_i = O_a when every
    (y, y), y in sphere i, is in orbit a, |sphere i| = sizes[a] and sphere i
    is the set of vertices a breadth-first search over the neighbour table
    puts at distance i from x0 (combinatorics._radii), and A_1 is the sum
    of the sandwich orbit matrices when every entry lies in one of them and
    the entries number the sum of their sizes.  sizes[a] = |sphere| times
    a's count in its row rests on the stabilizer being transitive on each
    sphere, part (a) of the orbit certificate the index runs when it is
    built (orbits._certify_stabilizer_orbits).
    """
    m = index.m
    sizes, ids, sphere_of = index.sizes, index.id_of, index.sphere_of
    tally: dict[tuple[int, int], dict[int | None, int]] = {}
    for y, row in enumerate(_neighbours(m)):
        for z, a in zip(row, index.orbits(y, row)):
            count = tally.setdefault((sphere_of[y], sphere_of[z]), {})
            count[a] = count.get(a, 0) + 1

    def is_orbit(i: int, j: int, label: OrbitLabel) -> bool:
        a = ids[label]
        return tally.get((i, j)) == {a: sizes[a]}

    radii = _radii(m)
    results: dict[str, bool] = {}
    for i, sphere in enumerate(index.spheres):
        a = ids[_diagonal_label(m, i)]
        searched = [y for y, r in enumerate(radii) if r == i]
        ok = list(sphere) == searched and len(sphere) == sizes[a] and all(index.orbits(y, (y,)) == [a] for y in sphere)
        results[f"dual-idempotent-orbit-form[i={i}]"] = ok

    sandwich_orbits = set()
    for i in range(2 * m + 1):
        forward, backward = _sandwich_label(m, i, transposed=False), _sandwich_label(m, i, transposed=True)
        results[f"sandwich-orbit-form[i={i}]"] = is_orbit(i, i + 1, forward)
        results[f"sandwich-transpose-orbit-form[i={i}]"] = is_orbit(i + 1, i, backward)
        sandwich_orbits.update((ids[forward], ids[backward]))

    results["bipartite-sandwich-vanishing"] = all(abs(i - j) == 1 for i, j in tally)
    entries = sum(sum(count.values()) for count in tally.values())
    decomposed = entries == sum(sizes[a] for a in sandwich_orbits) and all(
        sandwich_orbits.issuperset(count) for count in tally.values()
    )
    results["adjacency-sandwich-decomposition"] = decomposed
    return results


def verify_equality(t: TerwilligerAlgebra) -> dict[str, bool]:
    """Two-sided comparison of T with the centralizer algebra, in the
    orbit coordinates Q^d of T's scheme, d its ambient_dim.

    Returns, name -> verdict in the equality report's order: dims_equal
    (dim T = d), orbit_matrices_in_T (every unit vector e_a lies in T) and
    identical_rref (T's RREF rows are the d unit rows).  The orbit matrices
    have disjoint supports, so spreading each orbit over its pairs maps Q^d
    one to one onto the span of the orbit matrices, e_a onto O_a.  Hence
    each orbit matrix lies in T exactly when e_a does, and T is the
    centralizer algebra, so that their n x n RREFs, each unique, are
    identical, exactly when T is all of Q^d, whose RREF is the identity.
    Only T is read; a basis in an ambient other than Q^d holds no e_a.
    """
    d = t.scheme.ambient_dim
    units = [{a: 1} for a in range(d)]
    in_coordinates = t.basis.ambient_dim == d
    return {
        "dims_equal": t.dimension == d,
        "orbit_matrices_in_T": in_coordinates and all(map(t.basis.contains_vector, units)),
        "identical_rref": in_coordinates and t.basis.rows == units,
    }


def center_basis(t: TerwilligerAlgebra) -> SpanBasis:
    """Basis of the center Z(T) in Q^d: the commutant of A_1 within T's
    diagonal blocks E*_i T E*_i, solved in the orbit coordinates of T's
    scheme.

    T contains every E*_i, so it is the direct sum of its blocks
    E*_i T E*_j, and an element of T commutes with every E*_i exactly when
    it lies in the diagonal blocks.  Since T is generated by A_1 and the
    E*_i, Z(T) is the part of those blocks that commutes with A_1.  Orbit a
    lies in the block of the spheres its pairs start and end in.  The
    blocks have disjoint coordinates, and the union of RREFs on disjoint
    coordinates is an RREF, so every row of T's RREF lies in one block, and
    the rows in diagonal blocks span their sum; those rows go to
    centralizer_within as they are.  A row that joins two blocks raises
    NotClosedError, since this accepts any span a caller builds, not only a
    closure.  A basis in an ambient other than Q^d of the scheme raises
    ShapeMismatchError.
    """
    scheme = t.scheme
    if t.basis.ambient_dim != scheme.ambient_dim:
        raise ShapeMismatchError(f"basis in dimension {t.basis.ambient_dim} against scheme dimension {scheme.ambient_dim}")
    block = list(zip(scheme.row_of, scheme.end_of))
    diagonal = []
    for row in t.basis.rows:
        (i, j), *others = {block[a] for a in row}
        if others:
            raise NotClosedError("a row of the span joins two blocks E*_i T E*_j")
        if i == j:
            diagonal.append(row)
    return centralizer_within(diagonal, [scheme.adjacency], action=scheme)


def upsilon(m: int) -> frozenset[tuple[int, int]]:
    """The parameter set {(mu, d) : 0 <= d <= m, ceil((m-d)/2) <= mu <= m-d}.

    Its size floor((m+2)^2 / 4) predicts the dimension of Z(T).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    out = set()
    for d in range(m + 1):
        lo = (m - d + 1) // 2
        for mu in range(lo, m - d + 1):
            out.add((mu, d))
    return frozenset(out)


def upsilon_size_formula(m: int) -> int:
    return (m + 2) ** 2 // 4


class BlockProfile(NamedTuple):
    """Multiplicity bookkeeping of T's expected simple-summand decomposition.

    For each d = 0..m a full matrix algebra of side 2d+2 occurs with
    multiplicity floor((m-d)/2) + 1; the squared sides weighted by these
    counts must add up to dim T and the counts alone to dim Z(T).
    """

    m: int
    counts: tuple[int, ...]
    sides: tuple[int, ...]

    @property
    def dimension_total(self) -> int:
        return sum(c * s * s for c, s in zip(self.counts, self.sides))

    @property
    def summand_count(self) -> int:
        return sum(self.counts)


def block_profile(m: int) -> BlockProfile:
    if m < 3:
        raise ValueError("the simple-summand profile is only claimed for m >= 3")
    counts = tuple((m - d) // 2 + 1 for d in range(m + 1))
    sides = tuple(2 * d + 2 for d in range(m + 1))
    return BlockProfile(m=m, counts=counts, sides=sides)

