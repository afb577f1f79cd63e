"""The Terwilliger algebra of a doubled Odd graph at the base vertex.

The dual idempotent E*_i is the diagonal 0/1 projection onto the sphere of
radius i around x0 = {1, ..., m}.  The Terwilliger algebra T is the matrix
algebra generated by the distance matrices A_0, ..., A_{2m+1} together with
E*_0, ..., E*_{2m+1}.  build_terwilliger closes under A_1 and the E*_i only
and then certifies exactly that every other A_i lies in the result, so the
smaller generating set is checked rather than assumed.  The closure and the
centre solve run in orbit coordinates Q^d (orbits.OrbitCoordinates), where
each generator acts through a certified action table, and their results are
lifted back to RREF bases of vectorized n x n matrices.  Everything T is
generated by lies inside the centralizer algebra of the stabilizer of x0:
each E*_i is a single diagonal orbit matrix and each sandwich
E*_i A_1 E*_{i+1} is a single off-diagonal orbit matrix, with explicit
four-tuple labels.  verify_sandwich_identities checks those identifications
entry for entry.

For m >= 3 the two algebras are expected to coincide, with

    dim T = 4 C(m+4, 4),    dim Z(T) = floor((m+2)^2 / 4),

and T decomposes into floor((m-d)/2) + 1 copies of a (2d+2) x (2d+2) full
matrix algebra for each d = 0..m; upsilon() and block_profile() expose the
bookkeeping behind those two counts.  At m = 1, 2 the same computations run
but their outcomes are reported as findings, not assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .combinatorics import GroundSet, _vertices, distance_matrices
from .linalg import (
    ClosureResult,
    NotClosedError,
    SparseExactMatrix,
    SpanBasis,
    algebra_closure,
    centralizer_within,
    contains,
    vectorize,
)
from .orbits import BlockTag, CentralizerBasis, OrbitCoordinates, OrbitLabel, orbit_matrix


class IdentityCheck(NamedTuple):
    name: str
    ok: bool


@lru_cache(maxsize=8)
def _sphere_indices(m: int) -> tuple[tuple[int, ...], ...]:
    g = GroundSet(m)
    x0 = g.base_vertex
    spheres: list[list[int]] = [[] for _ in range(g.diameter + 1)]
    for vi, v in enumerate(_vertices(m)):
        d = m + v.bit_count() - 2 * (x0 & v).bit_count()
        spheres[d].append(vi)
    return tuple(tuple(s) for s in spheres)


def dual_idempotent(g: GroundSet, i: int) -> SparseExactMatrix:
    """Diagonal projection onto the sphere of radius i around the base vertex."""
    if not 0 <= i <= g.diameter:
        raise ValueError(f"sphere index {i} outside [0, {g.diameter}]")
    n = len(_vertices(g.m))
    rows = {vi: {vi: 1} for vi in _sphere_indices(g.m)[i]}
    return SparseExactMatrix(n, n, rows)


def dual_idempotents(g: GroundSet) -> list[SparseExactMatrix]:
    return [dual_idempotent(g, i) for i in range(g.diameter + 1)]


@dataclass
class TerwilligerAlgebra:
    """The Terwilliger algebra as a closed span plus its generator list.

    basis holds vectorized n x n matrices.  closure, when T was computed
    rather than loaded, is the run in orbit coordinates, and coordinates
    keeps the certified action tables of closure_generators for center_basis.
    """

    m: int
    basis: SpanBasis
    generator_list: list[SparseExactMatrix]
    closure: ClosureResult | None
    coordinates: OrbitCoordinates | None = None

    @property
    def dimension(self) -> int:
        return self.basis.dimension


def terwilliger_generators(g: GroundSet) -> list[SparseExactMatrix]:
    """All distance matrices followed by all dual idempotents."""
    return list(distance_matrices(g)) + dual_idempotents(g)


def default_dim_cap(m: int) -> int:
    # one above the predicted dimension, to fail fast on a contradiction
    return 4 * comb(m + 4, 4) + 1


def closure_generators(g: GroundSet) -> list[SparseExactMatrix]:
    """The generating set T is closed under: E*_0..E*_{2m+1}, then A_1."""
    return dual_idempotents(g) + [distance_matrices(g)[1]]


def build_terwilliger(g: GroundSet, dim_cap: int | None = None) -> TerwilligerAlgebra:
    """T as the closure of closure_generators(g), computed in orbit coordinates.

    T is generated by A_1 and the E*_i (Terwilliger 1992).  Rather than rely
    on distance-regularity for the remaining distance matrices, each of A_0
    and A_2..A_{2m+1} is tested for exact membership in the closure; a
    missing one raises NotClosedError, since the closure would then not be
    all of T.  generator_list still holds every listed generator.
    """
    if dim_cap is None:
        dim_cap = default_dim_cap(g.m)
    coords = OrbitCoordinates(g, closure_generators(g))
    closure = algebra_closure(coords.generators, dim_cap=dim_cap, action=coords)
    for i, a_i in enumerate(distance_matrices(g)):
        if i == 1:
            continue
        values = coords.coordinates(vectorize(a_i))
        if values is None or not closure.basis.contains_vector(values):
            raise NotClosedError(
                f"A_{i} is not in the algebra generated by A_1 and the E*_i at m={g.m}"
            )
    return TerwilligerAlgebra(
        m=g.m,
        basis=coords.lift(closure.basis),
        generator_list=terwilliger_generators(g),
        closure=closure,
        coordinates=coords,
    )


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


def verify_sandwich_identities(g: GroundSet) -> list[IdentityCheck]:
    """Exact matrix identities tying T's generators to single orbit matrices.

    Checks, for every admissible i:
      * E*_i equals one diagonal orbit matrix,
      * E*_i A_1 E*_{i+1} equals one orbit matrix of block II (i even) or
        III (i odd),
      * E*_{i+1} A_1 E*_i equals the transposed identification,
      * E*_i A_1 E*_j = 0 whenever |i - j| != 1 (the graph is bipartite), and
      * A_1 is the sum of all the sandwich orbit matrices.
    """
    m = g.m
    diam = g.diameter
    a1 = distance_matrices(g)[1]
    estars = dual_idempotents(g)
    results: list[IdentityCheck] = []

    for i in range(diam + 1):
        expected = orbit_matrix(g, _diagonal_label(m, i))
        results.append(IdentityCheck(f"dual-idempotent-orbit-form[i={i}]", estars[i] == expected))

    running_sum = SparseExactMatrix.zero(a1.nrows, a1.ncols)
    for i in range(diam):
        forward = estars[i] @ a1 @ estars[i + 1]
        fw_expected = orbit_matrix(g, _sandwich_label(m, i, transposed=False))
        results.append(IdentityCheck(f"sandwich-orbit-form[i={i}]", forward == fw_expected))
        backward = estars[i + 1] @ a1 @ estars[i]
        bw_expected = orbit_matrix(g, _sandwich_label(m, i, transposed=True))
        results.append(
            IdentityCheck(f"sandwich-transpose-orbit-form[i={i}]", backward == bw_expected)
        )
        running_sum = running_sum + fw_expected + bw_expected

    vanish_ok = True
    for i in range(diam + 1):
        for j in range(diam + 1):
            if abs(i - j) != 1:
                if not (estars[i] @ a1 @ estars[j]).is_zero():
                    vanish_ok = False
    results.append(IdentityCheck("bipartite-sandwich-vanishing", vanish_ok))
    results.append(IdentityCheck("adjacency-sandwich-decomposition", running_sum == a1))
    return results


class InclusionResult(NamedTuple):
    ok: bool
    failed_row: int | None


def verify_inclusion(t: TerwilligerAlgebra, cent: CentralizerBasis) -> InclusionResult:
    """Membership of every T-basis row in the centralizer span."""
    for idx, row in enumerate(t.basis.rows):
        if not cent.span.contains_vector(row):
            return InclusionResult(ok=False, failed_row=idx)
    return InclusionResult(ok=True, failed_row=None)


class EqualityResult(NamedTuple):
    dims_equal: bool
    orbit_matrices_in_t: bool
    identical_rref: bool

    @property
    def ok(self) -> bool:
        return self.dims_equal and self.orbit_matrices_in_t and self.identical_rref


def verify_equality(t: TerwilligerAlgebra, cent: CentralizerBasis) -> EqualityResult:
    """Two-sided comparison of T with the centralizer algebra."""
    dims_equal = t.dimension == cent.dimension
    orbit_in_t = all(contains(t.basis, mat) for mat in cent.matrices)
    return EqualityResult(
        dims_equal=dims_equal,
        orbit_matrices_in_t=orbit_in_t,
        identical_rref=(t.basis == cent.span),
    )


def center_basis(t: TerwilligerAlgebra) -> SpanBasis:
    """Basis of the center Z(T): the elements of T commuting with the
    generators T is closed under, solved in orbit coordinates and lifted."""
    coords = t.coordinates
    if coords is None:  # t was loaded from a cache
        g = GroundSet(t.m)
        coords = OrbitCoordinates(g, closure_generators(g))
    within = coords.project(t.basis)
    return coords.lift(centralizer_within(within, coords.generators, action=coords))


def center_dimension(t: TerwilligerAlgebra) -> int:
    return center_basis(t).dimension


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


@dataclass(frozen=True)
class BlockProfile:
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


def subalgebra_spans(cent: CentralizerBasis) -> dict[str, SpanBasis]:
    """Spans of the three block families: diagonal-size blocks I and IV, and
    the mixed pair II + III."""
    groups: dict[str, list[SparseExactMatrix]] = {"I": [], "II+III": [], "IV": []}
    for lab, mat in zip(cent.labels, cent.matrices):
        if lab.block is BlockTag.I:
            groups["I"].append(mat)
        elif lab.block is BlockTag.IV:
            groups["IV"].append(mat)
        else:
            groups["II+III"].append(mat)
    from .linalg import span as _span

    return {name: _span(mats) for name, mats in groups.items()}
