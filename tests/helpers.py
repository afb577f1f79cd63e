"""Helpers shared by the tests: the n^2-ambient matrix action and spans, the
oracles the orbit-coordinate runs of algebra_closure and centralizer_within,
the push tables of T's generators, the sandwich identities of lemma41, the
identities of psi-intertwining, the export, the orbit index and the row
test of centralizer-dim are compared with (among them the E*_i push
tables, the closure of a scheme in one row block under all of T's
generators, the pair index, the orbit of every vertex pair in one
labelled pass by each pair's invariant rho and block, numbered by first
pair and renumbered by label to meet the orbit index, the n x n
adjacency, orbit, distance and dual idempotent matrices, the matrix of a neighbour
table, and the lift of a basis in Q^d to n x n matrices), the full
generator lists of T, the first-pair product index of the structure
constants with the products, intersection numbers and subalgebra test read
off it, Higman's identity on it and its counts by orbit, the Odd graph's
adjacency by a disjointness scan, vertex maps moved a point at a time,
the span of rows by insertion, the test that rows are in reduced row
echelon form, the coefficients of a vector over a span's rows, the null
space by one scan of the rows per free column, the reader of the
export's coordinate text files, a doctored orbit index for its
certificates, the union-find and the counting comparison of partitions
that the orbit sweep and its least-point comparison are checked against,
the reports without elapsed_ms, and the per-m contexts the tests share,
which hold the tests' one memo of the orbit index."""

import json
from array import array
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, isqrt
from operator import add
from pathlib import Path
from typing import NamedTuple
from unittest.mock import patch

from doubled_odd.combinatorics import (
    DistanceRegularityError,
    _vertex_index,
    _vertices,
)
from doubled_odd.linalg import (
    ClosureResult,
    NotClosedError,
    ShapeMismatchError,
    SparseExactMatrix,
    SpanBasis,
    _norm,
    algebra_closure,
)
from doubled_odd.checks import CheckContext, render_reports
from doubled_odd import covering as covering_module
from doubled_odd import orbits as orbits_module
from doubled_odd.orbits import (
    BlockTag,
    LabelScheme,
    OrbitCoordinates,
    OrbitLabel,
    PushTable,
    _BLOCKS,
    _check_labels_met,
    _key_parts,
    _label_key,
    _label_keys,
)
from doubled_odd.terwilliger import (
    TerwilligerAlgebra,
    _diagonal_label,
    _sandwich_label,
    center_basis,
)


@lru_cache(maxsize=None)
def shared_context(m: int) -> CheckContext:
    """The one CheckContext per m the tests share, so that the orbit index,
    T and Z(T) are built once per session; a test that doctors an index
    builds its own context or index."""
    return CheckContext(m)


def reports_without_elapsed(reports) -> list:
    """The reports as JSON without their elapsed_ms fields, the one part of
    a report that differs between runs: two runs' reports are byte-identical
    when these are equal."""
    payload = json.loads(render_reports(reports))
    for entry in payload:
        del entry["elapsed_ms"]
    return payload


def orbit_index(m: int) -> OrbitCoordinates:
    """The orbit index at m of the shared context: the tests' one memo of
    it, as the package keeps none."""
    return shared_context(m).centralizer


def mask_of(elements) -> int:
    mask = 0
    for e in elements:
        if e < 1:
            raise ValueError(f"elements are 1-based, got {e}")
        mask |= 1 << (e - 1)
    return mask


def rho(x0: int, y: int, z: int) -> tuple[int, int, int, int]:
    """Oracle: the orbit invariant (|x0 n y|, |x0 n z|, |y n z|, |x0 n y n z|)."""
    return (
        (x0 & y).bit_count(),
        (x0 & z).bit_count(),
        (y & z).bit_count(),
        (x0 & y & z).bit_count(),
    )


def block_of_pair(m: int, y: int, z: int) -> BlockTag:
    """Oracle: the block of a pair (y, z), by |y| and |z|."""
    return _BLOCKS[2 * (y.bit_count() > m) + (z.bit_count() > m)]


def distance(y: int, z: int) -> int:
    """Graph distance |y| + |z| - 2|y n z| between two vertex bitmasks."""
    return y.bit_count() + z.bit_count() - 2 * (y & z).bit_count()


def vertex_index(m: int, v: int) -> int:
    """Ordinal of a vertex in the canonical order."""
    try:
        return _vertex_index(m)[v]
    except KeyError:
        raise ValueError(f"{v:#b} is not a vertex for m={m}") from None


def distance_matrix(m: int, i: int) -> SparseExactMatrix:
    """0/1 matrix of pairs at distance exactly i; rejects i outside [0, 2m+1]."""
    if not 0 <= i <= 2 * m + 1:
        raise ValueError(f"distance index {i} outside [0, {2 * m + 1}]")
    return _distance_matrices(m)[i]


def class_profiles(rows, cols, classes, width: int):
    """Oracle: certify that a multiset of encoded keys is the same on every
    pair of a class, by one exhaustive pass over all triples (y, w, z).

    For each pair (y, z), in row-major order, the profile of (y, z) is the
    sorted list of the keys rows[y][w] * width + cols[z][w] over all w; the
    keys are ints, and every entry of cols must lie in [0, width) so that a
    key determines its two parts.  Returns (profiles, None), where profiles
    maps each class met in classes[y][z] to the profile of all its pairs, or,
    as soon as a pair's profile differs from that of the first pair of its
    class, (profiles met so far, (y, z)).  It is the oracle of the structure
    constants of the orbit matrices and of the intersection numbers of a
    distance table.
    """
    seen: dict[int, list[int]] = {}
    for y, (row, class_row) in enumerate(zip(rows, classes)):
        scaled = [a * width for a in row]
        for z, (col, c) in enumerate(zip(cols, class_row)):
            profile = sorted(map(add, scaled, col))
            known = seen.setdefault(c, profile)
            if known is not profile and known != profile:
                return seen, (y, z)
    return seen, None


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


def intersection_table(verts, dist: list[list[int]]) -> dict[tuple[int, int, int], int]:
    """Oracle: p^h_{ij} of a symmetric distance table whose vertices are
    verts, by one exhaustive pass over all triples.

    On failure the witness is the first pair (x, y) in row-major order whose
    counts differ from those of the first pair at the same distance, with the
    least (i, j) whose count differs.
    """
    width = 1 + max(map(max, dist))
    # dist is symmetric, so its rows are also its columns
    profiles, offending = class_profiles(dist, dist, dist, width)
    if offending is not None:
        x, y = offending
        here = [i * width + j for i, j in zip(dist[x], dist[y])]
        raise _witness(verts[x], verts[y], Counter(profiles[dist[x][y]]), Counter(here), width)
    return _table({h: Counter(profile) for h, profile in profiles.items()}, width)


def parse_label(text: str) -> OrbitLabel:
    block_txt, _, tup_txt = text.partition(":")
    block = BlockTag(block_txt)
    parts = tuple(int(x) for x in tup_txt.split(","))
    if len(parts) != 4:
        raise ValueError(f"malformed orbit label {text!r}")
    return OrbitLabel(block, parts)


def enumerate_index_set(m: int, block: BlockTag) -> frozenset[tuple[int, int, int, int]]:
    """Oracle: the set {rho(y, z)} scanned over all pairs of the block."""
    verts = _vertices(m)
    half = comb(2 * m + 1, m)
    if block in (BlockTag.I, BlockTag.II):
        ys = verts[:half]
    else:
        ys = verts[half:]
    if block in (BlockTag.I, BlockTag.III):
        zs = verts[:half]
    else:
        zs = verts[half:]
    x0 = (1 << m) - 1
    return frozenset(rho(x0, y, z) for y in ys for z in zs)


def point_classes(names) -> set[frozenset[int]]:
    """The classes of points 0, 1, ... that share a name, as sets of points."""
    groups: dict[int, set[int]] = {}
    for k, name in enumerate(names):
        groups.setdefault(name, set()).add(k)
    return set(map(frozenset, groups.values()))


def orbit_partition(names, n: int) -> set[frozenset[tuple[int, int]]]:
    """The orbits of orbits_by_group_action, or of any naming of the vertex
    pairs' classes, as sets of vertex pairs."""
    return {frozenset(divmod(code, n) for code in members) for members in point_classes(names)}


def union_find(size: int, images) -> list[int]:
    """Oracle of orbits._orbit_sweep: the union-find root of each point
    0..size-1 when every point k is joined with image[k], for each image in
    images.  Two points share a root exactly when a chain of the maps joins
    them, so for permutations the classes are the orbits of the group they
    generate.  Roots are found by path halving."""
    parent = list(range(size))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for image in images:
        for a, b in enumerate(image):
            a, b = root(a), root(b)
            if a != b:
                parent[b] = a
    return [root(a) for a in range(size)]


def check_classes_by_counting(roots, ids, name) -> None:
    """Oracle of orbits._check_classes: the ids, read in step with roots,
    partition like the classes of roots exactly when the distinct roots,
    the distinct ids and the distinct (root, id) pairs are equally many.
    Raises NotClosedError naming, by name(a), the least id a whose elements
    are not exactly one class of roots, and ValueError when roots and ids
    differ in length."""
    roots_of: dict[int, set[int]] = {}
    ids_of: dict[int, set[int]] = {}
    met = set(zip(roots, ids, strict=True))
    for root, a in met:
        roots_of.setdefault(a, set()).add(root)
        ids_of.setdefault(root, set()).add(a)
    if len(met) == len(roots_of) == len(ids_of):
        return
    a = min(a for a, rs in roots_of.items() if len(rs) > 1 or any(ids_of[r] != {a} for r in rs))
    raise NotClosedError(f"{name(a)} is not a single orbit of the stabilizer generators")


@lru_cache(maxsize=8)
def _distance_matrices(m: int) -> tuple[SparseExactMatrix, ...]:
    verts = _vertices(m)
    n = len(verts)
    diam = 2 * m + 1
    rows_by_i: list[dict[int, dict[int, object]]] = [{} for _ in range(diam + 1)]
    for yi, y in enumerate(verts):
        ysz = y.bit_count()
        for zi, z in enumerate(verts):
            d = ysz + z.bit_count() - 2 * (y & z).bit_count()
            rows_by_i[d].setdefault(yi, {})[zi] = 1
    return tuple(SparseExactMatrix(n, n, rows) for rows in rows_by_i)


def distance_matrices(m: int) -> list[SparseExactMatrix]:
    """Oracle: A_0..A_{2m+1}, each by the distance formula over all n^2 pairs."""
    return list(_distance_matrices(m))


def adjacency_matrix(m: int) -> SparseExactMatrix:
    """Oracle: the 0/1 adjacency matrix A_1 in the canonical vertex order,
    each m-subset y joined to the (m+1)-subsets y + {k}, k outside y."""
    verts = _vertices(m)
    index = _vertex_index(m)
    half = comb(2 * m + 1, m)
    n = len(verts)
    rows: dict[int, dict[int, object]] = {}
    full = (1 << 2 * m + 1) - 1
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


def neighbour_matrix(table) -> SparseExactMatrix:
    """The 0/1 matrix of a neighbour table: entry (y, z) is 1 exactly when z
    is listed in table[y]."""
    n = len(table)
    return SparseExactMatrix(n, n, {y: dict.fromkeys(row, 1) for y, row in enumerate(table) if row})


def dual_idempotent(m: int, i: int) -> SparseExactMatrix:
    """Oracle: E*_i, the diagonal projection onto the sphere of radius i
    around the base vertex, by the distance formula."""
    if not 0 <= i <= 2 * m + 1:
        raise ValueError(f"sphere index {i} outside [0, {2 * m + 1}]")
    verts = _vertices(m)
    sphere = [y for y, v in enumerate(verts) if distance((1 << m) - 1, v) == i]
    return SparseExactMatrix(len(verts), len(verts), {y: {y: 1} for y in sphere})


def dual_idempotents(m: int) -> list[SparseExactMatrix]:
    return [dual_idempotent(m, i) for i in range(2 * m + 2)]


@lru_cache(maxsize=8)
def _orbit_matrices(m: int) -> dict[OrbitLabel, SparseExactMatrix]:
    # every orbit matrix in one pass over the pairs of each block of row
    # sphere x column sphere: as in orbit_matrix, a pair's |y n z| and
    # |x0 n y n z| decide which orbit of its block it is in
    index, verts, x0 = orbit_index(m), _vertices(m), (1 << m) - 1
    blocks: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for a, ends in enumerate(zip(index.row_of, index.end_of)):
        blocks.setdefault(ends, {})[index.labels[a].tup[2:]] = a
    rows: list[dict[int, dict[int, object]]] = [{} for _ in index.labels]
    for orbit_of_tp in blocks.values():
        first = next(iter(orbit_of_tp.values()))
        zs = index.spheres[index.end_of[first]]
        z_masks = [verts[z] for z in zs]
        for y in index.spheres[index.row_of[first]]:
            y_mask = verts[y]
            x0y = x0 & y_mask
            for z, z_mask in zip(zs, z_masks):
                a = orbit_of_tp.get(((y_mask & z_mask).bit_count(), (x0y & z_mask).bit_count()))
                if a is not None:
                    rows[a].setdefault(y, {})[z] = 1
    return {lab: SparseExactMatrix(index.n, index.n, r) for lab, r in zip(index.labels, rows)}


def orbit_matrices(m: int) -> dict[OrbitLabel, SparseExactMatrix]:
    """Oracle: the n x n indicator matrix of every orbit, keyed by label in
    orbit order (shared, do not mutate)."""
    return dict(_orbit_matrices(m))


def orbit_matrix(m: int, label: OrbitLabel) -> SparseExactMatrix:
    """Oracle: the n x n indicator matrix of one orbit, from the pairs of its
    row sphere and column sphere: those spheres fix the block and
    |x0 n y|, |x0 n z| of a pair's label, so the pair is in the orbit when
    its |y n z| and |x0 n y n z| are the label's."""
    index = orbit_index(m)
    try:
        a = index.labels.index(label)
    except ValueError:
        raise ValueError(f"{label.text()} is not an orbit label for m={m}") from None
    verts = _vertices(m)
    zs = index.spheres[index.end_of[a]]
    z_masks = [verts[z] for z in zs]
    _, _, t, p = label.tup
    rows = {}
    for y in index.spheres[index.row_of[a]]:
        y_mask = verts[y]
        x0y = (1 << m) - 1 & y_mask
        row = {
            z: 1 for z, z_mask in zip(zs, z_masks)
            if (y_mask & z_mask).bit_count() == t and (x0y & z_mask).bit_count() == p
        }
        if row:
            rows[y] = row
    return SparseExactMatrix(index.n, index.n, rows)


def lift(coords: OrbitCoordinates, basis: SpanBasis) -> SpanBasis:
    """Oracle: the n^2-ambient RREF basis of the matrices a Q^d basis stands
    for, each orbit's pairs read off its orbit matrix, reduced anew."""
    if basis.ambient_dim != coords.ambient_dim:
        raise ShapeMismatchError(f"basis of ambient {basis.ambient_dim} is not in orbit coordinates")
    n, mats = coords.n, _orbit_matrices(coords.m)
    positions = [[y * n + z for y, row in mats[lab]._rows.items() for z in row] for lab in coords.labels]
    lifted = SpanBasis(n * n)
    for row in basis.rows:
        lifted.insert({idx: v for a, v in row.items() for idx in positions[a]})
    return lifted


def sandwiches(m: int, a1: SparseExactMatrix) -> dict[tuple[int, int], SparseExactMatrix]:
    """Every nonzero E*_i A_1 E*_j, keyed by (i, j), read off a1 as its
    restriction from sphere i to sphere j, in one pass over its entries."""
    sphere = [distance((1 << m) - 1, v) for v in _vertices(m)]
    blocks: dict[tuple[int, int], dict[int, dict[int, object]]] = {}
    for y, z, v in a1.entries():
        blocks.setdefault((sphere[y], sphere[z]), {}).setdefault(y, {})[z] = v
    return {key: SparseExactMatrix(a1.nrows, a1.ncols, rows) for key, rows in blocks.items()}


def n2_sandwich_identities(m: int, a1: SparseExactMatrix) -> dict[str, bool]:
    """Oracle of lemma41 (terwilliger.verify_sandwich_identities) for the
    adjacency matrix a1: the same identities, in the same order, each
    compared entry for entry as n x n matrices, with every orbit matrix
    built alone (orbit_matrix)."""
    diam = 2 * m + 1
    estars = dual_idempotents(m)
    restricted = sandwiches(m, a1)
    zero = SparseExactMatrix.zero(a1.nrows, a1.ncols)
    results = {
        f"dual-idempotent-orbit-form[i={i}]": estars[i] == orbit_matrix(m, _diagonal_label(m, i))
        for i in range(diam + 1)
    }
    running_sum = zero
    for i in range(diam):
        forward = orbit_matrix(m, _sandwich_label(m, i, transposed=False))
        backward = orbit_matrix(m, _sandwich_label(m, i, transposed=True))
        results[f"sandwich-orbit-form[i={i}]"] = restricted.get((i, i + 1), zero) == forward
        results[f"sandwich-transpose-orbit-form[i={i}]"] = restricted.get((i + 1, i), zero) == backward
        running_sum = running_sum + forward + backward
    results["bipartite-sandwich-vanishing"] = all(abs(i - j) == 1 for i, j in restricted)
    results["adjacency-sandwich-decomposition"] = running_sum == a1
    return results


def apply_perm(perm: tuple[int, ...], mask: int) -> int:
    """Oracle: the image of a point mask under a point permutation, moved a
    point at a time."""
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        out |= 1 << perm[bit.bit_length() - 1]
    return out


def vertex_maps_by_points(m: int, perms) -> list[tuple[int, ...]]:
    """Oracle of orbits._vertex_maps: each vertex mask moved by apply_perm."""
    verts, index = _vertices(m), _vertex_index(m)
    return [tuple(index[apply_perm(perm, v)] for v in verts) for perm in perms]


def terwilliger_generators(m: int) -> list[SparseExactMatrix]:
    """All distance matrices followed by all dual idempotents."""
    return list(distance_matrices(m)) + dual_idempotents(m)


def closure_generators(m: int) -> list[SparseExactMatrix]:
    """The generating set T is closed under: E*_0..E*_{2m+1}, then A_1."""
    return dual_idempotents(m) + [adjacency_matrix(m)]


def dual_idempotent_tables(scheme: LabelScheme) -> list[PushTable]:
    """Oracle: E*_0, E*_1, ... as push tables on a label scheme, one per
    sphere an orbit starts in, read off row_of and end_of: E*_s O_a is O_a
    when a's pairs start in sphere s, O_a E*_s is O_a when they end in it,
    and each is 0 otherwise."""
    def keep(s, spheres):
        return tuple(((a, 1),) if t == s else () for a, t in enumerate(spheres))
    return [PushTable(keep(s, scheme.row_of), keep(s, scheme.end_of)) for s in range(max(scheme.row_of) + 1)]


class OneBlock:
    """A label scheme's action with every coordinate in one row block, so
    that algebra_closure adjoins each product whole and brings in the E*_i
    only as listed generators."""

    def __init__(self, scheme: LabelScheme):
        self.ambient_dim, self.row_of = scheme.ambient_dim, (0,) * scheme.ambient_dim
        self.identity, self.left, self.right = scheme.identity, scheme.left, scheme.right


def all_generator_closure(scheme: LabelScheme) -> ClosureResult:
    """Oracle: the scheme closed in one block under E*_0, E*_1, ... and A_1,
    a product per basis row and generator."""
    return algebra_closure([*dual_idempotent_tables(scheme), scheme.adjacency], OneBlock(scheme))


def sandwich_products(m: int) -> dict[tuple[int, int], SparseExactMatrix]:
    """Every E*_i A_1 E*_j, keyed by (i, j), as two sparse matrix products:
    the oracle of the restrictions sandwiches reads off A_1."""
    a1 = adjacency_matrix(m)
    estars = dual_idempotents(m)
    return {(i, j): ei @ a1 @ ej for i, ei in enumerate(estars) for j, ej in enumerate(estars)}


def center_dimension(t: TerwilligerAlgebra) -> int:
    return center_basis(t).dimension


def vectorize(m: SparseExactMatrix) -> dict[int, object]:
    """Row-major flattening of a matrix to a sparse vector {index: value}."""
    ncols = m.ncols
    vec: dict[int, object] = {}
    for r, row in m._rows.items():
        base = r * ncols
        for c, v in row.items():
            vec[base + c] = v
    return vec


def matrix_from_vector(vec: dict[int, object], nrows: int, ncols: int) -> SparseExactMatrix:
    rows: dict[int, dict[int, object]] = {}
    for idx, v in vec.items():
        if v:
            rows.setdefault(idx // ncols, {})[idx % ncols] = v
    return SparseExactMatrix(nrows, ncols, rows)


def span(matrices: Iterable[SparseExactMatrix]) -> SpanBasis:
    """RREF basis of the span of the vectorized matrices."""
    mats = list(matrices)
    if not mats:
        return SpanBasis(0)
    nrows, ncols = mats[0].nrows, mats[0].ncols
    basis = SpanBasis(nrows * ncols)
    for m in mats:
        if m.nrows != nrows or m.ncols != ncols:
            raise ShapeMismatchError(
                f"span over mixed shapes: {nrows} x {ncols} vs {m.nrows} x {m.ncols}"
            )
        basis.insert(vectorize(m))
    return basis


def span_of_rows(ambient_dim: int, rows: Iterable[dict[int, object]]) -> SpanBasis:
    """RREF basis of the span of sparse rows of Q^ambient_dim, each
    inserted in turn."""
    basis = SpanBasis(ambient_dim)
    for row in rows:
        basis.insert(row)
    return basis


def in_reduced_form(rows: Iterable[dict[int, object]]) -> bool:
    """Whether sparse rows, in any order, are the rows of a reduced row
    echelon form: each row is nonzero with 1 at its first coordinate, its
    pivot, the pivots are distinct, no row is nonzero at another row's
    pivot, and no entry is an explicit zero."""
    rows = list(rows)
    if not all(rows) or not all(all(row.values()) for row in rows):
        return False
    pivots = [min(row) for row in rows]
    met = set(pivots)
    return len(met) == len(rows) and all(
        row[p] == 1 and row.keys() & met == {p} for row, p in zip(rows, pivots)
    )


def contains(basis: SpanBasis, m: SparseExactMatrix) -> bool:
    """Exact membership of a matrix in a span of vectorized matrices."""
    if m.nrows * m.ncols != basis.ambient_dim:
        raise ShapeMismatchError(
            f"matrix of {m.nrows * m.ncols} entries against ambient {basis.ambient_dim}"
        )
    return basis.contains_vector(vectorize(m))


def coordinates(basis: SpanBasis, vec: dict[int, object]) -> list | None:
    """Coefficients of vec over the basis rows, in pivot order, or None
    when vec is outside the span."""
    residue, coeffs = basis.reduce_with_coefficients(vec)
    if residue:
        return None
    # the stored rows are keyed by pivot; basis.rows would copy each row
    return [coeffs.get(p, 0) for p in sorted(basis._rows)]


def null_space_per_column(basis: SpanBasis) -> list[dict[int, object]]:
    """SpanBasis.null_space by one scan of every stored row per free
    column: x_f = 1, then x_p = -row_p[f] for the pivots p in the rows'
    stored order."""
    out = []
    for free in range(basis.ambient_dim):
        if free in basis._rows:
            continue
        vec: dict[int, object] = {free: 1}
        for p, row in basis._rows.items():
            v = row.get(free)
            if v:
                vec[p] = -v
        out.append(vec)
    return out


class MatrixAction:
    """n x n matrices acting on row-major vectorized n x n matrices by products."""

    def __init__(self, n: int):
        self.n = n
        self.ambient_dim = n * n
        self.row_of = (0,) * self.ambient_dim  # one row block: E*_0 = I

    @classmethod
    def of(cls, matrices: list[SparseExactMatrix]) -> "MatrixAction":
        """The action for generators that are square matrices of one size."""
        n = matrices[0].nrows
        for mat in matrices:
            if mat.nrows != n or mat.ncols != n:
                raise ShapeMismatchError("generators must be square matrices of one size")
        return cls(n)

    @classmethod
    def on(cls, basis: SpanBasis) -> "MatrixAction":
        """The action on the ambient space of basis, after a 3 x 3 spot check
        that the products of its first basis elements stay in its span."""
        n = isqrt(basis.ambient_dim)
        if n * n != basis.ambient_dim:
            raise ValueError(f"ambient dimension {basis.ambient_dim} is not a perfect square")
        action = cls(n)
        rows = basis.rows[:3]
        for u in rows:
            for v in rows:
                if not basis.contains_vector(action.product(u, v)):
                    raise NotClosedError("basis fails a multiplicative closure spot check")
        return action

    def _matrix(self, vec: dict[int, object]) -> SparseExactMatrix:
        return matrix_from_vector(vec, self.n, self.n)

    def identity(self) -> dict[int, object]:
        return vectorize(SparseExactMatrix.identity(self.n))

    def left(self, g: SparseExactMatrix, vec: dict[int, object]) -> dict[int, object]:
        return vectorize(g @ self._matrix(vec))

    def right(self, g: SparseExactMatrix, vec: dict[int, object]) -> dict[int, object]:
        return vectorize(self._matrix(vec) @ g)

    def product(self, u: dict[int, object], v: dict[int, object]) -> dict[int, object]:
        return vectorize(self._matrix(u) @ self._matrix(v))


class PairIndex(NamedTuple):
    """orbit_of[y * n + z] is the orbit of the vertex pair (y, z); orbit a
    has label labels[a] and the ascending row-major pair positions
    positions[a].  Orbits are numbered by their first pair."""

    n: int
    labels: tuple[OrbitLabel, ...]
    orbit_of: array
    positions: tuple[array, ...]

    def label_lines(self) -> tuple[list, list]:
        """The orbit ids along each row and along each column of the pairs."""
        n = self.n
        return [self.orbit_of[k * n:(k + 1) * n] for k in range(n)], [self.orbit_of[k::n] for k in range(n)]

    def renumbered(self, labels) -> "PairIndex":
        """The same orbits numbered as labels lists their labels, so that
        the pair index and an orbit index compare through labels."""
        ids = {lab: a for a, lab in enumerate(labels)}
        new_id = [ids[lab] for lab in self.labels]
        positions: list = [None] * len(labels)
        for a, pos in enumerate(self.positions):
            positions[new_id[a]] = pos
        return PairIndex(self.n, tuple(labels), array("H", map(new_id.__getitem__, self.orbit_of)), tuple(positions))


@lru_cache(maxsize=8)
def pair_index(m: int) -> PairIndex:
    """Oracle of the orbit index: the orbit of every vertex pair, in one
    labelled row-major pass.

    Each pair's label is encoded as one int (orbits._label_keys), and the
    labels are numbered as they are first met, which is by first pair; the
    label keys met are certified to be the closed-form labels'
    (orbits._check_labels_met).  The orbit index numbers the same orbits by
    label, so the two are compared through labels.
    """
    verts = _vertices(m)
    n = len(verts)
    x0 = (1 << m) - 1
    ids: dict[int, int] = {}
    first_seen = ids.setdefault
    orbit_of = array("H")
    everyone = range(n)
    for yi in everyone:
        orbit_of.extend([first_seen(key, len(ids)) for key in _label_keys(m, yi, everyone)])
    positions = tuple(array("I") for _ in ids)
    append = [pos.append for pos in positions]
    for idx, a in enumerate(orbit_of):
        append[a](idx)
    # all pairs of an orbit share its key, so its first pair gives its label
    firsts = [(verts[pos[0] // n], verts[pos[0] % n]) for pos in positions]
    labels = tuple(OrbitLabel(block_of_pair(m, y, z), rho(x0, y, z)) for y, z in firsts)
    _check_labels_met(m, ids)
    return PairIndex(n, labels, orbit_of, positions)


class ActionTable(NamedTuple):
    """The action of one generator g on the orbit matrices: left[a] and
    right[a] map orbit b to the coefficient of O_b in g O_a and in O_a g."""

    left: tuple[dict[int, int], ...]
    right: tuple[dict[int, int], ...]


def action_tables(coords: OrbitCoordinates, generators: list[SparseExactMatrix]) -> list[ActionTable]:
    """Oracle: the action of each 0/1 generator on the orbit matrices, every
    entry read off all vertex pairs of its orbit in the pair index
    (NotClosedError when it differs between two of them), the pair index
    numbered as coords by label."""
    n = coords.n
    label_rows, label_cols = pair_index(coords.m).renumbered(coords.labels).label_lines()
    tables = []
    for mat in generators:
        if mat.nrows != n or mat.ncols != n:
            raise ShapeMismatchError(f"an action table needs an {n} x {n} matrix")
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        for r, c, v in mat.entries():
            if v != 1:
                raise ValueError("action tables are built for 0/1 matrices")
            rows.setdefault(r, []).append(c)
            cols.setdefault(c, []).append(r)
        # (g O_a)[y, z] counts the w in row y of g with (w, z) in orbit a;
        # (O_a g)[y, z] counts the w in column z of g with (y, w) in orbit a
        tables.append(ActionTable(
            left=_action_table(coords.ambient_dim, rows, label_rows),
            right=_action_table(coords.ambient_dim, cols, label_cols),
        ))
    return tables


def _action_table(d: int, lines: dict[int, list[int]], label_lines: list) -> tuple[dict[int, int], ...]:
    # one pass over all n^2 pairs: the orbits a met along a pair's line of
    # g, counted, must be the same multiset for every pair of its orbit b
    seen: list = [None] * d
    for k, orbits in enumerate(label_lines):
        ws = lines.get(k, ())
        met = zip(*(label_lines[w] for w in ws)) if ws else repeat(())
        if len(ws) > 1:
            met = map(tuple, map(sorted, met))
        for b, profile in zip(orbits, met):
            known = seen[b]
            if known is None:
                seen[b] = profile
            elif known != profile:
                raise NotClosedError(
                    f"the action on the orbit matrices is not constant on orbit {b}"
                )
    table: tuple[dict[int, int], ...] = tuple({} for _ in seen)
    for b, profile in enumerate(seen):
        for a in profile:
            table[a][b] = table[a].get(b, 0) + 1
    return table


def merged_pair_index(m: int, keep: OrbitLabel, drop: OrbitLabel) -> PairIndex:
    """The pair index at m with the orbit labelled drop merged into that
    labelled keep, renumbered by first pair as the pair index is."""
    index = pair_index(m)
    keep, drop = index.labels.index(keep), index.labels.index(drop)
    merged = [keep if a == drop else a for a in index.orbit_of]
    ids: dict[int, int] = {}
    orbit_of = array("H", (ids.setdefault(a, len(ids)) for a in merged))
    positions = [[] for _ in ids]
    for idx, a in enumerate(orbit_of):
        positions[a].append(idx)
    labels = [index.labels[a] for a in ids]
    return PairIndex(index.n, tuple(labels), orbit_of, tuple(positions))


def merged_orbit_coordinates(m: int, keep: OrbitLabel, drop: OrbitLabel, certified: bool = True) -> OrbitCoordinates:
    """The orbit index at m with the orbit labelled drop merged into that
    labelled keep, built and certified as the real index is, from a closed
    form without drop and label keys that give drop's pairs keep's key; its
    label map then sends drop's key to the merged orbit too, so that every
    later lookup sees the merge.  With certified false the stabilizer orbit
    certificate is skipped while it is built, so that a test can see what
    another check makes of orbits that are not a group's."""
    keep_key, drop_key = _label_key(m, keep), _label_key(m, drop)
    label_keys = orbits_module._label_keys

    def merged_keys(m, yi, zs):
        return [keep_key if key == drop_key else key for key in label_keys(m, yi, zs)]

    closed = tuple(lab for lab in orbits_module._orbit_labels(m) if lab != drop)
    certify = orbits_module._certify_stabilizer_orbits if certified else lambda _index: None
    with (
        patch.object(orbits_module, "_orbit_labels", lambda _m: closed),
        patch.object(orbits_module, "_label_keys", merged_keys),
        patch.object(orbits_module, "_certify_stabilizer_orbits", certify),
    ):
        index = OrbitCoordinates(m)
    index.orbit_of[drop_key] = index.orbit_of[keep_key]
    return index


def orbit_values(index: PairIndex, vec: dict[int, object]) -> dict[int, object] | None:
    """Oracle: the orbit values of a vectorized n x n matrix, or None when it
    is not constant on every orbit of the pair index."""
    values: dict[int, object] = {}
    counts: dict[int, int] = {}
    for idx, v in vec.items():
        a = index.orbit_of[idx]
        known = values.get(a)
        if known is None:
            values[a] = v
            counts[a] = 1
        elif known != v:
            return None
        else:
            counts[a] += 1
    if any(len(index.positions[a]) != k for a, k in counts.items()):
        return None
    return values


def pair_orbit_matrices(index: PairIndex) -> list[SparseExactMatrix]:
    """The n x n indicator matrix of every orbit of a pair index, in its
    orbit order."""
    n = index.n
    mats = []
    for positions in index.positions:
        rows: dict[int, dict[int, object]] = {}
        for idx in positions:
            y, z = divmod(idx, n)
            rows.setdefault(y, {})[z] = 1
        mats.append(SparseExactMatrix(n, n, rows))
    return mats


def n2_product_verdicts(index: PairIndex, pairs) -> list[bool]:
    """Oracle of centralizer-dim: for each (a, b), whether the n x n product
    O_a O_b is constant on every orbit of the pair index."""
    mats = pair_orbit_matrices(index)
    return [orbit_values(index, vectorize(mats[a] @ mats[b])) is not None for a, b in pairs]


def _column_label_keys(m: int, zi: int) -> list[int]:
    """The label keys (orbits._label_keys) of the pairs (w, z), z the vertex
    zi and w over all vertices."""
    base = m + 2
    verts = _vertices(m)
    z = verts[zi]
    x0z = (1 << m) - 1 & z
    rows, cols, _ = _key_parts(m)
    z_key = cols[zi]
    return [w_key + z_key + (w & z).bit_count() * base + (x0z & w).bit_count() for w_key, w in zip(rows, verts)]


def column(coords: OrbitCoordinates, z: int) -> list[int]:
    """The orbits of the pairs (w, z), w over all vertices, read off their
    label keys."""
    return list(map(coords.orbit_of.__getitem__, _column_label_keys(coords.m, z)))


@lru_cache(maxsize=8)
def product_index(coords: OrbitCoordinates) -> tuple[dict[int, list[tuple[int, int]]], ...]:
    """Oracle: the structure constants p^c_{ab} of the orbit matrices,
    O_a O_b = sum_c p^c_{ab} O_c, as their product index: products[a][b]
    lists the (c, p^c_{ab}) with p^c_{ab} > 0, c ascending, and has no entry
    b when O_a O_b = 0 (d·n work, held per index).

    p^c_{ab} is the (y, z) entry of O_a O_b for any pair (y, z) of orbit c:
    the number of vertices w with (y, w) in orbit a and (w, z) in orbit b.
    The index certifies when it is built that its orbits are the orbits of
    a permutation group on vertex pairs (orbits._certify_stabilizer_orbits),
    and such orbits form a coherent configuration (Higman 1975), so every
    pair of c has the counts of its first pair.  The row of a first pair is
    its sphere row, and each column met is built once; one Counter of the
    keys a * d + b over the middle vertices gives the p^c_{ab} of orbit c."""
    d = coords.ambient_dim
    # a * d for the orbit a of each pair (y, w) along each sphere row
    scaled = [list(map(d.__mul__, row)) for row in coords.rows]
    cols: dict[int, array] = {}  # the columns met, built once each
    products: tuple[dict[int, list[tuple[int, int]]], ...] = tuple({} for _ in range(d))
    for c in range(d):
        z = coords.members[c][0]
        if z not in cols:
            cols[z] = array("H", column(coords, z))
        for key, p in Counter(map(add, scaled[coords.row_of[c]], cols[z])).items():
            a, b = divmod(key, d)
            products[a].setdefault(b, []).append((c, p))
    return products


def orbit_product(coords: OrbitCoordinates, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
    """Oracle: the orbit coordinates of X Y, where x and y are those of X and
    Y, through the product index."""
    products = product_index(coords)
    out: dict[int, object] = {}
    for a, u in x.items():
        by_b = products[a]
        for b, v in y.items():
            for c, p in by_b.get(b, ()):
                out[c] = out.get(c, 0) + u * v * p
    return {c: _norm(w) for c, w in out.items() if w}


def product_intersection_table(coords: OrbitCoordinates, dist: list[int]) -> dict[tuple[int, int, int], int]:
    """Oracle of combinatorics.intersection_numbers: p^h_{ij} of the
    distance table that puts every pair of orbit c at distance dist[c],
    from the product index.

    Every entry (c, p^c_{ab}) of the index adds p^c_{ab} to the count of
    orbit c at dist[a] * width + dist[b].  The table and the witness are
    those an exhaustive pass over all vertex triples of the n x n distance
    table would give: the orbits are walked by first pair, so the first
    pair of the first orbit whose counts differ from those of the first
    orbit at the same distance is the first offending pair in row-major
    order.
    """
    verts = _vertices(coords.m)
    width = 1 + max(dist)
    counts: list[dict[int, int]] = [{} for _ in dist]
    for a, products in enumerate(product_index(coords)):
        row_key = dist[a] * width
        for b, entries in products.items():
            key = row_key + dist[b]
            for c, p in entries:
                count = counts[c]
                count[key] = count.get(key, 0) + p
    profiles: dict[int, dict[int, int]] = {}
    for c in sorted(range(len(dist)), key=coords.first_pair):
        h, count = dist[c], counts[c]
        known = profiles.setdefault(h, count)
        if known is not count and known != count:
            x, y = coords.first_pair(c)
            raise _witness(verts[x], verts[y], known, count, width)
    return _table(profiles, width)


def product_subalgebra(sub: list[OrbitLabel], m: int) -> tuple[OrbitLabel, OrbitLabel, BlockTag] | None:
    """Oracle of orbits.check_subalgebra: every ordered pair (a, b) of sub,
    in order, against the support {c : p^c_{ab} > 0} of its product in the
    product index; the first offending product is returned as (la, lb,
    block), block that of the least orbit of its support, and None when
    there is none."""
    coords = orbit_index(m)
    ids = {lab: c for c, lab in enumerate(coords.labels)}
    inside = {ids[lab] for lab in sub}
    for la in sub:
        products = product_index(coords)[ids[la]]
        for lb in sub:
            support = [c for c, _ in products.get(ids[lb], ())]
            if not inside.issuperset(support):
                return la, lb, coords.labels[support[0]].block
    return None


def orbit_counts(index) -> list[dict[int, int]]:
    """The p^c_{ab} of a product index (product_index) by orbit:
    counts[c] maps a * d + b to p^c_{ab}, for every p^c_{ab} > 0."""
    d = len(index)
    counts: list[dict[int, int]] = [{} for _ in range(d)]
    for a, products in enumerate(index):
        for b, entries in products.items():
            for c, p in entries:
                counts[c][a * d + b] = p
    return counts


def higman_violation(coords: OrbitCoordinates, counts) -> tuple[int, int, int] | None:
    """Oracle: the first (c, a, b), c ascending, at which a table of counts
    (counts[c] maps a * d + b to p^c_{ab}, as orbit_counts gives them) fails
    Higman's identity |c| p^c_{ab} = |a| p^a_{c b^T}, or None when it holds
    at every nonzero p^c_{ab}.

    |c| is the number of pairs of orbit c and b^T the orbit of the
    transposed pairs of b, read off the label key of (z, y) for the first
    pair (y, z) of b: both sides count the triples (y, w, z) with (y, z) in
    c, (y, w) in a and (w, z) in b.  A necessary condition, and the only
    cross-check of the table at m = 5, where the pass over all n^3 vertex
    triples (class_profiles) is too slow.
    """
    d, sizes = coords.ambient_dim, coords.sizes
    firsts = map(coords.first_pair, range(d))
    transpose = [coords.orbit_of[_label_keys(coords.m, z, (y,))[0]] for y, z in firsts]
    for c, table in enumerate(counts):
        for key, p in table.items():
            a, b = divmod(key, d)
            if sizes[c] * p != sizes[a] * counts[a].get(c * d + transpose[b], 0):
                return c, a, b
    return None


def odd_sphere_diagonal(m: int, i: int) -> SparseExactMatrix:
    """The diagonal projection onto the Odd-graph vertices at distance i
    from x0, by the breadth-first search of the covering module."""
    dist = covering_module._odd_distances_from_base(m)
    n = len(dist)
    return SparseExactMatrix(n, n, {a: {a: 1} for a, d in enumerate(dist) if d == i})


def build_psi(m: int) -> SparseExactMatrix:
    """Oracle: the 0/1 covering matrix, rows the C(2m+1, m) Odd-graph
    vertices, columns the doubled graph, built entry by entry from the fold
    map (covering.fold)."""
    doubled = _vertices(m)
    pos = _vertex_index(m)  # the m-subsets come first in the vertex order
    rows: dict[int, dict[int, object]] = {}
    for zi, z in enumerate(doubled):
        rows.setdefault(pos[covering_module.fold(m, z)], {})[zi] = 1
    return SparseExactMatrix(comb(2 * m + 1, m), len(doubled), rows)


def n2_intertwining(m: int, a1: SparseExactMatrix) -> dict[str, bool]:
    """Oracle of psi-intertwining (covering.verify_intertwining) for the
    adjacency matrix a1: the same identities, in the same order, each
    checked on psi (build_psi) by n x n matrix products, against the Odd
    graph's adjacency by a disjointness scan."""
    psi = build_psi(m)
    half, n = psi.nrows, psi.ncols
    col_counts: dict[int, int] = {}
    row_ok = True
    for row in psi._rows.values():
        if sum(row.values()) != 2:
            row_ok = False
        for c in row:
            col_counts[c] = col_counts.get(c, 0) + 1
    spheres = [
        odd_sphere_diagonal(m, i) @ psi == psi @ (dual_idempotent(m, i) + dual_idempotent(m, 2 * m + 1 - i))
        for i in range(m + 1)
    ]
    return {
        "psi-row-sums-two": row_ok and len(psi._rows) == half,
        "psi-column-sums-one": len(col_counts) == n and all(v == 1 for v in col_counts.values()),
        "psi-psiT-twice-identity": psi @ psi.transpose() == SparseExactMatrix.identity(half).scale(2),
        "adjacency-transport": psi @ a1 == odd_adjacency_by_scan(m) @ psi,
        "sphere-transport": all(spheres),
    }


def odd_adjacency_by_scan(m: int) -> SparseExactMatrix:
    """Oracle: the Odd graph's adjacency matrix by a scan of all pairs of
    m-subsets for disjointness."""
    verts = _vertices(m)[: comb(2 * m + 1, m)]
    n = len(verts)
    rows: dict[int, dict[int, object]] = {}
    for a, y in enumerate(verts):
        for b, z in enumerate(verts):
            if a != b and not (y & z):
                rows.setdefault(a, {})[b] = 1
    return SparseExactMatrix(n, n, rows)


def read_coord_text(path) -> SparseExactMatrix:
    """Oracle reader of the export: the matrix of a coordinate text file
    (checks.write_coord_entries).  A negative size or an entry line the
    writer never writes raises ValueError naming the file and line."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read matrix from {path}: {exc}") from exc
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        nrows, ncols, nnz = (int(tok) for tok in lines[0][1].split())
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {lines[0][1]!r}") from exc
    if nrows < 0 or ncols < 0:
        raise ValueError(f"{path} line {lines[0][0]}: header {lines[0][1]!r} gives a negative size")
    if len(lines) - 1 != nnz:
        raise ValueError(f"{path}: header promises {nnz} entries, found {len(lines) - 1}")
    entries: list[tuple[int, int, object]] = []
    for k, ln in lines[1:]:
        try:
            r, c, v = ln.split()
            r, c, v = int(r), int(c), _norm(Fraction(v))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{path} line {k}: malformed entry line {ln!r}") from None
        if not v or not (0 <= r < nrows and 0 <= c < ncols) or entries and (r, c) <= entries[-1][:2]:
            raise ValueError(
                f"{path} line {k}: entry {ln!r} must be nonzero, inside a {nrows} x {ncols} matrix "
                f"and after the previous entry in (row, col) order"
            )
        entries.append((r, c, v))
    return SparseExactMatrix.from_entries(nrows, ncols, entries)
