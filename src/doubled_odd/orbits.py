"""Stabilizer orbits on vertex pairs and the centralizer algebra.

Fix the base vertex x0 = {1, ..., m}.  The stabilizer of x0 in the full
automorphism group is sym(x0) x sym(S - x0), and its orbits on ordered vertex
pairs (y, z) are exactly the level sets of the four-tuple

    rho(y, z) = (|x0 n y|, |x0 n z|, |y n z|, |x0 n y n z|).

Pairs split into four blocks by the sizes (|y|, |z|): block I is (m, m),
block II is (m, m+1), block III is (m+1, m) and block IV is (m+1, m+1).
Each block carries a closed-form description of its admissible four-tuples,
and complementing one or both coordinates of a pair induces bijections from
blocks II, III, IV onto block I, so all four index sets have the same
cardinality C(m+4, 4).  The 0/1 indicator matrices of the orbits form a basis
of the centralizer algebra of the stabilizer action; that algebra therefore
has dimension 4 C(m+4, 4).

The closed forms are production code; an independent union-find oracle that
grinds out the orbits from explicit group generators lives alongside for the
verification harness to compare against.

OrbitCoordinates identifies a matrix that is constant on every orbit with its
vector of orbit values in Q^d, d = 4 C(m+4, 4).  Given some 0/1 generator
matrices, it tabulates how each acts on the orbit matrices from the left and
from the right, certifying every table entry exhaustively over all vertex
pairs, so algebras generated by them can be computed in Q^d and lifted back.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb
from typing import NamedTuple

from .combinatorics import GroundSet, _vertices, _vertex_index
from .linalg import (
    NotClosedError,
    ShapeMismatchError,
    SparseExactMatrix,
    SpanBasis,
    _norm,
    span,
    contains,
)


class BlockTag(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    def __str__(self) -> str:
        return self.value


class OrbitLabel(NamedTuple):
    block: BlockTag
    tup: tuple[int, int, int, int]

    def text(self) -> str:
        i, j, t, p = self.tup
        return f"{self.block.value}:{i},{j},{t},{p}"


def parse_label(text: str) -> OrbitLabel:
    block_txt, _, tup_txt = text.partition(":")
    block = BlockTag(block_txt)
    parts = tuple(int(x) for x in tup_txt.split(","))
    if len(parts) != 4:
        raise ValueError(f"malformed orbit label {text!r}")
    return OrbitLabel(block, parts)


class IndependenceError(RuntimeError):
    """The orbit indicator matrices failed to be linearly independent."""


def rho(x0: int, y: int, z: int) -> tuple[int, int, int, int]:
    """The orbit invariant (|x0 n y|, |x0 n z|, |y n z|, |x0 n y n z|)."""
    return (
        (x0 & y).bit_count(),
        (x0 & z).bit_count(),
        (y & z).bit_count(),
        (x0 & y & z).bit_count(),
    )


def block_of_pair(m: int, y: int, z: int) -> BlockTag:
    ybig = y.bit_count() > m
    zbig = z.bit_count() > m
    if ybig:
        return BlockTag.IV if zbig else BlockTag.III
    return BlockTag.II if zbig else BlockTag.I


@lru_cache(maxsize=64)
def _index_set(block: BlockTag, m: int) -> frozenset[tuple[int, int, int, int]]:
    out = set()
    for i in range(m + 1):
        for j in range(m + 1):
            if block is BlockTag.I:
                tlo = max(i + j - m, m - 1 - i - j)
                thi = m - abs(i - j)
            elif block is BlockTag.II:
                tlo = abs(i + j - m)
                thi = m - max(i - j, j - i - 1)
            elif block is BlockTag.III:
                tlo = abs(i + j - m)
                thi = m - max(i - j - 1, j - i)
            else:
                tlo = 1 + max(i + j - m - 1, m - i - j)
                thi = m + 1 - abs(i - j)
            for t in range(tlo, thi + 1):
                if block is BlockTag.I:
                    plo = max(0, i + j - m, i + t - m, j + t - m)
                    phi = min(i, j, t, i + j + t + 1 - m)
                elif block is BlockTag.II:
                    plo = i - min(i, m - j, m - t, i - j - t + m + 1)
                    phi = i - max(0, i - j, i - t, m - j - t)
                elif block is BlockTag.III:
                    plo = j - min(m - i, j, m - t, j - i - t + m + 1)
                    phi = j - max(0, j - i, j - t, m - i - t)
                else:
                    plo = i + j - m + max(0, m - i - j, t - i - 1, t - j - 1)
                    phi = i + j - m + min(m - i, m - j, t - 1, m - i - j + t)
                for p in range(plo, phi + 1):
                    out.add((i, j, t, p))
    return frozenset(out)


def index_set(block: BlockTag, m: int) -> frozenset[tuple[int, int, int, int]]:
    """Admissible four-tuples of a block, by the closed-form inequalities."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _index_set(block, m)


def enumerate_index_set(g: GroundSet, block: BlockTag) -> frozenset[tuple[int, int, int, int]]:
    """Oracle: the set {rho(y, z)} scanned over all pairs of the block."""
    m = g.m
    verts = _vertices(m)
    half = comb(g.n_points, m)
    if block in (BlockTag.I, BlockTag.II):
        ys = verts[:half]
    else:
        ys = verts[half:]
    if block in (BlockTag.I, BlockTag.III):
        zs = verts[:half]
    else:
        zs = verts[half:]
    x0 = g.base_vertex
    return frozenset(rho(x0, y, z) for y in ys for z in zs)


def tuple_bijection(
    block: BlockTag, tup: tuple[int, int, int, int], m: int
) -> tuple[int, int, int, int]:
    """Image of a block II/III/IV four-tuple under complementation onto block I.

    Complementing the (m+1)-subset coordinate(s) of a pair maps each of the
    three non-diagonal-size blocks bijectively onto block I; this is the
    induced map on four-tuples.  Block I has no such map (ValueError), and the
    tuple must belong to the block's index set.
    """
    if block is BlockTag.I:
        raise ValueError("block I is the common target; it has no bijection map")
    if tup not in index_set(block, m):
        raise ValueError(f"{tup} is not an admissible four-tuple of block {block}")
    i, j, t, p = tup
    if block is BlockTag.II:
        return (i, m - j, m - t, i - p)
    if block is BlockTag.III:
        return (m - i, j, m - t, j - p)
    return (m - i, m - j, t - 1, m - i - j + p)


@lru_cache(maxsize=16)
def _orbit_labels(m: int) -> tuple[OrbitLabel, ...]:
    labels = []
    for block in (BlockTag.I, BlockTag.II, BlockTag.III, BlockTag.IV):
        for tup in sorted(_index_set(block, m)):
            labels.append(OrbitLabel(block, tup))
    return tuple(labels)


def orbit_labels(g: GroundSet) -> list[OrbitLabel]:
    """All orbit labels: blocks I, II, III, IV, tuples lexicographic."""
    return list(_orbit_labels(g.m))


@lru_cache(maxsize=8)
def _orbit_matrices(m: int) -> dict[OrbitLabel, SparseExactMatrix]:
    g = GroundSet(m)
    verts = _vertices(m)
    n = len(verts)
    half = comb(g.n_points, m)
    x0 = g.base_vertex
    rows_by_label: dict[OrbitLabel, dict[int, dict[int, object]]] = {
        lab: {} for lab in _orbit_labels(m)
    }
    blocks = (BlockTag.I, BlockTag.II, BlockTag.III, BlockTag.IV)
    for yi, y in enumerate(verts):
        ybig = 2 if yi >= half else 0
        iy = (x0 & y).bit_count()
        for zi, z in enumerate(verts):
            block = blocks[ybig + (1 if zi >= half else 0)]
            lab = OrbitLabel(
                block,
                (iy, (x0 & z).bit_count(), (y & z).bit_count(), (x0 & y & z).bit_count()),
            )
            rows_by_label[lab].setdefault(yi, {})[zi] = 1
    out = {}
    for lab, rows in rows_by_label.items():
        if not rows:
            raise IndependenceError(f"closed-form label {lab.text()} has an empty orbit")
        out[lab] = SparseExactMatrix(n, n, rows)
    return out


def orbit_matrices(g: GroundSet) -> dict[OrbitLabel, SparseExactMatrix]:
    """Indicator matrix of every orbit, keyed by label (shared, do not mutate)."""
    return dict(_orbit_matrices(g.m))


def orbit_matrix(g: GroundSet, label: OrbitLabel) -> SparseExactMatrix:
    mats = _orbit_matrices(g.m)
    try:
        return mats[label]
    except KeyError:
        raise ValueError(f"{label.text()} is not an orbit label for m={g.m}") from None


def stabilizer_generators(g: GroundSet) -> list[tuple[int, ...]]:
    """Generators of sym(x0) x sym(S - x0) as 0-based point permutations.

    A transposition and a full cycle on each factor; degenerate factors of
    size < 2 contribute nothing (at m = 1 the x0 factor is trivial).
    """
    m = g.m
    n = g.n_points
    gens: list[tuple[int, ...]] = []

    def add_transposition(a: int, b: int) -> None:
        perm = list(range(n))
        perm[a], perm[b] = perm[b], perm[a]
        gens.append(tuple(perm))

    def add_cycle(points: range) -> None:
        perm = list(range(n))
        pts = list(points)
        for src, dst in zip(pts, pts[1:] + pts[:1]):
            perm[src] = dst
        gens.append(tuple(perm))

    if m >= 2:
        add_transposition(0, 1)
        if m >= 3:
            add_cycle(range(0, m))
    add_transposition(m, m + 1)
    if m + 1 >= 3:
        add_cycle(range(m, n))
    return gens


def _apply_perm(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        out |= 1 << perm[bit.bit_length() - 1]
    return out


def orbits_by_group_action(g: GroundSet) -> list[frozenset[tuple[int, int]]]:
    """Oracle: orbits of the stabilizer on ordered vertex pairs via union-find.

    Works straight from explicit group generators, with no reference to the
    four-tuple invariant, so it independently cross-checks the closed forms.
    """
    verts = _vertices(g.m)
    index = _vertex_index(g.m)
    n = len(verts)
    vertex_perms = []
    for perm in stabilizer_generators(g):
        vertex_perms.append(tuple(index[_apply_perm(perm, v)] for v in verts))

    parent = list(range(n * n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for vp in vertex_perms:
        for yi in range(n):
            base = yi * n
            py = vp[yi] * n
            for zi in range(n):
                union(base + zi, py + vp[zi])

    groups: dict[int, list[tuple[int, int]]] = {}
    for code in range(n * n):
        groups.setdefault(find(code), []).append((code // n, code % n))
    return [frozenset(members) for members in groups.values()]


@dataclass(frozen=True)
class CentralizerBasis:
    """Orbit-matrix basis of the centralizer algebra of the stabilizer."""

    m: int
    labels: tuple[OrbitLabel, ...]
    matrices: tuple[SparseExactMatrix, ...]
    span: SpanBasis

    @property
    def dimension(self) -> int:
        return self.span.dimension


def build_centralizer(g: GroundSet) -> CentralizerBasis:
    """Assemble the orbit matrices and their span; verifies independence."""
    labels = _orbit_labels(g.m)
    mats = _orbit_matrices(g.m)
    matrices = tuple(mats[lab] for lab in labels)
    basis = span(matrices)
    if basis.dimension != len(labels):
        raise IndependenceError(
            f"{len(labels)} orbit matrices span only {basis.dimension} dimensions"
        )
    return CentralizerBasis(m=g.m, labels=labels, matrices=matrices, span=basis)


@dataclass(frozen=True)
class SubalgebraClosureReport:
    """Outcome of a pairwise multiplicative closure scan of a sub-span."""

    closed: bool
    pairs_checked: int
    first_violation: tuple[OrbitLabel, OrbitLabel] | None
    violation_block: BlockTag | None


def check_subalgebra(sub: list[OrbitLabel], g: GroundSet) -> SubalgebraClosureReport:
    """Test whether the span of the given orbit matrices is closed under
    multiplication; on failure report the first offending product and the
    block its support lands in."""
    mats = _orbit_matrices(g.m)
    try:
        sub_mats = [mats[lab] for lab in sub]
    except KeyError as exc:
        raise ValueError(f"unknown orbit label {exc.args[0]}") from None
    sub_span = span(sub_mats) if sub_mats else SpanBasis(0)
    verts = _vertices(g.m)
    checked = 0
    first_violation = None
    violation_block = None
    for la, ma in zip(sub, sub_mats):
        for lb, mb in zip(sub, sub_mats):
            product = ma @ mb
            checked += 1
            if first_violation is None and not contains(sub_span, product):
                first_violation = (la, lb)
                r, c, _ = next(product.entries())
                violation_block = block_of_pair(g.m, verts[r], verts[c])
    return SubalgebraClosureReport(
        closed=first_violation is None,
        pairs_checked=checked,
        first_violation=first_violation,
        violation_block=violation_block,
    )


class ActionTable(NamedTuple):
    """The certified action of one matrix g on the orbit matrices.

    left[a] and right[a] map orbit b to the coefficient of O_b in g O_a and in
    O_a g respectively.
    """

    left: tuple[dict[int, int], ...]
    right: tuple[dict[int, int], ...]


class OrbitCoordinates:
    """Orbit coordinates Q^d with certified actions of some 0/1 generators.

    Orbits are numbered by the row-major position of their first vertex pair,
    so an RREF basis in Q^d lifts entry for entry to the RREF basis of the
    same span of n x n matrices.  Nothing assumes that the orbit matrices form
    a coherent configuration: the orbits are checked to partition all n^2
    pairs, the identity is checked to be a sum of orbit matrices, and every
    action table entry is read off all pairs of its orbit and checked to be
    the same on each of them (NotClosedError otherwise).  An instance is the
    action algebra_closure and centralizer_within need, with the tables in
    generators as its generators.
    """

    def __init__(self, g: GroundSet, generators: list[SparseExactMatrix]):
        n = len(_vertices(g.m))
        positions = sorted(
            (array("I", (r * n + c for r, c, _ in mat.entries()))
             for mat in _orbit_matrices(g.m).values()),
            key=lambda pos: pos[0],
        )
        d = len(positions)
        if d >= 0xFFFF:
            raise ValueError(f"{d} orbits do not fit the pair index")
        labels = array("H", [0xFFFF]) * (n * n)
        for a, pos in enumerate(positions):
            for idx in pos:
                labels[idx] = a
        if sum(map(len, positions)) != n * n or labels.count(0xFFFF):
            raise NotClosedError("the orbits do not partition the vertex pairs")
        diagonal = {labels[i * (n + 1)] for i in range(n)}
        if sum(len(positions[a]) for a in diagonal) != n:
            raise NotClosedError("the identity is not a sum of orbit matrices")
        self.n = n
        self.ambient_dim = d
        self._labels = labels
        self._positions = positions
        self._identity = {a: 1 for a in sorted(diagonal)}
        self.generators = self._action_tables(generators)

    def _action_tables(self, generators: list[SparseExactMatrix]) -> list[ActionTable]:
        n, labels = self.n, self._labels
        label_rows = [labels[k * n:(k + 1) * n] for k in range(n)]
        label_cols = [labels[k::n] for k in range(n)]
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
                left=self._table(rows, label_rows),
                right=self._table(cols, label_cols),
            ))
        return tables

    def _table(self, lines: dict[int, list[int]], label_lines: list) -> tuple[dict[int, int], ...]:
        # one pass over all n^2 pairs: the orbits a met along a pair's line of
        # g, counted, must be the same multiset for every pair of its orbit b
        seen: list = [None] * self.ambient_dim
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

    def identity(self) -> dict[int, object]:
        return dict(self._identity)

    def left(self, table: ActionTable, vec: dict[int, object]) -> dict[int, object]:
        return _apply(table.left, vec)

    def right(self, table: ActionTable, vec: dict[int, object]) -> dict[int, object]:
        return _apply(table.right, vec)

    def coordinates(self, vec: dict[int, object]) -> dict[int, object] | None:
        """Orbit values of a vectorized n x n matrix, or None when it is not
        constant on every orbit."""
        labels = self._labels
        values: dict[int, object] = {}
        counts: dict[int, int] = {}
        for idx, v in vec.items():
            a = labels[idx]
            known = values.get(a)
            if known is None:
                values[a] = v
                counts[a] = 1
            elif known != v:
                return None
            else:
                counts[a] += 1
        positions = self._positions
        if any(len(positions[a]) != k for a, k in counts.items()):
            return None
        return values

    def lift(self, basis: SpanBasis) -> SpanBasis:
        """The n^2-ambient RREF basis of the matrices a Q^d basis stands for."""
        if basis.ambient_dim != self.ambient_dim:
            raise ShapeMismatchError(
                f"basis of ambient {basis.ambient_dim} is not in orbit coordinates"
            )
        positions = self._positions
        rows = []
        for row in basis.rows:
            vec: dict[int, object] = {}
            for a, v in row.items():
                for idx in positions[a]:
                    vec[idx] = v
            rows.append(vec)
        return SpanBasis.from_reduced_rows(self.n * self.n, rows)

    def project(self, basis: SpanBasis) -> SpanBasis:
        """A basis of vectorized n x n matrices in orbit coordinates
        (NotClosedError when a basis row is not constant on every orbit)."""
        if basis.ambient_dim != self.n * self.n:
            raise ShapeMismatchError(
                f"basis of ambient {basis.ambient_dim} is not of {self.n} x {self.n} matrices"
            )
        out = SpanBasis(self.ambient_dim)
        for row in basis.rows:
            values = self.coordinates(row)
            if values is None:
                raise NotClosedError("a basis row is not constant on every orbit")
            out.insert(values)
        return out


def _apply(table: tuple[dict[int, int], ...], vec: dict[int, object]) -> dict[int, object]:
    out: dict[int, object] = {}
    for a, x in vec.items():
        for b, c in table[a].items():
            out[b] = out.get(b, 0) + c * x
    return {b: _norm(v) for b, v in out.items() if v}
