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
cardinality C(m+4, 4).  The 0/1 indicator matrices of the orbits are nonzero
with disjoint supports, hence independent, and form a basis of the
centralizer algebra of the stabilizer action; that algebra therefore has
dimension 4 C(m+4, 4).

The orbit of every pair is decided in one place, _pair_index: one labelled
pass over the pairs, certified by "labels met = closed-form labels".
OrbitCoordinates and the orbit matrices (built only where a check needs
them) are views of it.

The closed forms are production code; an independent union-find oracle that
grinds out the orbits from explicit group generators lives alongside for the
verification harness to compare against.

OrbitCoordinates identifies a matrix that is constant on every orbit with its
vector of orbit values in Q^d, d = 4 C(m+4, 4), which makes Q^d the
centralizer algebra; one instance per m is shared.  Its action_tables certify
how 0/1 generators act on the orbit matrices from either side, each entry
over all vertex pairs, so algebras generated by them can be computed and
kept in Q^d; lift gives the n x n form of such an algebra for export.
It also computes the structure constants p^c_{ab}, with O_a O_b =
sum_c p^c_{ab} O_c, from the first pair (y, z) of each orbit c: the count of
middle vertices w with (y, w) in orbit a and (w, z) in orbit b.  That every
pair of orbit c sees the same counts is the coherent-configuration
property, and it is checked rather than assumed: on all vertex triples up
to m = _EXHAUSTIVE_MAX_M, and above it on seeded extra pairs of every orbit
and by Higman's identity |c| p^c_{ab} = |a| p^a_{c b^T}.  The orbit matrices
have disjoint supports, so a product lies in the span of a set F of them
exactly when its support {c : p^c_{ab} > 0} lies in F; check_subalgebra
reads its scan off that table without forming an n x n product.
"""

from __future__ import annotations

import enum
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb
from operator import add
from typing import NamedTuple

from .combinatorics import GroundSet, _vertices, _vertex_index, class_profiles
from .linalg import (
    NotClosedError,
    ShapeMismatchError,
    SparseExactMatrix,
    SpanBasis,
    _norm,
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


_BLOCKS = (BlockTag.I, BlockTag.II, BlockTag.III, BlockTag.IV)

# the structure constants are certified on all n^3 vertex triples up to this
# m (n = 70 at m = 3); above it, on _SAMPLED_PAIRS seeded extra pairs of every
# orbit and by Higman's identity
_EXHAUSTIVE_MAX_M = 3
_SAMPLED_PAIRS = 2


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
    return _BLOCKS[2 * (y.bit_count() > m) + (z.bit_count() > m)]


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
    for block in _BLOCKS:
        for tup in sorted(_index_set(block, m)):
            labels.append(OrbitLabel(block, tup))
    return tuple(labels)


def orbit_labels(g: GroundSet) -> list[OrbitLabel]:
    """All orbit labels: blocks I, II, III, IV, tuples lexicographic."""
    return list(_orbit_labels(g.m))


class PairIndex(NamedTuple):
    """orbit_of[y * n + z] is the orbit of the vertex pair (y, z); orbit a
    has label labels[a] and the ascending row-major pair positions
    positions[a].  Orbits are numbered by their first pair."""

    n: int
    labels: tuple[OrbitLabel, ...]
    orbit_of: array
    positions: tuple[array, ...]


@lru_cache(maxsize=8)
def _pair_index(m: int) -> PairIndex:
    """The one place that decides which orbit a vertex pair is in.

    One row-major pass encodes each pair's label (block, rho) as one int and
    numbers the labels as they are first met.  The labels met must be the
    closed-form labels: a pair labelled outside the closed form raises
    NotClosedError (the closed-form orbits would not partition the pairs),
    and a closed-form label that no pair carries raises IndependenceError.
    """
    verts = _vertices(m)
    n = len(verts)
    half = comb(2 * m + 1, m)
    x0 = GroundSet(m).base_vertex
    base = m + 2
    # key = (((block * base + i) * base + j) * base + t) * base + p, where
    # block = 2 [|y| = m + 1] + [|z| = m + 1]
    z_keys = [(zi >= half) * base ** 4 + (x0 & z).bit_count() * base ** 2
              for zi, z in enumerate(verts)]
    ids: dict[int, int] = {}
    first_seen = ids.setdefault
    orbit_of = array("H")
    for yi, y in enumerate(verts):
        y_key = (yi >= half) * 2 * base ** 4 + (x0 & y).bit_count() * base ** 3
        x0y = x0 & y
        orbit_of.extend([
            first_seen(y_key + z_key + (y & z).bit_count() * base + (x0y & z).bit_count(), len(ids))
            for z, z_key in zip(verts, z_keys)
        ])
    positions = tuple(array("I") for _ in ids)
    append = [pos.append for pos in positions]
    for idx, a in enumerate(orbit_of):
        append[a](idx)
    # all pairs of an orbit share its key, so its first pair gives its label
    firsts = [(verts[pos[0] // n], verts[pos[0] % n]) for pos in positions]
    labels = tuple(OrbitLabel(block_of_pair(m, y, z), rho(x0, y, z)) for y, z in firsts)
    met, closed = set(labels), set(_orbit_labels(m))
    for lab in labels:
        if lab not in closed:
            raise NotClosedError(
                f"a vertex pair has label {lab.text()}, which is not closed-form: "
                f"the closed-form orbits do not partition the vertex pairs"
            )
    for lab in _orbit_labels(m):
        if lab not in met:
            raise IndependenceError(f"closed-form label {lab.text()} has an empty orbit")
    return PairIndex(n, labels, orbit_of, positions)


@lru_cache(maxsize=8)
def _orbit_matrices(m: int) -> dict[OrbitLabel, SparseExactMatrix]:
    # a view of the pair index, keyed in its orbit order
    index = _pair_index(m)
    n = index.n
    out = {}
    for lab, positions in zip(index.labels, index.positions):
        rows: dict[int, dict[int, object]] = {}
        for idx in positions:
            y, z = divmod(idx, n)
            rows.setdefault(y, {})[z] = 1
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
    """Orbit-matrix basis of the centralizer algebra of the stabilizer; the
    algebra is Q^d in the shared orbit coordinates, coordinates."""

    m: int
    labels: tuple[OrbitLabel, ...]
    coordinates: OrbitCoordinates

    @property
    def dimension(self) -> int:
        return len(self.labels)


def build_centralizer(g: GroundSet) -> CentralizerBasis:
    """The orbit-matrix basis in the closed-form label order, certified by
    the pair index: every pair lies in exactly one orbit, the labels met are
    the closed-form labels (else NotClosedError or IndependenceError), and
    nonzero matrices with disjoint supports are independent.  No orbit
    matrix is built."""
    return CentralizerBasis(g.m, _orbit_labels(g.m), _orbit_coordinates(g.m))


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
    block its support lands in.

    Every ordered pair (a, b) of sub is checked, in order, against the
    certified structure constants of StructureConstants: O_a O_b is the sum
    of p^c_{ab} O_c over its support {c : p^c_{ab} > 0}, and the orbit
    matrices have disjoint supports, so the product lies in span(sub) exactly
    when its support lies in sub.  No n x n product is formed.  The block of
    an offending product is that of its first entry in row-major order, which
    lies in the least orbit of its support, since orbits are numbered by
    their first pair.
    """
    labels = _structure_constants(g.m).labels
    supports = _product_supports(g.m)
    d = len(labels)
    ids = {lab: c for c, lab in enumerate(labels)}
    try:
        sub_ids = [ids[lab] for lab in sub]
    except KeyError as exc:
        raise ValueError(f"unknown orbit label {exc.args[0]}") from None
    inside = set(sub_ids)
    first_violation = None
    violation_block = None
    for la, a in zip(sub, sub_ids):
        for lb, b in zip(sub, sub_ids):
            support = supports.get(a * d + b, ())
            if first_violation is None and not inside.issuperset(support):
                first_violation = (la, lb)
                violation_block = labels[support[0]].block
    return SubalgebraClosureReport(
        closed=first_violation is None,
        pairs_checked=len(sub) ** 2,
        first_violation=first_violation,
        violation_block=violation_block,
    )


class StructureConstants(NamedTuple):
    """The certified structure constants p^c_{ab} of the orbit matrices.

    Orbits are numbered as in OrbitCoordinates and labels[c] is the label of
    orbit c.  keys[c] is the sorted multiset of a * d + b over the vertices w,
    for any pair (y, z) of orbit c, with (y, w) in orbit a and (w, z) in
    orbit b; so p^c_{ab}, the (y, z) entry of O_a O_b, is the multiplicity of
    a * d + b in keys[c], and O_a O_b = sum_c p^c_{ab} O_c.
    """

    labels: tuple[OrbitLabel, ...]
    keys: tuple[array, ...]


@lru_cache(maxsize=8)
def _structure_constants(m: int) -> StructureConstants:
    return _orbit_coordinates(m).structure_constants()


@lru_cache(maxsize=8)
def _product_supports(m: int) -> dict[int, list[int]]:
    """a * d + b -> the support {c : p^c_{ab} > 0} of O_a O_b, ascending;
    a product that is zero has no entry."""
    supports: dict[int, list[int]] = {}
    for c, keys in enumerate(_structure_constants(m).keys):
        for key in set(keys):
            supports.setdefault(key, []).append(c)
    return supports


class ActionTable(NamedTuple):
    """The certified action of one matrix g on the orbit matrices.

    left[a] and right[a] map orbit b to the coefficient of O_b in g O_a and in
    O_a g respectively.
    """

    left: tuple[dict[int, int], ...]
    right: tuple[dict[int, int], ...]


class OrbitCoordinates:
    """Orbit coordinates Q^d on the pair index.

    Orbits are numbered by the row-major position of their first vertex pair,
    so an RREF basis in Q^d lifts entry for entry to the RREF basis of the
    same span of n x n matrices; in particular the identity RREF of Q^d
    lifts to the RREF of the span of all orbit matrices.  Nothing assumes
    that the orbit matrices form a coherent configuration: the identity is
    checked to be a sum of orbit matrices, and every entry of action_tables
    is read off all pairs of its orbit and checked to be the same on each of
    them (NotClosedError otherwise).  An instance is the action
    algebra_closure and centralizer_within need, with tables from
    action_tables as its generators.  orbit_labels[a] is the label of orbit
    a, and structure_constants() reads the products of orbit matrices off
    one pair per orbit and certifies them.
    """

    def __init__(self, g: GroundSet):
        index = _pair_index(g.m)
        n, labels, positions = index.n, index.orbit_of, index.positions
        diagonal = {labels[i * (n + 1)] for i in range(n)}
        if sum(len(positions[a]) for a in diagonal) != n:
            raise NotClosedError("the identity is not a sum of orbit matrices")
        self.m = g.m
        self.n = n
        self.ambient_dim = len(positions)
        self.orbit_labels = index.labels
        self._labels = labels
        self._positions = positions
        self._identity = {a: 1 for a in sorted(diagonal)}

    def _label_lines(self) -> tuple[list, list]:
        """The orbit ids along each row and along each column of the pairs."""
        n, labels = self.n, self._labels
        return [labels[k * n:(k + 1) * n] for k in range(n)], [labels[k::n] for k in range(n)]

    def action_tables(self, generators: list[SparseExactMatrix]) -> list[ActionTable]:
        """The certified action of each 0/1 generator on the orbit matrices."""
        n = self.n
        label_rows, label_cols = self._label_lines()
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

    def structure_constants(self) -> StructureConstants:
        """The structure constants of the orbit matrices, read off the first
        pair of each orbit (d·n work) and certified (NotClosedError when some
        p^c_{ab} differs between two pairs of orbit c, i.e. when the orbits
        do not form a coherent configuration).

        Up to m = _EXHAUSTIVE_MAX_M every pair of every orbit is checked, by
        one pass over all n^3 triples.  Above it the n^3 pass is out of reach
        (about 2.7 s at m = 4), and the table is checked on _SAMPLED_PAIRS
        seeded extra pairs of every orbit and by Higman's identity."""
        keys = [self._profile(pos[0]) for pos in self._positions]
        if self.m <= _EXHAUSTIVE_MAX_M:
            self._certify_exhaustively()
        else:
            self._certify_by_samples(keys)
            self._certify_by_higman(keys)
        return StructureConstants(self.orbit_labels, tuple(array("I", k) for k in keys))

    def _profile(self, idx: int) -> list[int]:
        # the sorted keys a * d + b over the middle vertices w of the pair at
        # row-major position idx, with (y, w) in orbit a and (w, z) in orbit b
        n, d, labels = self.n, self.ambient_dim, self._labels
        y, z = divmod(idx, n)
        return sorted(map(add, [a * d for a in labels[y * n:(y + 1) * n]], labels[z::n]))

    def _certify_exhaustively(self) -> None:
        """Every pair's keys against those of its orbit's first pair, the
        pair the table was read off."""
        label_rows, label_cols = self._label_lines()
        # (O_a O_b)[y, z] counts the w with (y, w) in orbit a and (w, z) in orbit b
        _, offending = class_profiles(label_rows, label_cols, label_rows, self.ambient_dim)
        if offending is not None:
            y, z = offending
            raise NotClosedError(
                f"the products of orbit matrices are not constant on orbit "
                f"{self.orbit_labels[label_rows[y][z]].text()}"
            )

    def _certify_by_samples(self, keys: list[list[int]]) -> None:
        """Every orbit's keys, checked on up to _SAMPLED_PAIRS seeded pairs
        of the orbit other than its first."""
        rng = random.Random(20260 + self.m)
        for c, pos in enumerate(self._positions):
            for k in rng.sample(range(1, len(pos)), min(_SAMPLED_PAIRS, len(pos) - 1)):
                if self._profile(pos[k]) != keys[c]:
                    raise NotClosedError(
                        f"the products of orbit matrices are not constant on orbit "
                        f"{self.orbit_labels[c].text()}"
                    )

    def _certify_by_higman(self, keys: list[list[int]]) -> None:
        """|c| p^c_{ab} = |a| p^a_{c b^T} for every nonzero p^c_{ab}, where
        |c| is the number of pairs of orbit c and b^T the orbit of the
        transposed pairs of b: both sides count the triples (y, w, z) with
        (y, z) in c, (y, w) in a and (w, z) in b."""
        n, d, labels, positions = self.n, self.ambient_dim, self._labels, self._positions
        sizes = [len(pos) for pos in positions]
        transpose = [labels[pos[0] % n * n + pos[0] // n] for pos in positions]
        counts = [Counter(k) for k in keys]
        for c, table in enumerate(counts):
            for key, p in table.items():
                a, b = divmod(key, d)
                if sizes[c] * p != sizes[a] * counts[a][c * d + transpose[b]]:
                    raise NotClosedError(
                        f"the structure constants fail Higman's identity at "
                        f"c = {self.orbit_labels[c].text()}, a = {self.orbit_labels[a].text()}, "
                        f"b = {self.orbit_labels[b].text()}"
                    )

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


@lru_cache(maxsize=8)
def _orbit_coordinates(m: int) -> OrbitCoordinates:
    return OrbitCoordinates(GroundSet(m))


def _apply(table: tuple[dict[int, int], ...], vec: dict[int, object]) -> dict[int, object]:
    out: dict[int, object] = {}
    for a, x in vec.items():
        for b, c in table[a].items():
            out[b] = out.get(b, 0) + c * x
    return {b: _norm(v) for b, v in out.items() if v}
