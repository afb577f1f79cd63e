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

Sphere i around x0 is {y : m + |y| - 2|x0 n y| = i}, the vertices at
distance i from x0, so a label names the spheres its pairs start and end
in and their distance.  LabelScheme holds the orbit coordinates Q^d built
from closed forms alone, orbit a the a-th label.  A_1 acts on it by push
tables (PushTable), moving one Venn atom of a pair, and E*_s keeps the
orbits that start in sphere s, its row block.  It lists no vertex.

OrbitCoordinates, the package's one orbit index, built once per run and
passed to each reader, is the doubled Odd graph's scheme with its vertex
side.  The stabilizer fixes every label and is transitive on each sphere,
so the index reads the 2m+2 sphere rows to find each orbit's first pair
and to size it as |sphere| times its count in its row.  It certifies the
scheme as it is built: the label keys met are the closed-form labels'
keys, and union-finds over the n vertices show that the orbits are a
permutation group's (_certify_stabilizer_orbits), so A_1's moves,
cross-checked on first pairs, hold on every pair.  The orbit of any pair
is read off its label key (OrbitCoordinates.orbits).  The index is also
the centralizer algebra (build_centralizer), a matrix constant on every
orbit being its vector of orbit values.
Only the union-find of the stabilizer generators on vertex pairs
(orbits_by_group_action, for orbits-oracle), its comparison with the pairs'
label keys (_check_group_orbits), which builds no index, and the matrix
export, which reads all n rows once, touch all n^2 pairs.

The closed forms are production code; the union-find grinds out the orbits
from explicit group generators, with no reference to the labels, and is
compared with them.
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain
from typing import NamedTuple

from .combinatorics import GroundSet, _neighbours, _vertices, _vertex_index
from .linalg import NotClosedError, _norm


class BlockTag(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


class OrbitLabel(NamedTuple):
    block: BlockTag
    tup: tuple[int, int, int, int]

    def text(self) -> str:
        i, j, t, p = self.tup
        return f"{self.block.value}:{i},{j},{t},{p}"


_BLOCKS = (BlockTag.I, BlockTag.II, BlockTag.III, BlockTag.IV)

# the three families of the direct sum of the centralizer algebra: the
# diagonal-size blocks I and IV, and the mixed pair II + III
BLOCK_FAMILIES: dict[str, tuple[BlockTag, ...]] = {
    "I": (BlockTag.I,),
    "II+III": (BlockTag.II, BlockTag.III),
    "IV": (BlockTag.IV,),
}

class IndependenceError(RuntimeError):
    """The orbit indicator matrices failed to be linearly independent."""


def _sides(label: OrbitLabel) -> tuple[bool, bool]:
    """Whether |y| = m + 1 and whether |z| = m + 1 for the pairs (y, z) of
    the orbit with this label."""
    return label.block in (BlockTag.III, BlockTag.IV), label.block in (BlockTag.II, BlockTag.IV)


def _orbit_distance(m: int, label: OrbitLabel) -> int:
    """The distance |y| + |z| - 2|y n z| of every pair (y, z) of the orbit
    with this label: the block gives |y| and |z|, the label's third entry
    |y n z|."""
    big_y, big_z = _sides(label)
    return 2 * m + big_y + big_z - 2 * label.tup[2]


def _orbit_spheres(m: int, label: OrbitLabel) -> tuple[int, int]:
    """The spheres the pairs (y, z) of the orbit with this label start and
    end in, m + |y| - 2|x0 n y| and m + |z| - 2|x0 n z|: the block gives |y|
    and |z|, the label's first two entries |x0 n y| and |x0 n z|."""
    big_y, big_z = _sides(label)
    i, j, _, _ = label.tup
    return 2 * m + big_y - 2 * i, 2 * m + big_z - 2 * j


@lru_cache(maxsize=64)
def index_set(block: BlockTag, m: int) -> frozenset[tuple[int, int, int, int]]:
    """Admissible four-tuples of a block, by the closed-form inequalities."""
    if m < 1:
        raise ValueError("m must be at least 1")
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
        raise ValueError(f"{tup} is not an admissible four-tuple of block {block.value}")
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
        for tup in sorted(index_set(block, m)):
            labels.append(OrbitLabel(block, tup))
    return tuple(labels)


@lru_cache(maxsize=8)
def _key_parts(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # the parts of a pair's label key that depend on y alone and on z alone,
    # per vertex
    base = m + 2
    x0 = GroundSet(m).base_vertex
    verts = _vertices(m)
    rows = tuple((2 * (y.bit_count() > m) * base + (x0 & y).bit_count()) * base ** 3 for y in verts)
    cols = tuple(((z.bit_count() > m) * base ** 2 + (x0 & z).bit_count()) * base ** 2 for z in verts)
    return rows, cols


def _label_keys(m: int, yi: int, zs) -> list[int]:
    """The label keys of the pairs (y, z), y the vertex yi and z over the
    vertex indices zs: the label (block, (i, j, t, p)) of a pair is encoded as
    (((block * base + i) * base + j) * base + t) * base + p, base = m + 2,
    where block = 2 [|y| = m + 1] + [|z| = m + 1]."""
    verts = _vertices(m)
    rows, cols = _key_parts(m)
    base = m + 2
    y = verts[yi]
    x0y = verts[0] & y  # x0 = {1, ..., m} is the least vertex mask
    y_key = rows[yi]
    return [y_key + cols[z] + (y & verts[z]).bit_count() * base + (x0y & verts[z]).bit_count() for z in zs]


def _label_key(m: int, label: OrbitLabel) -> int:
    """The key _label_keys gives the pairs with this label, which
    _key_label reads back."""
    key = _BLOCKS.index(label.block)
    for entry in label.tup:
        key = key * (m + 2) + entry
    return key


def _spheres(m: int) -> tuple[tuple[int, ...], ...]:
    """Sphere i around x0, 0 <= i <= 2m+1: the indices, ascending, of the
    vertices y with m + |y| - 2|x0 n y| = i."""
    x0 = GroundSet(m).base_vertex
    spheres: list[list[int]] = [[] for _ in range(2 * m + 2)]
    for yi, y in enumerate(_vertices(m)):
        spheres[m + y.bit_count() - 2 * (x0 & y).bit_count()].append(yi)
    return tuple(map(tuple, spheres))


def _sphere_row_keys(m: int) -> list[list[int]]:
    """The label keys of the sphere rows: row i holds those of the pairs
    (y, z), y the first vertex of sphere i and z over all vertices."""
    everyone = range(len(_vertices(m)))
    return [_label_keys(m, sphere[0], everyone) for sphere in _spheres(m)]


def _neighbour_labels(m: int, label: OrbitLabel) -> list[tuple[OrbitLabel, int]]:
    """The Venn-atom moves of A_1 on a pair (y, z) with this label: the
    labels of the pairs (w, z), w over the neighbours of y, each with the
    size of the atom of x0, y and z that moves to it.  w adds to y a point
    q outside y when |y| = m and removes a point q of y when |y| = m+1, and
    |x0 n w|, |w n z|, |x0 n w n z| move by [q in x0], [q in z], [q in both]."""
    big_y, big_z = _sides(label)
    i, j, t, p = label.tup
    # the atoms q is taken from, keyed by ([q in x0], [q in z])
    if big_y:
        step, atoms = -1, {(1, 1): p, (1, 0): i - p, (0, 1): t - p, (0, 0): m + 1 - i - t + p}
    else:
        z_out = m + big_z - j - t + p  # the points of z outside x0 and y
        step, atoms = 1, {(1, 1): j - p, (1, 0): m - i - j + p, (0, 1): z_out, (0, 0): 1 + i - z_out}
    block = _BLOCKS[2 * (not big_y) + big_z]
    return [(OrbitLabel(block, (i + step * x, j, t + step * z, p + step * x * z)), k) for (x, z), k in atoms.items() if k]


def _check_labels_met(m: int, keys) -> None:
    """The certificate that the label keys met are the closed-form labels'
    keys.  The least key of no closed-form label raises NotClosedError (the
    closed-form orbits would not partition the pairs), and the first
    closed-form label whose key is not met raises IndependenceError."""
    met, closed = set(keys), {_label_key(m, lab): lab for lab in _orbit_labels(m)}
    stray = min(met.difference(closed), default=None)
    if stray is not None:
        raise NotClosedError(
            f"a vertex pair has label {_key_label(m, stray).text()}, which is not closed-form: "
            f"the closed-form orbits do not partition the vertex pairs"
        )
    for key, lab in closed.items():
        if key not in met:
            raise IndependenceError(f"closed-form label {lab.text()} has an empty orbit")


class PushTable(NamedTuple):
    """A generator g of T as its action on the orbit matrices: left[a] lists
    the (c, k), c ascending, with g O_a = sum k O_c, and right[a] those with
    O_a g = sum k O_c."""

    left: tuple[tuple[tuple[int, int], ...], ...]
    right: tuple[tuple[tuple[int, int], ...], ...]


def _push(table, vec: dict[int, object]) -> dict[int, object]:
    """The orbit coordinates of sum_a vec[a] table[a], table[a] the (c, k) of sum k O_c."""
    out: dict[int, object] = {}
    for a, u in vec.items():
        for c, k in table[a]:
            out[c] = out.get(c, 0) + u * k
    return {c: _norm(w) for c, w in out.items() if w}


def _transposed(label: OrbitLabel) -> OrbitLabel:
    # the label of the pairs (z, y): blocks II and III swap, and so do i and j
    i, j, t, p = label.tup
    return OrbitLabel(_BLOCKS[(0, 2, 1, 3)[_BLOCKS.index(label.block)]], (j, i, t, p))


class LabelScheme:
    """The orbit coordinates Q^d of a scheme given by closed forms alone.

    For a pair (y, z) with a label, ends(label) gives the spheres of y and
    z, distance(label) their distance, moves(label) the (label of (w, z),
    number of such w) over the neighbours w of y, and transpose(label) the
    label of (z, y).  Orbit a = id_of[labels[a]] starts in sphere row_of[a],
    ends in end_of[a] and lies at distance distance_of[a].  The distance
    matrix A_i is the sum of the orbits distance_classes[i], those at
    distance i, and the identity is A_0.  That one pair's moves hold for its
    whole orbit is the caller's to certify.  An instance is the action
    algebra_closure and centralizer_within need, with push tables as its
    generators: left(g, v) and right(g, v) are g v and v g.  Its row blocks
    are the spheres of row_of, so T is its closure under adjacency alone.
    """

    def __init__(self, labels, ends, distance, moves, transpose):
        self.labels = tuple(labels)
        self.ambient_dim = len(self.labels)
        self.id_of = {lab: a for a, lab in enumerate(self.labels)}
        self.row_of, self.end_of = map(tuple, zip(*map(ends, self.labels)))
        self.distance_of = tuple(map(distance, self.labels))
        self._moves, self._transpose = moves, transpose

    @cached_property
    def adjacency(self) -> PushTable:
        """A_1 as push tables, built on first read: the coefficient of O_c
        in A_1 O_b is the number of neighbours w of y with (w, z) in b, for
        a pair (y, z) of c, which c's moves give, and O_b A_1 is the
        transpose of A_1 O_{b^T}, b^T the orbit of the transposed pairs."""
        left: list[list[tuple[int, int]]] = [[] for _ in self.labels]
        for c, label in enumerate(self.labels):
            for lab, size in self._moves(label):
                left[self.id_of[lab]].append((c, size))
        transposed = [self.id_of[self._transpose(lab)] for lab in self.labels]
        right = (sorted((transposed[c], k) for c, k in left[b_t]) for b_t in transposed)
        return PushTable(tuple(map(tuple, left)), tuple(map(tuple, right)))

    @cached_property
    def distance_classes(self) -> tuple[tuple[int, ...], ...]:
        """The orbits of each A_i, ascending, i from 0 to the largest
        distance, built on first read."""
        dist = self.distance_of
        return tuple(tuple(a for a, h in enumerate(dist) if h == i) for i in range(max(dist) + 1))

    def identity(self) -> dict[int, object]:
        return dict.fromkeys(self.distance_classes[0], 1)

    def left(self, g: PushTable, vec: dict[int, object]) -> dict[int, object]:
        return _push(g.left, vec)

    def right(self, g: PushTable, vec: dict[int, object]) -> dict[int, object]:
        return _push(g.right, vec)


def _closed_forms(m: int) -> tuple:
    """The doubled Odd graph's scheme at m in LabelScheme's argument order:
    labels, ends, distance, moves and transpose, each closed form looked up
    when called."""
    return (_orbit_labels(m), lambda lab: _orbit_spheres(m, lab), lambda lab: _orbit_distance(m, lab),
            lambda lab: _neighbour_labels(m, lab), _transposed)


class OrbitCoordinates(LabelScheme):
    """The doubled Odd graph's label scheme at m with its vertex side: the
    orbit index of the vertex pairs.  orbit_of maps each label's key
    (_label_key) to its orbit.  spheres[i] lists the vertices of sphere i,
    those at distance i from x0, ascending, and sphere_of[y] is the sphere
    of vertex y.  rows[i][z] is the orbit of (spheres[i][0], z), read off
    label keys, as is the orbit of every pair (orbits).  Orbit a has
    sizes[a] pairs and first pair (spheres[row_of[a]][0], members[a][0]),
    where members[a] lists ascending the z with (spheres[row_of[a]][0], z)
    in a.  O_a O_b != 0 exactly when end_of[a] == row_of[b].
    """

    def __init__(self, m: int):
        """The index at m, read off the 2m+2 sphere rows, each orbit sized
        as |sphere| times its count in its row, on closed forms looked up
        when called.  Certified: the label keys met are the closed-form
        labels' (_check_labels_met), and the orbits are a permutation
        group's (_certify_stabilizer_orbits)."""
        super().__init__(*_closed_forms(m))
        self.m, self.n = m, len(_vertices(m))
        self.orbit_of = {_label_key(m, lab): a for a, lab in enumerate(self.labels)}
        self.spheres = _spheres(m)
        self.sphere_of = array("H", [0]) * self.n
        keys = _sphere_row_keys(m)
        _check_labels_met(m, chain.from_iterable(keys))
        self.rows = tuple(array("H", map(self.orbit_of.__getitem__, row)) for row in keys)
        members: list[list[int]] = [[] for _ in self.labels]
        sizes = [0] * self.ambient_dim
        for s, (sphere, row) in enumerate(zip(self.spheres, self.rows)):
            for y in sphere:
                self.sphere_of[y] = s
            for z, a in enumerate(row):
                if self.row_of[a] == s:
                    members[a].append(z)
                # the stabilizer moves this row onto every row of its sphere
                sizes[a] += len(sphere)
        self.members, self.sizes = tuple(map(tuple, members)), tuple(sizes)
        _certify_stabilizer_orbits(self)

    def first_pair(self, a: int) -> tuple[int, int]:
        return self.spheres[self.row_of[a]][0], self.members[a][0]

    def orbits(self, y: int, zs) -> list[int | None]:
        """The orbits of the pairs (y, z), z over the vertex indices zs, read
        off their label keys (None for a key of no orbit): the one lookup."""
        return list(map(self.orbit_of.get, _label_keys(self.m, y, zs)))

    @cached_property
    def adjacency(self) -> PushTable:
        """A_1's push tables, once the moves are cross-checked on the first
        pair (y, z) of every orbit c: the orbits of (w, z) (orbits), for the
        neighbours w of y (combinatorics._neighbours), must be c's moves
        (NotClosedError naming c otherwise).  The certified orbits are a
        permutation group's, so every pair of c moves alike."""
        neighbours = _neighbours(self.m)
        for c, label in enumerate(self.labels):
            y, z = self.first_pair(c)
            met = Counter(self.orbits(w, (z,))[0] for w in neighbours[y])
            if met != {self.id_of.get(lab): size for lab, size in self._moves(label)}:
                raise NotClosedError(f"the neighbours of the first pair of orbit {label.text()} do not move it by its Venn atoms")
        return super().adjacency


def constant_on_orbits(index: OrbitCoordinates, pairs) -> list[bool]:
    """For each pair (a, b) of orbits of the index, whether O_a O_b is
    constant on every orbit, i.e. lies in the span of the orbit matrices.

    O_a O_b is 0 unless end_of[a] == row_of[b] (the sphere rule of
    OrbitCoordinates), and else nonzero only in the rows of a's row sphere;
    the stabilizer moves the first vertex y of that sphere onto each of
    them, keeping every orbit, so it is constant on every orbit exactly when
    its row y is constant on every orbit met along that row.  Entry z of
    that row counts the members w of a in row y with (w, z) in b, that is
    whose label key (_label_keys) is b's (_label_key), for z over the sphere
    b's pairs end in.  No structure constant is read.
    """
    met = [len(set(row)) for row in index.rows]  # the orbits along each sphere row
    verdicts = []
    for a, b in pairs:
        if index.end_of[a] != index.row_of[b]:
            verdicts.append(True)
            continue
        key = _label_key(index.m, index.labels[b])
        zs = index.spheres[index.end_of[b]]
        entries = [0] * index.n
        for w in index.members[a]:
            for z, k in zip(zs, _label_keys(index.m, w, zs)):
                if k == key:
                    entries[z] += 1
        # each orbit met along the row has one value exactly when the
        # distinct (orbit, value) pairs are as many as the distinct orbits
        s = index.row_of[a]
        verdicts.append(len(set(zip(index.rows[s], entries))) == met[s])
    return verdicts


def _young_generators(n: int, parts) -> list[tuple[int, ...]]:
    """Generators of the Young subgroup of sym(n) on the given parts, lists
    of 0-based points, as point permutations: a transposition of the first
    two points and a full cycle on each part, in the order of the parts.
    Parts of size < 3 contribute no cycle and parts of size < 2 nothing."""
    gens: list[tuple[int, ...]] = []
    for pts in parts:
        if len(pts) >= 2:
            perm = list(range(n))
            perm[pts[0]], perm[pts[1]] = pts[1], pts[0]
            gens.append(tuple(perm))
        if len(pts) >= 3:
            perm = list(range(n))
            for src, dst in zip(pts, pts[1:] + pts[:1]):
                perm[src] = dst
            gens.append(tuple(perm))
    return gens


def stabilizer_generators(g: GroundSet) -> list[tuple[int, ...]]:
    """Generators of sym(x0) x sym(S - x0) as 0-based point permutations.

    A transposition and a full cycle on each factor; degenerate factors of
    size < 2 contribute nothing (at m = 1 the x0 factor is trivial).
    """
    return _young_generators(g.n_points, [list(range(g.m)), list(range(g.m, g.n_points))])


def _vertex_maps(m: int, perms) -> list[tuple[int, ...]]:
    """The map of vertex indices each point permutation induces: a mask is
    moved a byte at a time, through one table per byte of the 2m+1 points
    that holds the image of every value of that byte."""
    verts, index = _vertices(m), _vertex_index(m)
    maps = []
    for perm in perms:
        images = [0] * len(verts)
        for lo in range(0, len(perm), 8):
            table = [0] * (1 << min(8, len(perm) - lo))
            for v in range(1, len(table)):
                low = v & -v
                table[v] = table[v ^ low] | 1 << perm[lo + low.bit_length() - 1]
            images = [image | table[v >> lo & 255] for image, v in zip(images, verts)]
        maps.append(tuple(map(index.__getitem__, images)))
    return maps


def _union_find(size: int, images) -> list[int]:
    """The union-find root of each point 0..size-1 when every point k is
    joined with image[k], for each image in images: two points share a root
    exactly when a chain of the maps joins them, so for permutations the
    classes are the orbits of the group they generate.  Roots are found by
    path halving, inlined: a and b walk up to their roots."""
    parent = list(range(size))
    for image in images:
        for a, b in enumerate(image):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[b] = a
    roots = []
    for a in range(size):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        roots.append(a)
    return roots


def orbits_by_group_action(g: GroundSet) -> array:
    """Orbits of the stabilizer on ordered vertex pairs via union-find.

    Works straight from explicit group generators, with no reference to the
    four-tuple invariant, so it independently cross-checks the closed forms.
    roots[y * n + z] is the union-find root of the vertex pair (y, z); two
    pairs lie in one orbit exactly when their roots are equal.
    """
    n = len(_vertices(g.m))
    # the image of pair (y, z) = y * n + z under a vertex map vp
    images = (
        (py + vp[z] for py in [vp[y] * n for y in range(n)] for z in range(n))
        for vp in _vertex_maps(g.m, stabilizer_generators(g))
    )
    return array("I", _union_find(n * n, images))


def _check_classes(roots, ids, name) -> None:
    """The ids, read in step with roots, must partition like the union-find
    classes of roots, which they do exactly when the distinct roots, the
    distinct ids and the distinct (root, id) pairs are equally many.
    Raises NotClosedError naming, by name(a), the least id a whose elements
    are not exactly one class of roots."""
    roots_of: dict[int, set[int]] = {}
    ids_of: dict[int, set[int]] = {}
    met = set(zip(roots, ids))
    for root, a in met:
        roots_of.setdefault(a, set()).add(root)
        ids_of.setdefault(root, set()).add(a)
    if len(met) == len(roots_of) == len(ids_of):
        return
    a = min(a for a, rs in roots_of.items() if len(rs) > 1 or any(ids_of[r] != {a} for r in rs))
    raise NotClosedError(f"{name(a)} is not a single orbit of the stabilizer generators")


def _check_permutations(vertex_maps, fixed: dict[str, int], what: str) -> None:
    # every map must permute the vertices and fix each named vertex; what
    # names map k as what.format(k)
    for k, vertex_map in enumerate(vertex_maps):
        if len(set(vertex_map)) != len(vertex_map):
            raise NotClosedError(f"{what.format(k)} does not permute the vertices")
        for name, y in fixed.items():
            if vertex_map[y] != y:
                raise NotClosedError(f"{what.format(k)} does not fix {name}")


def _certify_stabilizer_orbits(index: OrbitCoordinates) -> None:
    """The certificate that the orbits of the index are the orbits of a
    permutation group on vertex pairs, by union-finds over the n vertices.

    (a) The stabilizer generators must permute the vertices and fix x0, and
    the classes of the group G they generate must be the spheres.  (b) For
    each sphere s, with first vertex y_s, the Young generators of the four
    atoms of x0 and y_s (x0 n y_s, x0 - y_s, y_s - x0 and the rest) must
    fix x0 and y_s, and the classes of the group H_s they generate must be
    those of the orbit ids along row y_s.

    Proof: a permutation of S that fixes x0 keeps labels, and so orbits, so
    every orbit is a union of orbits of the group K that G and the H_s
    generate.  Two pairs of one orbit start in the sphere s its label
    names, G moves each into row y_s by (a), and H_s moves the one onto the
    other by (b).  Raises NotClosedError naming the first generator that is
    no permutation or moves x0 or y_s, the first sphere that is not one
    class of G, or the first orbit, in label order, that is not one class
    of H_s.
    """
    m, n = index.m, index.n
    g = GroundSet(m)
    base, verts = g.base_vertex, _vertices(m)
    x0 = _vertex_index(m)[base]
    # the vertex map of each distinct permutation is built once per call:
    # the row generators of the spheres repeat
    known: dict[tuple[int, ...], tuple[int, ...]] = {}

    def vertex_maps(perms) -> list[tuple[int, ...]]:
        new = [p for p in dict.fromkeys(perms) if p not in known]
        known.update(zip(new, _vertex_maps(m, new)))
        return [known[p] for p in perms]

    maps = vertex_maps(stabilizer_generators(g))
    _check_permutations(maps, {"x0": x0}, "stabilizer generator {}")

    def sphere_name(s: int) -> str:
        y = verts[index.spheres[s][0]]
        return f"sphere {s} (|y| = {y.bit_count()}, |x0 n y| = {(base & y).bit_count()})"

    _check_classes(_union_find(n, maps), index.sphere_of, sphere_name)
    for s, (sphere, row) in enumerate(zip(index.spheres, index.rows)):
        y = verts[sphere[0]]
        atoms = [
            [k for k in range(g.n_points) if mask >> k & 1]
            for mask in (base & y, base & ~y, y & ~base, g.full_mask & ~(base | y))
        ]
        maps = vertex_maps(_young_generators(g.n_points, atoms))
        _check_permutations(maps, {"x0": x0, "y_s": sphere[0]}, f"row generator {{}} of sphere {s}")
        _check_classes(_union_find(n, maps), row, lambda a: f"orbit {index.labels[a].text()}")


def _check_group_orbits(m: int, roots) -> None:
    """The comparison of the labels' orbits with roots, the union-find of
    the stabilizer generators on vertex pairs (orbits_by_group_action),
    with no orbit index, so that its certificate is not assumed.

    Every generator must permute the vertices (n lookups each), so that the
    union-find classes of roots are the orbits of a permutation group.  The
    two partitions of the pairs are then compared by _check_classes, each
    pair's label key (_label_keys) read one row at a time.  Raises
    NotClosedError naming the first generator that is no permutation, or
    the first label, in closed-form order, whose pairs are not a single
    group orbit.
    """
    g = GroundSet(m)
    _check_permutations(_vertex_maps(m, stabilizer_generators(g)), {}, "stabilizer generator {}")
    everyone = range(len(_vertices(m)))
    keys = chain.from_iterable(_label_keys(m, y, everyone) for y in everyone)
    _check_classes(roots, keys, lambda key: f"label {_key_label(m, key).text()}")


def _key_label(m: int, key: int) -> OrbitLabel:
    """The label whose key (_label_keys) is key: its base-(m + 2) digits are
    the block and the four-tuple, so keys order as closed-form labels."""
    base = m + 2
    return OrbitLabel(_BLOCKS[key // base ** 4], tuple(key // base ** k % base for k in (3, 2, 1, 0)))


def build_centralizer(g: GroundSet) -> OrbitCoordinates:
    """The centralizer algebra, Q^d on a new orbit index, with one basis
    element per orbit matrix in orbit order, certified by the index's
    construction: every pair lies in exactly one orbit, the labels met are
    the closed-form labels (else NotClosedError or IndependenceError), and
    nonzero matrices with disjoint supports are independent.  No orbit
    matrix is built.  Its one caller, CheckContext, holds it for a run."""
    return OrbitCoordinates(g.m)


def check_subalgebra(blocks: tuple[BlockTag, ...], scheme: LabelScheme) -> tuple[OrbitLabel, OrbitLabel, BlockTag] | None:
    """The first product O_a O_b, in the scheme's label order, of orbit
    matrices of the scheme in the given blocks that escapes their span, as
    (la, lb, block): the labels of a and b and the block of the product's
    pairs (y, z), by |y| from la and |z| from lb.  None when the span is
    closed under multiplication.

    O_a O_b != 0 exactly when a's pairs end in the sphere b's start in (the
    sphere rule of OrbitCoordinates, which rests on the stabilizer being
    transitive on each sphere, proved when the index is built), and then
    its pairs lie in that block.  The span holds every orbit matrix of its
    blocks, so the product escapes it exactly when it is nonzero and its
    block is not one of them.  Only labels, id_of, row_of and end_of are
    read: no vertex is listed and no row of a product is read.
    """
    sub = [lab for lab in scheme.labels if lab.block in blocks]
    ends = [(scheme.row_of[a], scheme.end_of[a]) for a in map(scheme.id_of.__getitem__, sub)]
    for la, (_, end) in zip(sub, ends):
        for lb, (start, _) in zip(sub, ends):
            if end == start:
                block = _BLOCKS[2 * _sides(la)[0] + _sides(lb)[1]]
                if block not in blocks:
                    return la, lb, block
    return None
