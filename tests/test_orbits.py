"""Orbit index sets, orbit matrices and the centralizer algebra."""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from helpers import (
    MatrixAction,
    adjacency_matrix,
    block_of_pair,
    check_classes_by_counting,
    class_profiles,
    column,
    contains,
    distance,
    enumerate_index_set,
    higman_violation,
    lift,
    mask_of,
    merged_orbit_coordinates,
    merged_pair_index,
    n2_product_verdicts,
    orbit_counts,
    orbit_index,
    orbit_matrices,
    orbit_matrix,
    orbit_partition,
    orbit_product,
    orbit_values,
    pair_index,
    pair_orbit_matrices,
    parse_label,
    point_classes,
    product_index,
    product_subalgebra,
    rho,
    span,
    span_of_rows,
    union_find,
    vectorize,
    vertex_maps_by_points,
)

from doubled_odd import combinatorics as combinatorics_module
from doubled_odd import orbits as orbits_module
from doubled_odd import terwilliger as terwilliger_module
from doubled_odd.checks import CheckContext, RunConfig, _holds, run
from doubled_odd.combinatorics import enumerate_vertices, vertex_count
from doubled_odd.linalg import (
    NotClosedError,
    SparseExactMatrix,
)
from doubled_odd.orbits import (
    BLOCK_FAMILIES,
    BlockTag,
    OrbitCoordinates,
    OrbitLabel,
    build_centralizer,
    check_subalgebra,
    index_set,
    orbits_by_group_action,
    constant_on_orbits,
    stabilizer_generators,
    tuple_bijection,
)


def test_rho_values():
    # x0 = {1,2}, y = {1,3}, z = {1,2,4} inside S = {1..5}
    x0, y, z = 0b00011, 0b00101, 0b01011
    assert rho(x0, y, z) == (1, 2, 1, 1)
    assert block_of_pair(2, y, z) == BlockTag.II
    assert block_of_pair(2, z, y) == BlockTag.III
    assert block_of_pair(2, y, y) == BlockTag.I
    assert block_of_pair(2, z, z) == BlockTag.IV


def test_index_set_m1_block_I_frozen():
    assert index_set(BlockTag.I, 1) == {
        (1, 1, 1, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 0),
    }


def test_index_sets_match_enumeration():
    for m in (1, 2, 3):
        for block in BlockTag:
            closed = index_set(block, m)
            assert closed == enumerate_index_set(m, block)
            assert len(closed) == comb(m + 4, 4)


def test_bijections_onto_block_I():
    for m in (1, 2, 3):
        target = index_set(BlockTag.I, m)
        for block in (BlockTag.II, BlockTag.III, BlockTag.IV):
            source = index_set(block, m)
            image = {tuple_bijection(block, tup, m) for tup in source}
            assert image == target and len(image) == len(source)


def test_tuple_bijection_rejects_bad_input():
    with pytest.raises(ValueError):
        tuple_bijection(BlockTag.I, (0, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        tuple_bijection(BlockTag.II, (9, 9, 9, 9), 1)


def test_label_text_round_trip():
    lab = OrbitLabel(BlockTag.II, (2, 1, 2, 1))
    assert lab.text() == "II:2,1,2,1"
    assert parse_label("II:2,1,2,1") == lab
    with pytest.raises(ValueError):
        parse_label("V:0,0,0,0")


def test_orbit_matrices_partition_pairs():
    for m in (1, 2):
        mats = orbit_matrices(m)
        n = vertex_count(m)
        assert len(mats) == 4 * comb(m + 4, 4)
        total = SparseExactMatrix.zero(n, n)
        for mat in mats.values():
            total = total + mat
        assert total.nnz == n * n
        assert all(v == 1 for _, _, v in total.entries())


def test_orbit_matrix_transpose_swaps_mixed_blocks():
    m = 2
    for lab, mat in orbit_matrices(m).items():
        i, j, t, p = lab.tup
        if lab.block is BlockTag.II:
            partner = OrbitLabel(BlockTag.III, (j, i, t, p))
            assert mat.transpose() == orbit_matrix(m, partner)
        elif lab.block in (BlockTag.I, BlockTag.IV):
            partner = OrbitLabel(lab.block, (j, i, t, p))
            assert mat.transpose() == orbit_matrix(m, partner)


def test_orbit_matrix_rejects_unknown_label():
    m = 1
    with pytest.raises(ValueError):
        orbit_matrix(m, OrbitLabel(BlockTag.I, (1, 1, 1, 0)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_vertex_maps_by_byte_tables_match_the_maps_moved_a_point_at_a_time(m):
    # the stabilizer's generators, the Young generators of every sphere's
    # four atoms (as the orbit certificate builds them) and seeded random
    # permutations of the points; from m = 4 on the 2m+1 points span two bytes
    verts = enumerate_vertices(m)
    x0, full = (1 << m) - 1, (1 << 2 * m + 1) - 1
    perm_sets = [stabilizer_generators(m)]
    for sphere in orbit_index(m).spheres:
        y = verts[sphere[0]]
        atoms = [
            [k for k in range(2 * m + 1) if mask >> k & 1]
            for mask in (x0 & y, x0 & ~y, y & ~x0, full & ~(x0 | y))
        ]
        perm_sets.append(orbits_module._young_generators(2 * m + 1, atoms))
    rng = random.Random(5100 + m)
    perm_sets.append([tuple(rng.sample(range(2 * m + 1), 2 * m + 1)) for _ in range(3)])
    for perms in perm_sets:
        assert orbits_module._vertex_maps(m, perms) == vertex_maps_by_points(m, perms)


def test_stabilizer_generators_fix_base_vertex():
    for m in (1, 2, 3):
        x0 = (1 << m) - 1
        for perm in stabilizer_generators(m):
            assert sorted(perm) == list(range(2 * m + 1))
            image = 0
            for pt in range(2 * m + 1):
                if x0 >> pt & 1:
                    image |= 1 << perm[pt]
            assert image == x0


def test_group_orbits_match_level_sets():
    for m in (1, 2):
        oracle = orbit_partition(orbits_by_group_action(m), vertex_count(m))
        closed = {
            frozenset((r, c) for r, c, _ in mat.entries())
            for mat in orbit_matrices(m).values()
        }
        assert oracle == closed


def test_centralizer_dimensions():
    for m, dim in [(1, 20), (2, 60)]:
        cent = build_centralizer(m)
        assert cent.ambient_dim == dim
        assert len(orbit_matrices(m)) == dim


def test_the_centralizer_is_the_shared_orbit_coordinates():
    # build_centralizer builds a new orbit index on every call, kept by no
    # memo, and a run's context holds the one it builds for all its checks
    for m in (1, 2, 3):
        first, second = build_centralizer(m), build_centralizer(m)
        assert first is not second and first.labels == second.labels and first.rows == second.rows
        ctx = CheckContext(m)
        assert ctx.terwilliger.scheme is ctx.centralizer


def test_one_object_multiplies_in_orbit_coordinates():
    # the orbit coordinates push orbit matrices through the generators'
    # tables; no table of structure constants sits beside them, and the
    # first-pair product index is the tests' oracle (helpers.product_index)
    for name in ("StructureConstants", "ActionTable", "_structure_constants", "_apply", "_column_label_keys"):
        assert not hasattr(orbits_module, name)
    for name in ("products", "product", "column"):
        assert not hasattr(OrbitCoordinates, name)
    assert not hasattr(terwilliger_module, "_closure_tables")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_a1_push_tables_are_built_once_per_m(m):
    assert orbit_index(m).adjacency is orbit_index(m).adjacency


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_the_a1_push_tables_match_the_first_pair_product_index(m):
    # A_1 O_b and O_b A_1 from the Venn-atom moves against the products
    # read off the first pairs of every orbit, for every b; m = 6 lies
    # outside SUPPORTED_M, but the index and its certificate need only m
    coords = orbit_index(m)
    a1 = {a: 1 for a, h in enumerate(coords.distance_of) if h == 1}
    for b in range(coords.ambient_dim):
        assert coords.left(coords.adjacency, {b: 1}) == orbit_product(coords, a1, {b: 1})
        assert coords.right(coords.adjacency, {b: 1}) == orbit_product(coords, {b: 1}, a1)
    # at most four atoms move each orbit
    assert sum(map(len, coords.adjacency.left)) <= 4 * coords.ambient_dim


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_venn_atom_moves_match_the_neighbours_of_every_pair(m):
    # the moves of a pair's label against the labels of (w, z) for every
    # neighbour w of y, over all n^2 pairs (y, z)
    verts = enumerate_vertices(m)
    x0 = (1 << m) - 1
    for y in verts:
        neighbours = [w for w in verts if (w & y) in (w, y) and abs(w.bit_count() - y.bit_count()) == 1]
        for z in verts:
            label = OrbitLabel(block_of_pair(m, y, z), rho(x0, y, z))
            met = Counter(OrbitLabel(block_of_pair(m, w, z), rho(x0, w, z)) for w in neighbours)
            assert met == dict(orbits_module._neighbour_labels(m, label))


def test_a_corrupted_atom_move_fails_the_cross_check(monkeypatch, fresh_memos):
    # at m = 1 the first pair ({2}, {3}) of I:0,0,0,0 has the neighbour
    # {1, 2} of {2}, which adds the point of x0 - z; move that atom to a
    # label with |w n z| one larger
    moves = orbits_module._neighbour_labels
    bad = OrbitLabel(BlockTag.I, (0, 0, 0, 0))

    def corrupted(m, label):
        out = moves(m, label)
        if label == bad:
            (target, size), *rest = out
            i, j, t, p = target.tup
            out = [(OrbitLabel(target.block, (i, j, t + 1, p)), size), *rest]
        return out

    monkeypatch.setattr(orbits_module, "_neighbour_labels", corrupted)
    with pytest.raises(NotClosedError, match="first pair of orbit I:0,0,0,0 do not move it by its Venn atoms"):
        OrbitCoordinates(1).adjacency


def test_centralizer_contains_invariant_matrices():
    m = 2
    cent_span = span(orbit_matrices(m).values())  # the n^2-ambient oracle
    n = vertex_count(m)
    ones = SparseExactMatrix.from_entries(
        n, n, ((r, c, 1) for r in range(n) for c in range(n))
    )
    assert contains(cent_span, ones)
    assert contains(cent_span, adjacency_matrix(m))
    assert contains(cent_span, SparseExactMatrix.identity(n))
    # the adjacency matrix lives in the mixed blocks, not in block I's span
    block_I = span(
        [orbit_matrix(m, lab) for lab in orbits_module._orbit_labels(m) if lab.block is BlockTag.I]
    )
    assert not contains(block_I, adjacency_matrix(m))


def test_centralizer_excludes_non_invariant_matrix():
    m = 1
    n = vertex_count(m)
    single = SparseExactMatrix.from_entries(n, n, [(0, 1, 1)])
    assert not contains(span(orbit_matrices(m).values()), single)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_centralizer_in_orbit_coordinates_lifts_to_the_n2_span(m):
    # the identity RREF of Q^d lifts to the RREF of the n^2-ambient span of
    # the orbit matrices, and an elimination finds that span d-dimensional
    cent = build_centralizer(m)
    d = cent.ambient_dim
    cent_span = span(orbit_matrices(m).values())
    assert cent_span.dimension == d == 4 * comb(m + 4, 4)
    identity = span_of_rows(d, ({a: 1} for a in range(d)))
    assert lift(cent, identity) == cent_span


@pytest.mark.parametrize("m", [1, 2, 3])
def test_orbit_coordinate_membership_agrees_with_the_n2_span(m):
    # centralizer-dim's test, "constant on every orbit", against membership in
    # the n^2-ambient span, on products of orbit matrices (inside) and on
    # single-entry perturbations of them (mostly outside)
    cent = build_centralizer(m)
    mats = [orbit_matrices(m)[lab] for lab in orbits_module._orbit_labels(m)]
    cent_span = span(mats)
    n, d = vertex_count(m), cent.ambient_dim
    rng = random.Random(7100 + m)
    verdicts = []
    for _ in range(30):
        product = mats[rng.randrange(d)] @ mats[rng.randrange(d)]
        entry = (rng.randrange(n), rng.randrange(n), rng.choice((1, -1, 2)))
        bump = SparseExactMatrix.from_entries(n, n, [entry])
        for mat in (product, product + bump):
            inside = orbit_values(pair_index(m), vectorize(mat)) is not None
            assert inside == contains(cent_span, mat)
            verdicts.append(inside)
    assert set(verdicts) == {True, False}


def test_a_closed_form_label_without_a_pair_is_rejected(monkeypatch, fresh_memos):
    # dim = number of orbits needs every orbit matrix to be nonzero; I:1,1,1,0
    # is no orbit at m = 1 (x0 = {1} lies in y and z, so |x0 n y n z| = 1)
    labels = orbits_module._orbit_labels(1) + (OrbitLabel(BlockTag.I, (1, 1, 1, 0)),)
    monkeypatch.setattr(orbits_module, "_orbit_labels", lambda _m: labels)
    with pytest.raises(NotClosedError, match="I:1,1,1,0 has an empty orbit"):
        build_centralizer(1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pair_index_labels_every_pair_by_block_and_rho(m):
    # the oracle's one labelled pass against the definition of a pair's
    # label, and its partition against the orbits of the stabilizer's generators
    index = pair_index(m)
    verts, x0 = enumerate_vertices(m), (1 << m) - 1
    n = len(verts)
    assert index.n == n and len(index.orbit_of) == n * n
    for yi, y in enumerate(verts):
        for zi, z in enumerate(verts):
            label = OrbitLabel(block_of_pair(m, y, z), rho(x0, y, z))
            assert index.labels[index.orbit_of[yi * n + zi]] == label
    assert len(index.labels) == len(set(index.labels)) and set(index.labels) == set(orbits_module._orbit_labels(m))
    # numbered by first pair, positions ascending
    assert [pos[0] for pos in index.positions] == sorted(pos[0] for pos in index.positions)
    assert all(list(pos) == sorted(pos) for pos in index.positions)
    partition = {frozenset(divmod(idx, n) for idx in pos) for pos in index.positions}
    assert partition == orbit_partition(orbits_by_group_action(m), n)


def test_diagonal_subalgebras_closed_mixed_fails():
    for m in (1, 2):
        assert check_subalgebra((BlockTag.I,), orbit_index(m)) is None
        assert check_subalgebra((BlockTag.IV,), orbit_index(m)) is None
        escape = check_subalgebra((BlockTag.II, BlockTag.III), orbit_index(m))
        assert escape is not None
        la, lb, block = escape
        assert block in (BlockTag.I, BlockTag.IV)
        # a mixed product escapes into a diagonal block
        assert {la.block, lb.block} <= {BlockTag.II, BlockTag.III}


def _pairwise_product_scan(sub, m):
    """Oracle: multiply the ordered pairs of orbit matrices of sub as n x n
    matrices, in order, and test each product for membership in their span;
    the first product outside it is returned as (la, lb, block), block that
    of its first entry, and None when there is none."""
    mats = orbit_matrices(m)
    sub_mats = [mats[lab] for lab in sub]
    sub_span = span(sub_mats)
    verts = enumerate_vertices(m)
    for la, ma in zip(sub, sub_mats):
        for lb, mb in zip(sub, sub_mats):
            product = ma @ mb
            if not contains(sub_span, product):
                r, c, _ = next(product.entries())
                return la, lb, block_of_pair(m, verts[r], verts[c])
    return None


def _family(m: int, blocks) -> list[OrbitLabel]:
    # the labels of a block family, in closed-form order
    return [lab for lab in orbits_module._orbit_labels(m) if lab.block in blocks]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_subalgebra_scan_matches_the_pairwise_product_oracle(m):
    # the block rule on each block family against the n x n products
    escapes = [check_subalgebra(blocks, orbit_index(m)) for blocks in BLOCK_FAMILIES.values()]
    assert escapes == [_pairwise_product_scan(_family(m, blocks), m) for blocks in BLOCK_FAMILIES.values()]
    assert [e is None for e in escapes] == [True, False, True]


@pytest.mark.parametrize("m", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_subalgebra_scan_matches_the_product_index_supports(m):
    # the block rule on each block family against the supports read off
    # the first-pair product index
    escapes = [check_subalgebra(blocks, orbit_index(m)) for blocks in BLOCK_FAMILIES.values()]
    assert escapes == [product_subalgebra(_family(m, blocks), m) for blocks in BLOCK_FAMILIES.values()]
    assert [e is None for e in escapes] == [True, False, True]


def test_structure_constants_match_the_products_of_orbit_matrices():
    for m in (1, 2):
        n = vertex_count(m)
        coords = orbit_index(m)
        mats = [orbit_matrix(m, lab) for lab in coords.labels]
        d = len(mats)
        counts = orbit_counts(product_index(coords))
        for a in range(d):
            for b in range(d):
                expected = SparseExactMatrix.zero(n, n)
                for c in range(d):
                    if a * d + b in counts[c]:
                        expected = expected + mats[c].scale(counts[c][a * d + b])
                assert mats[a] @ mats[b] == expected


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_in_orbit_coordinates_lifts_to_the_matrix_product(m):
    # on seeded rational combinations x, y of orbit matrices, the lift of
    # product(x, y) is the n x n product of the lifts of x and y
    coords = orbit_index(m)
    d = coords.ambient_dim
    mats = orbit_matrices(m)
    orbit_vectors = [vectorize(mats[lab]) for lab in coords.labels]

    def lifted(x):
        return {idx: v for a, v in x.items() for idx in orbit_vectors[a]}

    action = MatrixAction(coords.n)
    rng = random.Random(4100 + m)
    nonzero = 0
    coefficients = (1, -2, 3, Fraction(1, 2))
    for _ in range(20):
        x, y = ({a: rng.choice(coefficients) for a in rng.sample(range(d), 4)} for _ in range(2))
        product = orbit_product(coords, x, y)
        assert lifted(product) == action.product(lifted(x), lifted(y))
        nonzero += bool(product)
    assert nonzero > 10


# ({2}, {3}) and ({3}, {2}), and ({2}, {1}) and ({3}, {1}): two orbits at
# m = 1 with one row sphere, whose union is not coherent
_INCOHERENT = (OrbitLabel(BlockTag.I, (0, 0, 0, 0)), OrbitLabel(BlockTag.I, (0, 1, 0, 0)))


def _merge_incoherent_orbits(certified: bool = True) -> OrbitCoordinates:
    """The orbit index at m = 1 with two orbits merged into one whose matrix
    has a square that is not a combination of the coarser orbit matrices;
    built without the stabilizer orbit certificate, which rejects it,
    unless certified."""
    m = 1
    mats = orbit_matrices(m)
    # the square of the merged matrix is 1 at ({2}, {1}) and 0 at ({2}, {3})
    a, b = _INCOHERENT
    merged = mats[a] + mats[b]
    square = merged @ merged
    assert {square.get(r, c) for r, c, _ in merged.entries()} == {0, 1}
    # the identity is still a sum of orbits; the merged orbit keeps the
    # label of its first pair ({2}, {1})
    return merged_orbit_coordinates(1, b, a, certified)


def test_structure_constants_reject_orbits_that_are_not_coherent():
    # the merged orbit is two orbits of the stabilizer generators; its first
    # pair ({2}, {1}) gives it the label I:0,1,0,0, and the index on it
    # fails the orbit certificate as it is built
    with pytest.raises(NotClosedError, match="orbit I:0,1,0,0 is not a single orbit"):
        _merge_incoherent_orbits()


def _first_orbit_not_a_class(index, least) -> OrbitLabel | None:
    # oracle: the least orbit of a pair index whose pairs are not one
    # class of least, the orbit sweep's (orbits_by_group_action)
    classes = orbit_partition(least, index.n)
    for label, positions in zip(index.labels, index.positions):
        if frozenset(divmod(pos, index.n) for pos in positions) not in classes:
            return label
    return None


def _first_sphere_not_an_orbit(m: int, spheres, perms) -> int | None:
    # oracle: the least of the spheres that is not the orbit of its first
    # vertex under the point permutations, closed over as sets of points
    verts = enumerate_vertices(m)
    for s, sphere in enumerate(spheres):
        orbit, todo = {verts[sphere[0]]}, [verts[sphere[0]]]
        while todo:
            y = todo.pop()
            for perm in perms:
                image = mask_of(perm[k] + 1 for k in range(len(perm)) if y >> k & 1)
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        if orbit != {verts[y] for y in sphere}:
            return s
    return None


def test_the_group_orbit_certificate_rejects_a_missing_generator(monkeypatch, fresh_memos):
    # without the cycle on S - x0 the generators' orbits on the vertices are
    # finer than the spheres, and their orbits on vertex pairs finer than
    # the labels' orbits: the certificate and orbits-oracle see it
    spheres = orbit_index(2).spheres
    generators = orbits_module.stabilizer_generators
    monkeypatch.setattr(orbits_module, "stabilizer_generators", lambda m: generators(m)[:-1])
    assert _first_orbit_not_a_class(pair_index(2), orbits_by_group_action(2)) is not None
    s = _first_sphere_not_an_orbit(2, spheres, orbits_module.stabilizer_generators(2))
    assert s is not None
    with pytest.raises(NotClosedError, match=rf"sphere {s} \(.*\) is not a single orbit"):
        OrbitCoordinates(2)
    (report,) = run(RunConfig(m=2, checks=("orbits-oracle",)))
    assert report.actual["partitions_match"] is False
    assert report.status == "fail"


def test_the_group_orbit_comparison_names_the_first_label_that_is_no_group_orbit(monkeypatch):
    # without the cycle on S - x0 some labels' pairs split into several
    # group orbits; the comparison reads label keys, with no orbit index,
    # and names the first such label in closed-form order
    generators = orbits_module.stabilizer_generators
    monkeypatch.setattr(orbits_module, "stabilizer_generators", lambda m: generators(m)[:-1])
    least = orbits_by_group_action(2)
    index, classes = pair_index(2), orbit_partition(least, vertex_count(2))
    split = {
        label for label, positions in zip(index.labels, index.positions)
        if frozenset(divmod(pos, index.n) for pos in positions) not in classes
    }
    first = min(split, key=orbits_module._orbit_labels(2).index)
    with pytest.raises(NotClosedError, match=rf"^label {first.text()} is not a single orbit"):
        orbits_module._check_group_orbits(2, least)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_group_orbit_comparison_rejects_roots_of_another_length(m):
    # the sweep's least pairs, one entry per vertex pair, are read in step
    # with the pairs' label keys: an empty, a one-short and a one-long array
    # is a caller's bug, not a failed certificate, so orbits-oracle's _holds
    # lets its ValueError through; the full array and the index still pass
    least = orbits_by_group_action(m)
    assert len(least) == vertex_count(m) ** 2
    for wrong in (least[:0], least[:-1], least + least[:1]):
        with pytest.raises(ValueError):
            orbits_module._check_group_orbits(m, wrong)
        with pytest.raises(ValueError):
            _holds(orbits_module._check_group_orbits, m, wrong)
    assert _holds(orbits_module._check_group_orbits, m, least) is True
    assert OrbitCoordinates(m).ambient_dim == 4 * comb(m + 4, 4)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_label_key_decodes_to_its_label(m):
    # the key of a pair's label (_label_keys) read back by _key_label and
    # built from the label by _label_key, and keys ordered as the
    # closed-form labels
    index = pair_index(m)
    keys = [orbits_module._label_keys(m, pos[0] // index.n, (pos[0] % index.n,))[0] for pos in index.positions]
    assert [orbits_module._key_label(m, key) for key in keys] == list(index.labels)
    assert [orbits_module._label_key(m, lab) for lab in index.labels] == keys
    assert [index.labels[a] for a in sorted(range(len(keys)), key=keys.__getitem__)] == list(orbits_module._orbit_labels(m))


def test_the_group_orbit_certificate_rejects_a_generator_that_is_no_permutation(monkeypatch, fresh_memos):
    # the point map 1, 2, 3 -> 1, 1, 3 sends {1} and {2} to {1}: what its
    # repeated images reach need not be the orbits of a group
    generators = orbits_module.stabilizer_generators
    monkeypatch.setattr(orbits_module, "stabilizer_generators", lambda m: [(0, 0, 2)] + generators(m))
    with pytest.raises(NotClosedError, match="stabilizer generator 0 does not permute the vertices"):
        OrbitCoordinates(1)
    (report,) = run(RunConfig(m=1, checks=("orbits-oracle",)))
    assert report.actual["partitions_match"] is False


def _first_pair_counts(coords: OrbitCoordinates) -> list[Counter]:
    # the counts product_index reads off the first pairs, uncertified:
    # counts[c] maps a * d + b to the number of middle vertices w of the
    # first pair (y, z) of orbit c with (y, w) in a and (w, z) in b
    d = coords.ambient_dim
    return [
        Counter(a * d + b for a, b in zip(coords.rows[coords.row_of[c]], column(coords, coords.members[c][0])))
        for c in range(d)
    ]


@pytest.mark.parametrize("m", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_representative_structure_constants_match_the_exhaustive_pass(m):
    # the table read off one pair per orbit, certified by the stabilizer
    # orbit certificate, against the pass over all n^3 vertex triples
    coords = orbit_index(m)
    rows, cols = pair_index(m).renumbered(coords.labels).label_lines()
    profiles, offending = class_profiles(rows, cols, rows, coords.ambient_dim)
    assert offending is None
    counts = orbit_counts(product_index(coords))
    assert counts == [Counter(profiles[c]) for c in range(coords.ambient_dim)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, *(pytest.param(m, marks=pytest.mark.slow) for m in (5, 6))])
def test_the_stabilizer_orbit_certificate_accepts_the_true_orbits(m):
    # it needs only the orbit index, which m = 6, outside SUPPORTED_M, has too
    orbits_module._certify_stabilizer_orbits(orbit_index(m))


def test_the_stabilizer_orbit_certificate_builds_each_vertex_map_once(monkeypatch):
    # at m = 3 the stabilizer and the spheres' row generators number 32, of
    # which 9 are distinct, and each distinct one is moved to a vertex map
    # once in a call
    generated, moved = [], []
    young, vertex_maps = orbits_module._young_generators, orbits_module._vertex_maps

    def recorded_young(n, parts):
        gens = young(n, parts)
        generated.extend(gens)
        return gens

    def recorded_maps(m, perms):
        moved.extend(perms)
        return vertex_maps(m, perms)

    index = orbit_index(3)
    monkeypatch.setattr(orbits_module, "_young_generators", recorded_young)
    monkeypatch.setattr(orbits_module, "_vertex_maps", recorded_maps)
    orbits_module._certify_stabilizer_orbits(index)
    assert len(generated) == 32
    assert len(moved) == len(set(moved)) == 9
    assert set(moved) == set(generated)


def _recorded_sweeps(monkeypatch, m: int) -> list:
    # the (size, maps, least) of every orbit sweep the certificate runs: the
    # stabilizer's on the vertices, then each sphere's row generators'
    calls = []
    sweep = orbits_module._orbit_sweep

    def recorded(size, perms):
        least = sweep(size, perms)
        calls.append((size, perms, least))
        return least

    monkeypatch.setattr(orbits_module, "_orbit_sweep", recorded)
    orbits_module._certify_stabilizer_orbits(orbit_index(m))
    return calls


def _least_points(classes, size: int) -> list[int]:
    # each point named by the least point of its class
    least = [-1] * size
    for members in classes:
        for k in members:
            least[k] = min(members)
    return least


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_orbit_sweep_finds_the_union_find_classes_on_the_vertices(monkeypatch, m):
    # under G and under each H_s, with the maps the certificate builds: the
    # union-find oracle's classes, each named by its least vertex
    index = orbit_index(m)
    calls = _recorded_sweeps(monkeypatch, m)
    assert len(calls) == 1 + len(index.spheres)
    assert calls[0][1] == orbits_module._vertex_maps(m, stabilizer_generators(m))
    for size, maps, least in calls:
        assert size == index.n
        assert least == _least_points(point_classes(union_find(size, maps)), size)
    # G's orbits are the spheres
    assert point_classes(calls[0][2]) == point_classes(index.sphere_of)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_the_orbit_sweep_finds_the_union_find_classes_on_the_vertex_pairs(m):
    # orbits_by_group_action names each orbit on the n^2 pairs by its least
    # pair index, the union-find oracle's classes of the same generators
    # moved a point at a time
    n = vertex_count(m)
    pair_maps = [
        [vp[y] * n + vp[z] for y in range(n) for z in range(n)]
        for vp in vertex_maps_by_points(m, stabilizer_generators(m))
    ]
    least = orbits_by_group_action(m)
    assert list(least) == _least_points(point_classes(union_find(n * n, pair_maps)), n * n)
    assert len(set(least)) == 4 * comb(m + 4, 4)


def _class_verdict(check, names, ids) -> str | None:
    # None when check accepts ids against the classes names gives, else the
    # message of its NotClosedError
    try:
        check(names, ids, lambda a: f"id {a}")
    except NotClosedError as exc:
        return str(exc)
    return None


def _doctored_ids(ids: list[int]):
    # every partition one edit away: two ids merged, in both orders of
    # their least points; one id split, the point split off given an id
    # above or below all others; one point moved to another id
    distinct = sorted(set(ids))
    for a in distinct:
        for b in distinct:
            if a != b:
                yield [b if x == a else x for x in ids]
    for k, a in enumerate(ids):
        if ids.count(a) > 1:
            for fresh in (min(distinct) - 1, max(distinct) + 1):
                yield ids[:k] + [fresh] + ids[k + 1:]
        for b in distinct:
            if b != a:
                yield ids[:k] + [b] + ids[k + 1:]


@pytest.mark.parametrize("m", [1, 2])
def test_the_least_point_comparison_agrees_with_the_counting_oracle(monkeypatch, m):
    # the partitions of the certificate, the spheres under G and the orbit
    # ids along each sphere row under H_s: each holds, and every doctored
    # partition fails both comparisons, which name the same id; a length
    # mismatch raises ValueError in both
    index = orbit_index(m)
    calls = _recorded_sweeps(monkeypatch, m)
    check = orbits_module._check_classes
    for (size, maps, least), ids in zip(calls, [list(index.sphere_of), *map(list, index.rows)], strict=True):
        roots = union_find(size, maps)
        assert _class_verdict(check, least, ids) is None
        assert _class_verdict(check_classes_by_counting, roots, ids) is None
        for doctored in _doctored_ids(ids):
            verdict = _class_verdict(check_classes_by_counting, roots, doctored)
            assert verdict is not None
            assert _class_verdict(check, least, doctored) == verdict
        for wrong in (ids[:-1], ids + ids[:1]):
            for compare, names in ((check, least), (check_classes_by_counting, roots)):
                with pytest.raises(ValueError):
                    compare(names, wrong, str)


def test_the_least_point_comparison_agrees_with_the_counting_oracle_on_random_partitions():
    # seeded random permutations and ids: some ids are the orbits relabelled,
    # some are those with one point given a random id, the rest random
    rng = random.Random(4800)
    check = orbits_module._check_classes
    verdicts = Counter()
    for trial in range(600):
        size = rng.randint(1, 12)
        perms = [rng.sample(range(size), size) for _ in range(rng.randint(0, 2))]
        least, roots = orbits_module._orbit_sweep(size, perms), union_find(size, perms)
        relabel = rng.sample(range(size), size)
        ids = [relabel[low] for low in least]
        if trial % 3 == 1:
            ids[rng.randrange(size)] = rng.randrange(size)
        elif trial % 3 == 2:
            ids = [rng.randrange(4) for _ in range(size)]
        verdict = _class_verdict(check_classes_by_counting, roots, ids)
        assert _class_verdict(check, least, ids) == verdict
        verdicts[verdict is None] += 1
    assert min(verdicts[True], verdicts[False]) > 100


def test_the_stabilizer_orbit_certificate_rejects_a_row_generator_that_moves_y_s(monkeypatch):
    # a transposition of a point of x0 n y_s with a point of x0 - y_s fixes
    # x0 but not y_s, so it need not keep the orbits of row y_s
    young = orbits_module._young_generators

    def with_swap(n, parts):
        gens = young(n, parts)
        if len(parts) == 4 and parts[0] and parts[1]:
            perm = list(range(n))
            p, q = parts[0][0], parts[1][0]
            perm[p], perm[q] = q, p
            gens.append(tuple(perm))
        return gens

    monkeypatch.setattr(orbits_module, "_young_generators", with_swap)
    assert stabilizer_generators(2) == young(5, [[0, 1], [2, 3, 4]])
    with pytest.raises(NotClosedError, match=r"row generator \d+ of sphere \d+ does not fix y_s"):
        OrbitCoordinates(2)


def test_an_orbit_met_in_two_sphere_rows_fails_the_atom_move_cross_check():
    # the orbit of (x0, y_1) merged with that of (y_1, x0), y_1 the first
    # vertex of sphere 1: each row keeps its partition, so the orbit
    # certificate passes, and the label, which names sphere 0 as the one
    # the merged orbit starts in, is belied by (y_1, x0).  y_1 = {1, 2} is a
    # neighbour of {2}, and the cross-check of A_1's atom moves finds
    # (y_1, x0) in the merged orbit at the first pair ({2}, x0) of
    # I:0,1,0,0, where the moves name the lost label
    index = orbit_index(1)
    keep, drop = (index.labels[a] for a in (index.rows[0][index.spheres[1][0]], index.rows[1][0]))
    assert (index.row_of[index.id_of[keep]], index.row_of[index.id_of[drop]]) == (0, 1)
    merged = merged_orbit_coordinates(1, keep, drop)
    assert merged.rows[1][0] == merged.id_of[keep] and merged.row_of[merged.id_of[keep]] == 0
    with pytest.raises(NotClosedError, match="first pair of orbit I:0,1,0,0 do not move it by its Venn atoms"):
        merged.adjacency


@pytest.mark.parametrize("m", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_structure_constants_satisfy_higmans_identity(m):
    # at m = 5, where the pass over all n^3 vertex triples is too slow, the
    # one cross-check of the certified table
    coords = orbit_index(m)
    assert higman_violation(coords, orbit_counts(product_index(coords))) is None


def test_higmans_identity_rejects_orbits_that_are_not_coherent():
    # the table read off the first pairs of the merged orbits, uncertified
    coords = _merge_incoherent_orbits(certified=False)
    assert higman_violation(coords, _first_pair_counts(coords)) is not None


def test_orbit_labels_cover_both_directions():
    m, x0 = 1, 0b1  # x0 = {1}
    labels = orbits_module._orbit_labels(m)
    assert len(labels) == 20
    assert [lab.block for lab in labels[:5]] == [BlockTag.I] * 5
    verts = enumerate_vertices(m)
    # every ordered pair is classified by exactly one label
    seen = {}
    for y in verts:
        for z in verts:
            lab = OrbitLabel(block_of_pair(m, y, z), rho(x0, y, z))
            assert lab in set(labels)
            seen[lab] = seen.get(lab, 0) + 1
    assert sum(seen.values()) == len(verts) ** 2
    assert set(seen) == set(labels)


def test_rho_reference_points():
    for m in (1, 2, 3):
        x0 = (1 << m) - 1
        assert rho(x0, x0, x0) == (m, m, m, m)
    # S = {1..7}: y = {1,2,4}, z = {1,4,5,6}
    m = 3
    x0 = (1 << m) - 1
    y, z = mask_of({1, 2, 4}), mask_of({1, 4, 5, 6})
    assert rho(x0, y, z) == (2, 1, 2, 1)
    assert block_of_pair(m, y, z) == BlockTag.II


def test_tuple_bijection_smallest_block_ii_value():
    assert tuple_bijection(BlockTag.II, (1, 1, 1, 1), 1) == (1, 0, 0, 0)


def test_block_iv_complementation_is_involution():
    # Complementing both coordinates of a block-IV pair realizes the
    # tuple map onto block I, and complementing again restores the pair.
    m = 2
    x0, full = (1 << m) - 1, (1 << 2 * m + 1) - 1
    big = [v for v in enumerate_vertices(m) if v.bit_count() == m + 1]
    seen = set()
    for y in big:
        for z in big:
            tup = rho(x0, y, z)
            yc, zc = full ^ y, full ^ z
            assert rho(x0, yc, zc) == tuple_bijection(BlockTag.IV, tup, m)
            assert (full ^ yc, full ^ zc) == (y, z)
            seen.add(tup)
    assert seen == index_set(BlockTag.IV, m)


def test_diagonal_orbit_matrix_is_base_vertex_unit():
    for m in (1, 2):
        mat = orbit_matrix(m, OrbitLabel(BlockTag.I, (m, m, m, m)))
        assert mat.nnz == 1
        assert mat.get(0, 0) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_sphere_rows_number_and_size_the_orbits_as_the_pair_index(m):
    # the 2m+2 sphere rows against the oracle's pass over all n^2 pairs,
    # compared through labels: the closed-form labels, in closed-form
    # order, the first pairs the oracle meets first, |orbit| = |sphere|
    # times the orbit's count in its row, sphere i the vertices at distance
    # i from x0, and the orbits of every row and column read off label keys
    # through the index's label map
    rows = orbit_index(m)
    assert rows.labels == orbits_module._orbit_labels(m) == OrbitCoordinates(m).labels
    index = pair_index(m).renumbered(rows.labels)
    assert [rows.first_pair(a) for a in range(len(rows.labels))] == [
        divmod(pos[0], index.n) for pos in index.positions
    ]
    assert list(rows.sizes) == [len(pos) for pos in index.positions]
    assert len(rows.spheres) == 2 * m + 2
    assert sorted(y for sphere in rows.spheres for y in sphere) == list(range(index.n))
    verts, x0 = enumerate_vertices(m), (1 << m) - 1
    for s, (sphere, row) in enumerate(zip(rows.spheres, rows.rows)):
        y = sphere[0]
        assert list(row) == list(index.orbit_of[y * index.n:(y + 1) * index.n])
        assert all(rows.sphere_of[v] == s for v in sphere)
        assert list(sphere) == [v for v, mask in enumerate(verts) if distance(x0, mask) == s]
    label_rows, label_cols = index.label_lines()
    assert [rows.orbits(y, range(index.n)) for y in range(index.n)] == list(map(list, label_rows))
    assert [column(rows, z) for z in range(index.n)] == list(map(list, label_cols))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_the_index_reads_spheres_distances_and_the_identity_off_labels(monkeypatch, m):
    # each label's start and end sphere, distance and identity membership,
    # worked out here from the label with no vertex listed, against the
    # index: a pair (y, z) of block I..IV has |y|, |z| in {m, m + 1}, and
    # the label (i, j, t, p) gives |x0 n y|, |x0 n z| and |y n z|
    index = orbit_index(m)

    def no_vertices(_m):
        raise AssertionError("the vertices were listed")

    for module in (combinatorics_module, orbits_module):
        monkeypatch.setattr(module, "_vertices", no_vertices)
    starts, ends, distances, identity = [], [], [], {}
    for a, label in enumerate(orbits_module._orbit_labels(m)):
        size_y = m + (label.block in (BlockTag.III, BlockTag.IV))
        size_z = m + (label.block in (BlockTag.II, BlockTag.IV))
        i, j, t, p = label.tup
        starts.append(m + size_y - 2 * i)
        ends.append(m + size_z - 2 * j)
        distances.append(size_y + size_z - 2 * t)
        if size_y == size_z == t and i == j == p:  # y = z
            identity[a] = 1
    assert (starts, ends, distances) == (list(index.row_of), list(index.end_of), list(index.distance_of))
    assert index.identity() == identity


def test_the_orbit_index_keeps_no_second_numbering():
    # orbits are numbered by label and spheres by distance: no map between
    # two orders is kept, and the first-pair labels are the tests' oracles
    for name in ("radius", "sphere_at", "_identity"):
        assert not hasattr(orbit_index(2), name)
    for name in ("rho", "block_of_pair"):
        assert not hasattr(orbits_module, name)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_orbit_matrices_from_the_sphere_rows_match_the_pair_index_view(m):
    # every orbit matrix is built alone from its row and column spheres
    # compared through labels
    mats = orbit_matrices(m)
    index = pair_index(m)
    assert list(mats) == list(orbits_module._orbit_labels(m))
    assert mats == dict(zip(index.labels, pair_orbit_matrices(index)))


def _centralizer_dim_pairs(m: int, d: int) -> list[tuple[int, int]]:
    # the pairs centralizer-dim tests, in its order
    if m <= 2:
        return [(a, b) for a in range(d) for b in range(d)]
    rng = random.Random(20260 + m)
    return [(rng.randrange(d), rng.randrange(d)) for _ in range(500)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_row_products_match_the_n2_product_verdicts(m):
    # centralizer-dim's test on one row per product against the n x n
    # products, on all d^2 pairs at m <= 2 and on its 500 seeded pairs at m = 3
    index = pair_index(m)
    pairs = _centralizer_dim_pairs(m, len(index.labels))
    verdicts = constant_on_orbits(orbit_index(m), pairs)
    assert verdicts == n2_product_verdicts(index, pairs)
    assert all(verdicts)


def test_row_products_reject_orbits_that_are_not_coherent():
    # the merged orbit's pairs end in two spheres, which the orbit
    # certificate would refuse and the row test's sphere rule takes as
    # given; built without the certificate, the row test still fails its
    # product with the diagonal orbit of the sphere its first pair ends in,
    # and agrees with the n x n test on every pair of the other orbits
    drop, keep = _INCOHERENT
    coords = _merge_incoherent_orbits(certified=False)
    # the merged pair index, numbered as the merged orbit index by label
    index = merged_pair_index(1, keep, drop).renumbered(coords.labels)
    pairs = _centralizer_dim_pairs(1, len(index.labels))
    verdicts = constant_on_orbits(coords, pairs)
    oracle = n2_product_verdicts(index, pairs)
    merged = coords.id_of[keep]
    diagonal = coords.rows[coords.end_of[merged]][coords.spheres[coords.end_of[merged]][0]]
    assert not verdicts[pairs.index((merged, diagonal))] and not oracle[pairs.index((merged, diagonal))]
    others = [k for k, pair in enumerate(pairs) if merged not in pair]
    assert [verdicts[k] for k in others] == [oracle[k] for k in others]
