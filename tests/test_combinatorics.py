"""Vertex enumeration, distances and intersection numbers at small m."""

import random
from collections import deque

import pytest
from helpers import (
    adjacency_matrix,
    class_profiles,
    distance,
    distance_matrices,
    distance_matrix,
    intersection_table,
    mask_of,
    neighbour_matrix,
    orbit_index,
    pair_index,
    product_intersection_table,
    vertex_index,
)

from doubled_odd import orbits as orbits_module
from doubled_odd.combinatorics import (
    DistanceRegularityError,
    GroundSet,
    _neighbours,
    _recurrence_table,
    elements_of,
    enumerate_vertices,
    intersection_numbers,
    vertex_count,
)
from doubled_odd.linalg import SparseExactMatrix


def test_mask_round_trip():
    for elements in [(), (1,), (1, 3), (2, 5, 7)]:
        assert elements_of(mask_of(elements)) == elements


def test_vertex_counts_and_order():
    for m, expected in [(1, 6), (2, 20), (3, 70), (4, 252)]:
        g = GroundSet(m)
        verts = enumerate_vertices(g)
        assert vertex_count(g) == expected
        assert len(verts) == expected
        half = expected // 2
        assert all(bin(v).count("1") == m for v in verts[:half])
        assert all(bin(v).count("1") == m + 1 for v in verts[half:])
        # ascending masks inside each half, so the order is reproducible
        assert verts[:half] == sorted(verts[:half])
        assert verts[half:] == sorted(verts[half:])
        assert all(v & ~g.full_mask == 0 for v in verts)


def test_vertex_index_round_trip():
    for m in (1, 2, 3):
        g = GroundSet(m)
        for idx, v in enumerate(enumerate_vertices(g)):
            assert vertex_index(g, v) == idx
        with pytest.raises(ValueError):
            vertex_index(g, 0)
        if m >= 2:
            with pytest.raises(ValueError):
                vertex_index(g, g.full_mask)


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(0)
    for bad in (True, False, "2", 2.0):
        with pytest.raises(ValueError, match=f"m must be a positive integer, got {bad!r}"):
            GroundSet(bad)


def test_ground_set_is_an_immutable_value():
    g = GroundSet(3)
    assert g == GroundSet(m=3) and g != GroundSet(2)
    assert g != (3,) and g != 3
    assert hash(g) == hash(GroundSet(3)) == hash((3,))
    assert len({g, GroundSet(3), GroundSet(2)}) == 2
    assert repr(g) == "GroundSet(m=3)"
    with pytest.raises(AttributeError):
        g.m = 4
    with pytest.raises(AttributeError):
        del g.m
    with pytest.raises(AttributeError):
        g.other = 1
    assert g.m == 3


def _bfs_distances(g: GroundSet) -> dict[tuple[int, int], int]:
    # breadth-first search from every vertex over the neighbour table
    verts = enumerate_vertices(g)
    neigh = _neighbours(g.m)
    dist = {}
    for s in range(len(verts)):
        seen = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in neigh[u]:
                if w not in seen:
                    seen[w] = seen[u] + 1
                    queue.append(w)
        for t, d in seen.items():
            dist[(s, t)] = d
    return dist


def test_distance_formula_matches_bfs():
    for m in (1, 2, 3):
        g = GroundSet(m)
        verts = enumerate_vertices(g)
        oracle = _bfs_distances(g)
        n = len(verts)
        assert len(oracle) == n * n, "graph must be connected"
        for a in range(n):
            for b in range(n):
                assert distance(verts[a], verts[b]) == oracle[(a, b)]
        assert max(oracle.values()) == g.diameter == 2 * m + 1


def test_adjacency_is_bipartite_containment():
    for m in (1, 2, 3):
        g = GroundSet(m)
        verts = enumerate_vertices(g)
        table = _neighbours(m)
        assert len(table) == len(verts)
        half = len(verts) // 2
        for r, row in enumerate(table):
            # valency m+1 on every row, ascending, each edge listed at both ends
            assert len(row) == m + 1 and list(row) == sorted(set(row))
            for c in row:
                assert r in table[c]
                y, z = verts[r], verts[c]
                # every edge joins an m-subset to an (m+1)-superset
                assert (r < half) != (c < half)
                small, big = (y, z) if r < half else (z, y)
                assert small & big == small


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_the_neighbour_table_is_the_adjacency_matrix(m):
    # the one neighbour table of the package against the containment scan
    assert _neighbours(m) is _neighbours(m)
    assert neighbour_matrix(_neighbours(m)) == adjacency_matrix(GroundSet(m))


def test_distance_matrices_partition_all_pairs():
    for m in (1, 2, 3):
        g = GroundSet(m)
        mats = distance_matrices(g)
        assert len(mats) == 2 * m + 2
        n = vertex_count(g)
        assert mats[0] == SparseExactMatrix.identity(n)
        assert mats[1] == adjacency_matrix(g)
        total = SparseExactMatrix.zero(n, n)
        for mat in mats:
            total = total + mat
        ones = SparseExactMatrix.from_entries(
            n, n, ((r, c, 1) for r in range(n) for c in range(n))
        )
        assert total == ones
        assert sum(mat.nnz for mat in mats) == n * n


def test_distance_matrix_rejects_bad_index():
    g = GroundSet(2)
    with pytest.raises(ValueError):
        distance_matrix(g, -1)
    with pytest.raises(ValueError):
        distance_matrix(g, 6)


def test_intersection_numbers_m2_table():
    g = GroundSet(2)
    table = intersection_numbers(orbit_index(g.m))
    assert table.valency == 3
    assert table.p(0, 1, 1) == 3
    # symmetry in the lower indices
    for (h, i, j), value in table.table.items():
        assert table.p(h, j, i) == value
    # row sums recover the sphere sizes around any vertex
    verts = enumerate_vertices(g)
    x0 = verts[0]
    sphere = {}
    for v in verts:
        sphere[distance(x0, v)] = sphere.get(distance(x0, v), 0) + 1
    for h in range(2 * g.m + 2):
        for i in range(2 * g.m + 2):
            assert sum(table.p(h, i, j) for j in range(2 * g.m + 2)) == sphere[i]


def test_intersection_numbers_match_direct_count_m1():
    g = GroundSet(1)
    table = intersection_numbers(orbit_index(g.m))
    verts = enumerate_vertices(g)
    for x in verts:
        for y in verts:
            h = distance(x, y)
            for i in range(4):
                for j in range(4):
                    direct = sum(
                        1 for z in verts if distance(x, z) == i and distance(z, y) == j
                    )
                    assert table.p(h, i, j) == direct


def _dict_counting_scan(verts, dist):
    """Oracle: the per-pair dict-counting loop that class_profiles replaced.

    Returns the table, or the first offending pair and its witness.
    """
    n = len(verts)
    reference = {}
    for xi in range(n):
        dx = dist[xi]
        for yi in range(n):
            dy = dist[yi]
            h = dx[yi]
            profile = {}
            for zi in range(n):
                key = (dx[zi], dy[zi])
                profile[key] = profile.get(key, 0) + 1
            seen = reference.get(h)
            if seen is None:
                reference[h] = profile
            elif seen != profile:
                for (i, j) in sorted(set(seen) | set(profile)):
                    if seen.get((i, j), 0) != profile.get((i, j), 0):
                        return None, (xi, yi), (verts[xi], verts[yi], i, j)
    table = {
        (h, i, j): count
        for h in sorted(reference)
        for (i, j), count in sorted(reference[h].items())
    }
    return table, None, None


def test_intersection_numbers_match_the_dict_counting_oracle():
    # from A_1 A_i and the three-term recurrence, against the dict-counting
    # loop and the exhaustive pass over all n^3 triples
    for m in (1, 2, 3):
        g = GroundSet(m)
        verts = enumerate_vertices(g)
        dist = [[distance(y, z) for z in verts] for y in verts]
        table, _, _ = _dict_counting_scan(verts, dist)
        assert list(intersection_numbers(orbit_index(m)).table.items()) == list(table.items())
        assert list(intersection_table(verts, dist).items()) == list(table.items())


def test_profile_kernel_finds_the_pair_that_breaks_distance_regularity():
    # a path on 4 vertices is not distance-regular: an end and an inner
    # vertex at distance 1 have different numbers of common neighbours
    dist = [[abs(a - b) for b in range(4)] for a in range(4)]
    verts = [mask_of({a + 1}) for a in range(4)]
    _, pair, witness = _dict_counting_scan(verts, dist)
    assert pair == (1, 0)
    _, offending = class_profiles(dist, dist, dist, 4)
    assert offending == pair
    with pytest.raises(DistanceRegularityError) as info:
        intersection_table(verts, dist)
    exc = info.value
    assert (exc.x, exc.y, exc.i, exc.j) == witness == (2, 1, 1, 2)


def _outcome(fn, *args):
    """fn(*args), or the witness of the DistanceRegularityError it raises."""
    try:
        return fn(*args)
    except DistanceRegularityError as exc:
        return (exc.x, exc.y, exc.i, exc.j)


def _a1_profile_pass(verts, dist):
    """Oracle of the A_1 A_i test of intersection_numbers, by one pass over
    all vertex pairs (x, y) in row-major order: the neighbours z of x,
    counted by d(z, y) = i under the table dist, must give the same counts
    as the first pair at the same distance h, and none unless |h - i| <= 1.
    Returns the witness (x, y, 1, i) of the first pair that breaks this,
    with the least such i, or None."""
    n = len(verts)
    width = 1 + max(map(max, dist))
    neighbours = [[z for z in range(n) if distance(verts[x], verts[z]) == 1] for x in range(n)]
    known: dict[int, list[int]] = {}
    for x in range(n):
        for y in range(n):
            h = dist[x][y]
            here = [0] * width
            for z in neighbours[x]:
                here[dist[z][y]] += 1
            first = known.setdefault(h, here)
            bad = [i for i, k in enumerate(here) if k != first[i] or (k and abs(h - i) > 1)]
            if bad:
                return verts[x], verts[y], 1, bad[0]
    return None


@pytest.mark.parametrize("m", [2, 3])
def test_a_doctored_orbit_distance_gives_the_witness_of_the_exhaustive_pass(m):
    # move an orbit and its transpose to another distance: A_1 A_i in orbit
    # coordinates and the pass over all vertex pairs of the matching n x n
    # table raise the same witness, the first pair of the first offending
    # orbit; the pair index's distances reach the orbit index through labels
    index = pair_index(m)
    coords = orbit_index(m)
    by_label = [index.labels.index(lab) for lab in coords.labels]
    n, verts = index.n, enumerate_vertices(GroundSet(m))
    firsts = [divmod(pos[0], n) for pos in index.positions]
    true_dist = [distance(verts[y], verts[z]) for y, z in firsts]
    rng = random.Random(2026 + m)
    for c in rng.sample(range(len(true_dist)), 6):
        transpose = index.orbit_of[index.positions[c][0] % n * n + index.positions[c][0] // n]
        dist = list(true_dist)
        dist[c] = dist[transpose] = (dist[c] + 2) % (2 * m + 2)
        table = [[dist[index.orbit_of[y * n + z]] for z in range(n)] for y in range(n)]
        witness = _outcome(_recurrence_table, coords, [dist[c] for c in by_label])
        assert isinstance(witness, tuple)
        assert witness == _a1_profile_pass(verts, table)
        assert witness[:2] in {(verts[y], verts[z]) for y, z in firsts}
    assert _a1_profile_pass(verts, [[distance(y, z) for z in verts] for y in verts]) is None
    table = _outcome(_recurrence_table, coords, [true_dist[c] for c in by_label])
    assert table == intersection_numbers(coords).table


@pytest.mark.parametrize("m", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_the_recurrence_matches_the_first_pair_product_index(m):
    # the table from A_1 A_i and the three-term recurrence against the one
    # read off every structure constant of the first-pair product index, in
    # the same key order
    coords = orbit_index(m)
    dist = [orbits_module._orbit_distance(m, lab) for lab in coords.labels]
    table = intersection_numbers(coords).table
    assert list(table.items()) == list(product_intersection_table(coords, dist).items())
    assert table[(0, 1, 1)] == m + 1
