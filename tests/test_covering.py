"""The two-to-one folding onto the Odd graph and its transport identities."""

import json
from math import comb

import pytest
from helpers import (
    adjacency_matrix,
    build_psi,
    distance,
    distance_matrices,
    n2_intertwining,
    neighbour_matrix,
    odd_adjacency_by_scan,
    vertex_index,
)

from doubled_odd import covering as covering_module
from doubled_odd.cli import main
from doubled_odd.combinatorics import (
    GroundSet,
    _neighbours,
    enumerate_vertices,
)
from doubled_odd.covering import (
    _odd_distances_from_base,
    _odd_neighbours,
    fold,
    odd_vertices,
    verify_intertwining,
)
from doubled_odd.linalg import SparseExactMatrix


def test_odd_vertices_are_m_subsets():
    for m in (1, 2, 3):
        g = GroundSet(m)
        verts = odd_vertices(g)
        assert len(verts) == comb(2 * m + 1, m)
        assert all(v.bit_count() == m for v in verts)


def test_odd_adjacency_is_disjointness():
    for m in (1, 2, 3):
        g = GroundSet(m)
        verts = odd_vertices(g)
        table = _odd_neighbours(m)
        assert len(table) == len(verts)
        for a, row in enumerate(table):
            assert len(row) == m + 1 and list(row) == sorted(set(row))
            for b in row:
                assert verts[a] & verts[b] == 0
                assert a in table[b]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_odd_adjacency_from_neighbours_matches_the_disjointness_scan(m):
    # built once per m from the m + 1 neighbours of each vertex, and shared
    # with the breadth-first search of the spheres
    assert _odd_neighbours(m) is _odd_neighbours(m)
    assert neighbour_matrix(_odd_neighbours(m)) == odd_adjacency_by_scan(GroundSet(m))


def test_petersen_spheres():
    # at m = 2 the folded graph is the Petersen graph: diameter 2,
    # sphere sizes 1, 3, 6 around any base vertex
    dist = _odd_distances_from_base(2)
    assert [dist.count(i) for i in range(3)] == [1, 3, 6]


def test_fold_identity_and_complement():
    for m in (1, 2, 3):
        g = GroundSet(m)
        for z in enumerate_vertices(g):
            folded = fold(g, z)
            if z.bit_count() == m:
                assert folded == z
            else:
                assert folded == g.full_mask ^ z
                assert folded.bit_count() == m
            # folding a vertex and its complement agree
            assert fold(g, g.full_mask ^ z) == folded


def test_antipodal_fibers():
    # the two preimages of a folded vertex sit at distance-sum 2m+1 from
    # every base point, so fibers are antipodal pairs
    for m in (1, 2, 3):
        g = GroundSet(m)
        for z in enumerate_vertices(g):
            zbar = g.full_mask ^ z
            assert distance(g.base_vertex, z) + distance(g.base_vertex, zbar) == 2 * m + 1
            assert distance(z, zbar) == 2 * m + 1


def test_psi_shape_and_sums():
    for m in (1, 2, 3):
        g = GroundSet(m)
        psi = build_psi(g)
        half = comb(2 * m + 1, m)
        assert (psi.nrows, psi.ncols) == (half, 2 * half)
        col_sums = {}
        for r, c, v in psi.entries():
            assert v == 1
            col_sums[c] = col_sums.get(c, 0) + 1
        assert all(count == 1 for count in col_sums.values()) and len(col_sums) == 2 * half
        for r in range(half):
            assert len(psi._rows.get(r, {})) == 2
        twice_identity = SparseExactMatrix.identity(half).scale(2)
        assert psi @ psi.transpose() == twice_identity


def test_psi_m1_first_row():
    g = GroundSet(1)
    psi = build_psi(g)
    # the fiber over {1} is {1} itself (column 0) and its complement {2,3}
    assert psi.get(0, 0) == 1
    assert psi.get(0, vertex_index(g, 0b110)) == 1


def test_fiber_sums_constant_for_complement_invariant_matrices():
    for m in (1, 2):
        g = GroundSet(m)
        verts = enumerate_vertices(g)
        n = len(verts)
        idx = {v: k for k, v in enumerate(verts)}
        conj = SparseExactMatrix.from_entries(
            n, n, ((idx[g.full_mask ^ v], idx[v], 1) for v in verts)
        )
        psi = build_psi(g)
        a1 = distance_matrices(g)[1]
        reps = odd_vertices(g)
        for mat in (a1, a1 @ a1):
            # invariant under relabeling every vertex by its complement
            assert conj @ mat @ conj == mat
            collapsed = psi @ mat @ psi.transpose()
            for u, yu in enumerate(reps):
                for v, yv in enumerate(reps):
                    fiber_v = (yv, g.full_mask ^ yv)
                    row_sum = sum(mat.get(idx[yu], idx[z]) for z in fiber_v)
                    bar_sum = sum(
                        mat.get(idx[g.full_mask ^ yu], idx[z]) for z in fiber_v
                    )
                    assert row_sum == bar_sum
                    assert collapsed.get(u, v) == 2 * row_sum


def test_intertwining_identities():
    for m in (1, 2, 3):
        results = verify_intertwining(GroundSet(m))
        assert [name for name, ok in results.items() if not ok] == []
        assert len(results) == 3 + 1 + 1  # invariants + two transport families


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_intertwining_on_the_fold_map_matches_the_n2_products(m):
    # each identity read off the fold map against psi multiplied out as
    # n x n matrices
    g = GroundSet(m)
    assert list(verify_intertwining(g).items()) == list(n2_intertwining(g, adjacency_matrix(g)).items())


def _failed_psi_identities(capsys) -> list[str]:
    # verify --checks psi-intertwining at m = 2 (the Petersen graph) fails,
    # as the n x n products of the oracle do
    assert main(["verify", "--m", "2", "--checks", "psi-intertwining"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail" and report["actual"]["checked"] == 5
    g = GroundSet(2)
    oracle = n2_intertwining(g, neighbour_matrix(covering_module._neighbours(2)))
    assert report["actual"]["failed"] == [name for name, ok in oracle.items() if not ok]
    return report["actual"]["failed"]


def test_an_extra_adjacency_entry_fails_the_adjacency_transport(monkeypatch, capsys):
    # A_1 plus a loop at vertex 0: psi A_1 gains an entry A_1(Odd) psi lacks
    table = list(_neighbours(2))
    table[0] = (0, *table[0])
    monkeypatch.setattr(covering_module, "_neighbours", lambda _m: tuple(table))
    assert _failed_psi_identities(capsys) == ["adjacency-transport"]


def test_a_wrong_fold_fails_the_row_sums(monkeypatch, capsys):
    # the antipode of x0 folds onto the second m-subset instead of x0: the
    # row of x0 holds one 1 and that of the second m-subset three
    g = GroundSet(2)
    fold_of = covering_module.fold
    antipode, other = g.full_mask & ~g.base_vertex, odd_vertices(g)[1]
    monkeypatch.setattr(
        covering_module, "fold", lambda g, z: other if z == antipode else fold_of(g, z)
    )
    # every column still holds one 1; all that rests on the fibers fails
    assert _failed_psi_identities(capsys) == [
        "psi-row-sums-two", "psi-psiT-twice-identity", "adjacency-transport", "sphere-transport",
    ]


def test_wrong_odd_graph_distances_fail_the_sphere_transport(monkeypatch, capsys):
    # x0 and one of its neighbours trade their distances from x0, so the
    # spheres of the Odd graph no longer fold from those of the doubled graph
    dist = list(covering_module._odd_distances_from_base(2))
    base, near = dist.index(0), dist.index(1)
    dist[base], dist[near] = 1, 0
    monkeypatch.setattr(covering_module, "_odd_distances_from_base", lambda _m: tuple(dist))
    assert _failed_psi_identities(capsys) == ["sphere-transport"]
