"""Dual idempotents, the generated algebra, its center and summand profile."""

from math import comb

import pytest

from doubled_odd.combinatorics import (
    GroundSet,
    adjacency_matrix,
    distance,
    enumerate_vertices,
    vertex_count,
)
from doubled_odd.linalg import (
    DimCapExceededError,
    NotClosedError,
    SpanBasis,
    SparseExactMatrix,
    algebra_closure,
    centralizer_within,
    contains,
    matrix_from_vector,
    span,
    vectorize,
)
from doubled_odd import orbits as orbits_module
from doubled_odd import terwilliger as terwilliger_module
from doubled_odd.orbits import OrbitCoordinates
from doubled_odd.terwilliger import (
    TerwilligerAlgebra,
    block_profile,
    build_terwilliger,
    center_basis,
    center_dimension,
    closure_generators,
    default_dim_cap,
    dual_idempotent,
    dual_idempotents,
    subalgebra_spans,
    terwilliger_generators,
    upsilon,
    upsilon_size_formula,
    verify_equality,
    verify_inclusion,
    verify_sandwich_identities,
)


def test_dual_idempotents_are_sphere_indicators():
    for m in (1, 2):
        g = GroundSet(m)
        verts = enumerate_vertices(g)
        n = len(verts)
        idems = dual_idempotents(g)
        assert len(idems) == 2 * m + 2
        total = SparseExactMatrix.zero(n, n)
        for i, e in enumerate(idems):
            for r, c, v in e.entries():
                assert r == c and v == 1
                assert distance(g.base_vertex, verts[r]) == i
            assert e @ e == e
            total = total + e
        assert total == SparseExactMatrix.identity(n)
        # orthogonality of distinct idempotents
        assert (idems[0] @ idems[1]).is_zero()
        assert (idems[1] @ idems[2]).is_zero()


def test_dual_idempotent_rejects_bad_index():
    g = GroundSet(1)
    with pytest.raises(ValueError):
        dual_idempotent(g, 4)
    with pytest.raises(ValueError):
        dual_idempotent(g, -1)


def test_tridiagonal_sandwich_structure():
    for m in (1, 2):
        g = GroundSet(m)
        a1 = adjacency_matrix(g)
        idems = dual_idempotents(g)
        for i, ei in enumerate(idems):
            for j, ej in enumerate(idems):
                sandwich = ei @ a1 @ ej
                if abs(i - j) == 1:
                    assert not sandwich.is_zero()
                else:
                    assert sandwich.is_zero()


def test_sandwich_identities_hold():
    for m in (1, 2, 3):
        results = verify_sandwich_identities(GroundSet(m))
        failed = [r.name for r in results if not r.ok]
        assert failed == []


def test_generator_list():
    g = GroundSet(2)
    gens = terwilliger_generators(g)
    assert len(gens) == 2 * (2 * g.m + 2)
    assert gens[0] == SparseExactMatrix.identity(vertex_count(g))


def test_algebra_dimensions(ctx_for):
    # the generated algebra already fills the full centralizer at m = 1, 2
    assert ctx_for(1).terwilliger.dimension == 20
    assert ctx_for(2).terwilliger.dimension == 60
    assert ctx_for(3).terwilliger.dimension == 140
    for m in (1, 2, 3):
        t = ctx_for(m).terwilliger
        assert t.closure is not None and t.closure.stabilized
        # one product per basis representative and generator (A_1, E*_0..E*_{2m+1})
        assert t.closure.iterations == t.dimension * (2 * m + 3)
        assert t.dimension <= default_dim_cap(m)


def test_dim_cap_enforced():
    with pytest.raises(DimCapExceededError):
        build_terwilliger(GroundSet(1), dim_cap=5)


def test_inclusion_and_equality(ctx_for):
    for m in (1, 2, 3):
        ctx = ctx_for(m)
        assert verify_inclusion(ctx.terwilliger, ctx.centralizer).ok
        res = verify_equality(ctx.terwilliger, ctx.centralizer)
        assert res.dims_equal and res.orbit_matrices_in_t and res.identical_rref


def test_center_dimension(ctx_for):
    for m, dim in [(1, 2), (2, 4), (3, 6)]:
        assert ctx_for(m).center.dimension == dim
        assert center_dimension(ctx_for(m).terwilliger) == dim
        assert dim == upsilon_size_formula(m) == len(upsilon(m))


def test_center_elements_commute(ctx_for):
    ctx = ctx_for(2)
    n = vertex_count(ctx.g)
    t = ctx.terwilliger
    center = ctx.center
    ident_vec = vectorize(SparseExactMatrix.identity(n))
    assert center.contains_vector(ident_vec)
    gens = terwilliger_generators(ctx.g)
    for row in center.rows:
        z = matrix_from_vector(dict(row), n, n)
        for gen in gens:
            assert z @ gen == gen @ z
        assert contains(t.basis, z)


def _all_basis_commutant(basis, n):
    # independent oracle: the elements of the span commuting with every basis
    # element B_k, from one linear system in the basis coordinates
    mats = [matrix_from_vector(row, n, n) for row in basis.rows]
    d = len(mats)
    system = SpanBasis(d)
    for mk in mats:
        for eq in zip(*(basis.coordinates(vectorize(a @ mk - mk @ a)) for a in mats)):
            system.insert({a: v for a, v in enumerate(eq) if v})
    # the solutions are the kernel: one per free (non-pivot) coordinate
    pivots = system.pivots
    rows = system.rows
    result = SpanBasis(n * n)
    for free in range(d):
        if free in pivots:
            continue
        coeffs = {free: 1}
        for p, i in pivots.items():
            v = rows[i].get(free)
            if v:
                coeffs[p] = -v
        combo = SparseExactMatrix.zero(n, n)
        for a, c in coeffs.items():
            combo = combo + mats[a].scale(c)
        result.insert(vectorize(combo))
    return result


def test_center_matches_all_basis_commutant_oracle(ctx_for):
    # commuting with the closure generators gives the same RREF as commuting
    # with every basis element of T
    for m in (1, 2, 3):
        ctx = ctx_for(m)
        oracle = _all_basis_commutant(ctx.terwilliger.basis, vertex_count(ctx.g))
        assert oracle.dimension == upsilon_size_formula(m)
        assert center_basis(ctx.terwilliger) == oracle


def test_orbit_coordinates_match_the_ambient_oracle(ctx_for):
    # the n^2-ambient closure and centre, run on the n x n generator matrices,
    # give the same RREFs as the runs in orbit coordinates
    for m in (1, 2, 3):
        ctx = ctx_for(m)
        t = ctx.terwilliger
        gens = closure_generators(ctx.g)
        ambient = algebra_closure(gens)
        assert ambient.iterations == t.closure.iterations == t.dimension * len(gens)
        assert ambient.basis == t.basis
        assert centralizer_within(ambient.basis, gens) == ctx.center
        coords = t.coordinates
        assert coords.lift(coords.project(t.basis)) == t.basis


def test_center_of_a_cached_terwilliger_basis():
    # a basis loaded without its closure is projected to orbit coordinates
    g = GroundSet(2)
    t = build_terwilliger(g)
    loaded = TerwilligerAlgebra(m=2, basis=t.basis, generator_list=[], closure=None)
    assert center_basis(loaded) == center_basis(t)


def test_action_tables_reject_a_generator_not_constant_on_orbits():
    g = GroundSet(2)
    n = vertex_count(g)
    sphere1 = [r for r, _, _ in dual_idempotent(g, 1).entries()]
    assert len(sphere1) == 3
    # one diagonal unit of the sphere: the other two sphere vertices lie in
    # the same orbits but see a zero row
    unit = SparseExactMatrix.from_entries(n, n, [(sphere1[0], sphere1[0], 1)])
    with pytest.raises(NotClosedError):
        OrbitCoordinates(g, [unit])
    # the whole sphere indicator is constant on orbits
    assert len(OrbitCoordinates(g, [dual_idempotent(g, 1)]).generators) == 1


def test_orbit_coordinates_require_a_partition_of_the_pairs(monkeypatch):
    g = GroundSet(1)
    mats = dict(orbits_module._orbit_matrices(1))
    mats.popitem()
    monkeypatch.setattr(orbits_module, "_orbit_matrices", lambda _m: mats)
    with pytest.raises(NotClosedError, match="partition"):
        OrbitCoordinates(g, [])


def test_orbit_coordinates_require_the_identity_to_be_a_sum_of_orbits(monkeypatch):
    g = GroundSet(1)
    mats = dict(orbits_module._orbit_matrices(1))
    # merge the orbit of (x0, x0) with an off-diagonal orbit
    diagonal = next(lab for lab, mat in mats.items() if mat.get(0, 0))
    other = next(lab for lab, mat in mats.items() if not any(r == c for r, c, _ in mat.entries()))
    mats[diagonal] = mats[diagonal] + mats.pop(other)
    monkeypatch.setattr(orbits_module, "_orbit_matrices", lambda _m: mats)
    with pytest.raises(NotClosedError, match="identity"):
        OrbitCoordinates(g, [])


def test_orbit_coordinates_reject_a_matrix_not_constant_on_orbits():
    g = GroundSet(1)
    coords = OrbitCoordinates(g, [])
    n = vertex_count(g)
    assert coords.coordinates(vectorize(SparseExactMatrix.identity(n))) == coords.identity()
    # ({2}, {3}) shares its orbit with ({3}, {2})
    bogus = SparseExactMatrix.from_entries(n, n, [(1, 2, 1)])
    assert coords.coordinates(vectorize(bogus)) is None
    with pytest.raises(NotClosedError):
        coords.project(span([SparseExactMatrix.identity(n), bogus]))


def test_upsilon_m3_frozen_set():
    assert upsilon(3) == {(2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (0, 3)}


def test_upsilon_size_formula_matches_enumeration():
    for m in range(1, 7):
        assert len(upsilon(m)) == upsilon_size_formula(m)
    with pytest.raises(ValueError):
        upsilon(0)


def test_block_profile_values():
    p3 = block_profile(3)
    assert p3.counts == (2, 2, 1, 1)
    assert p3.sides == (2, 4, 6, 8)
    assert p3.dimension_total == 140
    assert p3.summand_count == 6
    p4 = block_profile(4)
    assert p4.counts == (3, 2, 2, 1, 1)
    assert p4.sides == (2, 4, 6, 8, 10)
    assert p4.dimension_total == 280
    assert p4.summand_count == 9
    with pytest.raises(ValueError):
        block_profile(2)


def test_subalgebra_span_dimensions(ctx_for):
    for m in (1, 2):
        spans = subalgebra_spans(ctx_for(m).centralizer)
        quarter = comb(m + 4, 4)
        assert spans["I"].dimension == quarter
        assert spans["IV"].dimension == quarter
        assert spans["II+III"].dimension == 2 * quarter


def test_algebra_closure_idempotent(ctx_for):
    # regrowing the algebra from its own reduced basis does not enlarge it
    ctx = ctx_for(1)
    t = ctx.terwilliger
    n = vertex_count(ctx.g)
    mats = [matrix_from_vector(dict(row), n, n) for row in t.basis.rows]
    regrown = algebra_closure(mats)
    assert regrown.basis == t.basis
    assert regrown.iterations == t.dimension * len(mats)


def _pairwise_product_closure(gens):
    # independent oracle: adjoin the product of every ordered pair of basis
    # elements, pass after pass, until a whole pass adds nothing
    n = gens[0].nrows
    basis = span([SparseExactMatrix.identity(n), *gens])
    while True:
        mats = [matrix_from_vector(row, n, n) for row in basis.rows]
        grew = False
        for a in mats:
            for b in mats:
                grew = basis.insert(vectorize(a @ b)) or grew
        if not grew:
            return basis


def test_generator_closure_matches_pairwise_product_oracle():
    # closing under A_1 and the E*_i gives the same RREF as closing all listed
    # generators under every pairwise product
    for m in (1, 2):
        g = GroundSet(m)
        oracle = _pairwise_product_closure(terwilliger_generators(g))
        assert build_terwilliger(g).basis == oracle


def test_build_terwilliger_rejects_a_distance_matrix_outside_the_closure(monkeypatch):
    g = GroundSet(1)
    t = build_terwilliger(g)
    sphere1 = [r for r, _, _ in dual_idempotent(g, 1).entries()]
    n = vertex_count(g)
    # one entry of a sphere-1 block is not stabilizer-invariant, so not in T
    bogus = SparseExactMatrix.from_entries(n, n, [(sphere1[0], sphere1[1], 1)])
    assert not contains(t.basis, bogus)
    dist = list(terwilliger_module.distance_matrices(g))
    dist[2] = bogus
    monkeypatch.setattr(terwilliger_module, "distance_matrices", lambda _g: dist)
    with pytest.raises(NotClosedError, match="A_2"):
        build_terwilliger(g)


def test_second_sphere_idempotent_support_at_m3():
    # the m+1 supersets of the base vertex form the distance-1 sphere
    g = GroundSet(3)
    e1 = dual_idempotent(g, 1)
    assert e1.nnz == g.m + 1


def test_center_of_diagonal_subalgebra_is_everything():
    # span{E*_i} is commutative, so it equals its own center
    for m in (1, 2):
        g = GroundSet(m)
        idems = dual_idempotents(g)
        diag = span(idems)
        assert diag.dimension == 2 * m + 2
        assert centralizer_within(diag, idems).dimension == 2 * m + 2
