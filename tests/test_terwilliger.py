"""Dual idempotents, the generated algebra, its center and summand profile."""

import json
import random
from collections import deque
from math import comb

import pytest
from helpers import (
    MatrixAction,
    action_tables,
    adjacency_matrix,
    all_generator_closure,
    center_dimension,
    closure_generators,
    contains,
    coordinates,
    distance,
    dual_idempotent,
    dual_idempotent_tables,
    dual_idempotents,
    in_reduced_form,
    lift,
    matrix_from_vector,
    merged_orbit_coordinates,
    n2_sandwich_identities,
    neighbour_matrix,
    orbit_index,
    orbit_matrices,
    orbit_values,
    pair_index,
    sandwich_products,
    sandwiches,
    span,
    span_of_rows,
    terwilliger_generators,
    vectorize,
)

from doubled_odd.combinatorics import (
    _neighbours,
    enumerate_vertices,
    vertex_count,
)
from doubled_odd.linalg import (
    NotClosedError,
    ShapeMismatchError,
    SpanBasis,
    SparseExactMatrix,
    algebra_closure,
    centralizer_within,
)
from doubled_odd import combinatorics as combinatorics_module
from doubled_odd import orbits as orbits_module
from doubled_odd import terwilliger as terwilliger_module
from doubled_odd.checks import _RUNNERS, CheckContext, _family_ids
from doubled_odd.cli import main
from doubled_odd.orbits import BlockTag, LabelScheme, OrbitCoordinates
from doubled_odd.terwilliger import (
    TerwilligerAlgebra,
    block_profile,
    build_terwilliger,
    center_basis,
    upsilon,
    upsilon_size_formula,
    verify_equality,
    verify_sandwich_identities,
)


def _lifted(m, basis):
    # the n^2-ambient RREF of a basis kept in orbit coordinates
    return lift(orbit_index(m), basis)


def test_dual_idempotents_are_sphere_indicators():
    for m in (1, 2, 3):
        verts = enumerate_vertices(m)
        n = len(verts)
        idems = dual_idempotents(m)
        assert len(idems) == 2 * m + 2
        total = SparseExactMatrix.zero(n, n)
        for i, e in enumerate(idems):
            for r, c, v in e.entries():
                assert r == c and v == 1
                assert distance((1 << m) - 1, verts[r]) == i
            assert e @ e == e
            total = total + e
        assert total == SparseExactMatrix.identity(n)
        # orthogonality of distinct idempotents
        assert (idems[0] @ idems[1]).is_zero()
        assert (idems[1] @ idems[2]).is_zero()


def test_dual_idempotent_rejects_bad_index():
    m = 1
    with pytest.raises(ValueError):
        dual_idempotent(m, 4)
    with pytest.raises(ValueError):
        dual_idempotent(m, -1)


def test_tridiagonal_sandwich_structure():
    # the sandwiches read off A_1 as restrictions between spheres are the
    # matrix products E*_i A_1 E*_j, and only |i - j| = 1 gives a nonzero one
    for m in (1, 2, 3):
        products = sandwich_products(m)
        restricted = sandwiches(m, adjacency_matrix(m))
        assert set(restricted) == {key for key, prod in products.items() if not prod.is_zero()}
        for (i, j), sandwich in products.items():
            assert restricted.get((i, j), SparseExactMatrix.zero(sandwich.nrows, sandwich.ncols)) == sandwich
            assert sandwich.is_zero() == (abs(i - j) != 1)


def test_sandwich_identities_form_no_matrix_product(monkeypatch):
    calls = []
    matmul = SparseExactMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(SparseExactMatrix, "__matmul__", counted)
    assert all(verify_sandwich_identities(orbit_index(3)).values())
    assert calls == []


def test_sandwich_identities_catch_an_edge_inside_a_sphere(monkeypatch):
    # an extra edge joining two vertices of one sphere is a nonzero
    # E*_i A_1 E*_i, and A_1 is then no longer the sum of the sandwiches
    m = 2
    doctored = _with_an_edge_inside_a_sphere(m)
    monkeypatch.setattr(terwilliger_module, "_neighbours", lambda _m: doctored)
    assert _failed(verify_sandwich_identities(orbit_index(m))) == ["bipartite-sandwich-vanishing", "adjacency-sandwich-decomposition"]


def _failed(results: dict[str, bool]) -> list[str]:
    return [name for name, ok in results.items() if not ok]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sandwich_identities_by_label_and_count_match_the_n2_oracle(m):
    # lemma41 by the orbits of A_1's entries, counted, against the n x n
    # route: sandwiches restricted from A_1 and orbit matrices built alone
    results = verify_sandwich_identities(orbit_index(m))
    assert list(results.items()) == list(n2_sandwich_identities(m, adjacency_matrix(m)).items())
    assert len(results) == 3 * (2 * m + 1) + 3 and _failed(results) == []


def _without_one_sandwich_edge(m: int) -> tuple[tuple[int, ...], ...]:
    # the neighbour table less the entry (x0, z), z the first neighbour of
    # x0: E*_0 A_1 E*_1 loses a pair of its orbit
    table = list(_neighbours(m))
    table[0] = table[0][1:]
    return tuple(table)


def _with_an_edge_inside_a_sphere(m: int) -> tuple[tuple[int, ...], ...]:
    # the neighbour table with the entry (y, z), y and z the first two
    # vertices of the first sphere with two
    index = orbit_index(m)
    y, z = next(s for s in index.spheres if len(s) > 1)[:2]
    table = list(_neighbours(m))
    table[y] = tuple(sorted((*table[y], z)))
    return tuple(table)


@pytest.mark.parametrize("doctor, failed", [
    (_without_one_sandwich_edge, ["sandwich-orbit-form[i=0]", "adjacency-sandwich-decomposition"]),
    (_with_an_edge_inside_a_sphere, ["bipartite-sandwich-vanishing", "adjacency-sandwich-decomposition"]),
])
@pytest.mark.parametrize("m", [2, 3])
def test_sandwich_identities_on_a_doctored_adjacency_fail_as_the_n2_oracle(monkeypatch, m, doctor, failed):
    doctored = doctor(m)
    monkeypatch.setattr(terwilliger_module, "_neighbours", lambda _m: doctored)
    results = verify_sandwich_identities(orbit_index(m))
    assert list(results.items()) == list(n2_sandwich_identities(m, neighbour_matrix(doctored)).items())
    assert _failed(results) == failed


@pytest.mark.parametrize("m", [2, 3])
def test_the_spheres_of_lemma41_fail_on_a_doctored_breadth_first_search(monkeypatch, m):
    # the search from x0 over the neighbour table less the entry (x0, z), z
    # the first neighbour of x0, does not reach z at distance 1: E*_i fails
    # for every sphere a vertex leaves or enters against the distance
    # formula, by a search of the test's own, while A_1's entries, read
    # through the untouched table, still tally
    doctored = _without_one_sandwich_edge(m)
    monkeypatch.setattr(combinatorics_module, "_neighbours", lambda _m: doctored)
    searched, queue = {0: 0}, deque([0])
    while queue:
        y = queue.popleft()
        for z in doctored[y]:
            if z not in searched:
                searched[z] = searched[y] + 1
                queue.append(z)
    moved, x0 = set(), (1 << m) - 1
    for y, v in enumerate(enumerate_vertices(m)):
        if searched.get(y) != distance(x0, v):
            moved.update({distance(x0, v), searched.get(y)} - {None})
    assert 1 in moved
    assert _failed(verify_sandwich_identities(orbit_index(m))) == [f"dual-idempotent-orbit-form[i={i}]" for i in sorted(moved)]


def test_sandwich_identities_hold():
    for m in (1, 2, 3):
        assert _failed(verify_sandwich_identities(orbit_index(m))) == []


def test_generator_list():
    m = 2
    gens = terwilliger_generators(m)
    assert len(gens) == 2 * (2 * m + 2)
    assert gens[0] == SparseExactMatrix.identity(vertex_count(m))


def test_algebra_dimensions(ctx_for):
    # the generated algebra already fills the full centralizer at m = 1, 2
    assert ctx_for(1).terwilliger.dimension == 20
    assert ctx_for(2).terwilliger.dimension == 60
    assert ctx_for(3).terwilliger.dimension == 140


@pytest.mark.parametrize("m", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow), pytest.param(5, marks=pytest.mark.slow)])
def test_t_closes_under_a1_alone_to_the_all_generator_oracle(ctx_for, m):
    # the closure splits each product by the sphere its orbits start in:
    # one product per basis row, every row in one sphere, and the RREF of
    # the scheme closed in one block under E*_0..E*_{2m+1} and A_1
    t = ctx_for(m).terwilliger
    assert t.iterations == t.dimension == (20, 60, 140, 280, 504)[m - 1]
    assert all(len({t.scheme.row_of[a] for a in row}) == 1 for row in t.basis.rows)
    oracle = all_generator_closure(t.scheme)
    assert oracle.basis == t.basis
    assert oracle.iterations == t.dimension * (2 * m + 3)


def _inclusion(ctx, t):
    # (actual, status) of the inclusion check itself, run on a context whose
    # T is t: the check reads T and its scheme alone
    doctored = CheckContext(ctx.m)
    doctored.terwilliger = t
    _, _, actual, status = _RUNNERS["inclusion"](doctored)
    return actual, status


# the equality report's verdicts, in its order
_EQUALITY_KEYS = ("dims_equal", "orbit_matrices_in_T", "identical_rref")


def test_inclusion_and_equality(ctx_for):
    for m in (1, 2, 3):
        ctx = ctx_for(m)
        assert _inclusion(ctx, ctx.terwilliger) == ({"all_rows_in_centralizer": True}, "pass")
        assert verify_equality(ctx.terwilliger) == dict.fromkeys(_EQUALITY_KEYS, True)


def test_equality_verdicts_are_the_equality_report_keys_in_order(ctx_for, capsys):
    # the equality runner reports verify_equality's dict as its actual, so
    # the verdicts are named, and ordered, as the report prints them
    assert main(["verify", "--m", "1", "--checks", "equality"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert list(verify_equality(ctx_for(1).terwilliger)) == list(report["actual"]) == list(_EQUALITY_KEYS)


def _n2_inclusion(t_basis, cent_span):
    # the n^2-ambient comparison: every T row in the span of the orbit matrices
    return all(cent_span.contains_vector(row) for row in t_basis.rows)


def _n2_equality(t_basis, cent, cent_span):
    # the n^2-ambient comparisons, name -> verdict as verify_equality names them
    verdicts = (
        t_basis.dimension == cent_span.dimension,
        all(contains(t_basis, mat) for mat in orbit_matrices(cent.m).values()),
        t_basis == cent_span,
    )
    return dict(zip(_EQUALITY_KEYS, verdicts))


def test_checks_in_orbit_coordinates_match_the_n2_comparisons(ctx_for):
    for m in (1, 2, 3):
        ctx = ctx_for(m)
        t, cent = ctx.terwilliger, ctx.centralizer
        cent_span = span(orbit_matrices(ctx.m).values())  # the n^2-ambient oracle
        t_basis = lift(cent, t.basis)
        assert t_basis == cent_span
        assert _n2_inclusion(t_basis, cent_span) is True
        assert _inclusion(ctx, t) == ({"all_rows_in_centralizer": _n2_inclusion(t_basis, cent_span)}, "pass")
        assert verify_equality(t) == _n2_equality(t_basis, cent, cent_span) == dict.fromkeys(_EQUALITY_KEYS, True)
        # T without one of its rows is a proper subspace of the centralizer
        rows = t.basis.rows
        del rows[len(rows) // 2]
        smaller = TerwilligerAlgebra(cent, span_of_rows(t.basis.ambient_dim, rows), None)
        assert _inclusion(ctx, smaller)[0] == {
            "all_rows_in_centralizer": _n2_inclusion(_lifted(ctx.m, smaller.basis), cent_span)
        }
        assert verify_equality(smaller) == _n2_equality(_lifted(ctx.m, smaller.basis), cent, cent_span)
        assert verify_equality(smaller) == dict.fromkeys(_EQUALITY_KEYS, False)


def test_checks_in_orbit_coordinates_reject_a_basis_of_another_ambient(ctx_for):
    ctx = ctx_for(1)
    t, cent = ctx.terwilliger, ctx.centralizer
    lifted = TerwilligerAlgebra(cent, lift(cent, t.basis), None)
    assert _inclusion(ctx, lifted) == ({"all_rows_in_centralizer": False, "first_failed_row": 0}, "fail")
    res = verify_equality(lifted)
    assert not res["orbit_matrices_in_T"] and not res["identical_rref"]


@pytest.mark.parametrize("dim", [19, 25])
def test_center_basis_rejects_a_basis_of_another_ambient(ctx_for, dim):
    # the scheme at m = 1 has d = 20: a T basis with fewer coordinates, or
    # with more, which no block lookup can place, is refused before the solve
    scheme = ctx_for(1).centralizer
    basis = span_of_rows(dim, ({a: 1} for a in range(dim)))
    with pytest.raises(ShapeMismatchError, match=f"basis in dimension {dim} against scheme dimension 20"):
        center_basis(TerwilligerAlgebra(scheme, basis, None))


def test_terwilliger_and_center_live_in_orbit_coordinates(ctx_for):
    for m in (1, 2, 3):
        ctx = ctx_for(m)
        d = 4 * comb(m + 4, 4)
        assert ctx.centralizer.ambient_dim == ctx.terwilliger.basis.ambient_dim == ctx.center.ambient_dim == d


def test_center_dimension(ctx_for):
    for m, dim in [(1, 2), (2, 4), (3, 6)]:
        assert ctx_for(m).center.dimension == dim
        assert center_dimension(ctx_for(m).terwilliger) == dim
        assert dim == upsilon_size_formula(m) == len(upsilon(m))


def test_center_elements_commute(ctx_for):
    ctx = ctx_for(2)
    n = vertex_count(ctx.m)
    t_basis = _lifted(ctx.m, ctx.terwilliger.basis)
    center = _lifted(ctx.m, ctx.center)
    ident_vec = vectorize(SparseExactMatrix.identity(n))
    assert center.contains_vector(ident_vec)
    gens = terwilliger_generators(ctx.m)
    for row in center.rows:
        z = matrix_from_vector(dict(row), n, n)
        for gen in gens:
            assert z @ gen == gen @ z
        assert contains(t_basis, z)


def _all_basis_commutant(basis, n):
    # independent oracle: the elements of the span commuting with every basis
    # element B_k, from one linear system in the basis coordinates
    mats = [matrix_from_vector(row, n, n) for row in basis.rows]
    d = len(mats)
    system = SpanBasis(d)
    for mk in mats:
        for eq in zip(*(coordinates(basis, vectorize(a @ mk - mk @ a)) for a in mats)):
            system.insert({a: v for a, v in enumerate(eq) if v})
    # the solutions are the kernel: one per free (non-pivot) coordinate
    rows = {min(row): row for row in system.rows}
    result = SpanBasis(n * n)
    for free in range(d):
        if free in rows:
            continue
        coeffs = {free: 1}
        for p, row in rows.items():
            v = row.get(free)
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
        oracle = _all_basis_commutant(_lifted(ctx.m, ctx.terwilliger.basis), vertex_count(ctx.m))
        assert oracle.dimension == upsilon_size_formula(m)
        assert _lifted(ctx.m, center_basis(ctx.terwilliger)) == oracle


def test_orbit_coordinates_match_the_ambient_oracle(ctx_for):
    # the n^2-ambient closure and centre, run on the n x n generator matrices,
    # give the lifted RREFs of the runs in orbit coordinates
    for m in (1, 2, 3):
        ctx = ctx_for(m)
        t = ctx.terwilliger
        gens = closure_generators(ctx.m)
        ambient = algebra_closure(gens, MatrixAction.of(gens))
        # one block: a product per basis row and generator, against A_1's one
        assert ambient.iterations == t.dimension * len(gens)
        assert t.iterations == t.dimension
        coords = ctx.centralizer
        assert ambient.basis == lift(coords, t.basis)
        center = centralizer_within(ambient.basis.rows, gens, MatrixAction.on(ambient.basis))
        assert center == lift(coords, ctx.center)


@pytest.mark.parametrize("m", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow), pytest.param(5, marks=pytest.mark.slow)])
def test_center_matches_the_all_generator_oracle(ctx_for, m):
    # the solve over all of T against every generator T is closed under
    # gives the RREF of the solve on the diagonal blocks against A_1
    t = ctx_for(m).terwilliger
    index = orbit_index(m)
    oracle = centralizer_within(t.basis.rows, [*dual_idempotent_tables(index), index.adjacency], index)
    assert oracle.dimension == upsilon_size_formula(m)
    assert center_basis(t) == oracle


@pytest.mark.parametrize("m", [1, 2, 3])
def test_centralizer_within_takes_any_spanning_rows(ctx_for, m):
    # T's diagonal-block rows with one of them repeated and the sum of two
    # added, in shuffled order: rows neither reduced nor independent that
    # span the same blocks give the centre center_basis solves
    t = ctx_for(m).terwilliger
    scheme = t.scheme
    diagonal = [row for row in t.basis.rows if all(scheme.row_of[a] == scheme.end_of[a] for a in row)]
    rng = random.Random(m)
    first, second = rng.sample(diagonal, 2)
    summed = {c: v for c in first.keys() | second.keys() if (v := first.get(c, 0) + second.get(c, 0))}
    rows = [*diagonal, dict(rng.choice(diagonal)), summed]
    rng.shuffle(rows)
    assert not in_reduced_form(rows)
    assert centralizer_within(rows, [scheme.adjacency], scheme) == center_basis(t)


def test_center_rejects_a_row_joining_two_blocks():
    # T is all of Q^d at m = 3; joining the unit of orbit 0, whose matrix is
    # E*_0, to that of an orbit between two spheres leaves an RREF whose row
    # lies in no one block E*_i T E*_j
    index = orbit_index(3)
    d = len(index.labels)
    b = next(b for b, zs in enumerate(index.members) if index.sphere_of[zs[0]] != index.row_of[b])
    rows = [{0: 1, b: 1}] + [{a: 1} for a in range(1, d) if a != b]
    t = TerwilligerAlgebra(scheme=index, basis=span_of_rows(d, rows), iterations=None)
    assert t.basis.rows[0] == rows[0]
    with pytest.raises(NotClosedError, match="joins two blocks"):
        center_basis(t)


def test_action_tables_reject_a_generator_not_constant_on_orbits():
    m = 2
    n = vertex_count(m)
    sphere1 = [r for r, _, _ in dual_idempotent(m, 1).entries()]
    assert len(sphere1) == 3
    # one diagonal unit of the sphere: the other two sphere vertices lie in
    # the same orbits but see a zero row
    unit = SparseExactMatrix.from_entries(n, n, [(sphere1[0], sphere1[0], 1)])
    coords = orbit_index(2)
    with pytest.raises(NotClosedError):
        action_tables(coords, [unit])
    # the whole sphere indicator is constant on orbits
    assert len(action_tables(coords, [dual_idempotent(m, 1)])) == 1


@pytest.mark.parametrize("m", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow)])
def test_product_built_closure_tables_match_the_action_tables_oracle(m):
    # each generator acts on each orbit matrix through its push tables:
    # E*_i's keep the orbits of a sphere, A_1's move one Venn atom; the
    # oracle reads the action off every vertex pair of its orbit
    coords = orbit_index(m)
    # closure_generators lists E*_0..E*_{2m+1}, then A_1, as these tables do
    oracle = action_tables(coords, closure_generators(m))
    generators = [*dual_idempotent_tables(coords), coords.adjacency]
    assert len(generators) == len(oracle)
    for x, table in zip(generators, oracle):
        for a in range(coords.ambient_dim):
            assert coords.left(x, {a: 1}) == table.left[a]
            assert coords.right(x, {a: 1}) == table.right[a]


def test_orbit_coordinates_require_a_partition_of_the_pairs(monkeypatch):
    # drop a closed-form label: the pairs of its orbit then carry a label
    # outside the closed form, which is a named error, not a KeyError
    *labels, dropped = orbits_module._orbit_labels(1)
    monkeypatch.setattr(orbits_module, "_orbit_labels", lambda _m: tuple(labels))
    with pytest.raises(NotClosedError, match=f"{dropped.text()}, which is not closed-form.*partition"):
        OrbitCoordinates(1)


def test_orbit_coordinates_require_the_identity_to_be_a_sum_of_orbits():
    index = orbit_index(1)
    # merge the orbit of (x0, x0) with an off-diagonal orbit of the row of x0:
    # the identity is the sum of the orbits at distance 0, which a label
    # decides, so the merged index passes the label certificate against a
    # closed form without the off-diagonal label, and then fails the orbit
    # certificate, which sees two classes of the row's generators in one orbit
    diagonal, other = (index.labels[a] for a in index.rows[0][:2])
    assert index.spheres[0] == (0,) and diagonal.tup[2] == 1 and other.tup[2] == 0
    with pytest.raises(NotClosedError, match=f"orbit {diagonal.text()} is not a single orbit"):
        merged_orbit_coordinates(1, diagonal, other)


def test_orbit_coordinates_reject_a_matrix_not_constant_on_orbits():
    coords = orbit_index(1)
    index = pair_index(1)
    n = vertex_count(1)
    # the identity's orbit values, compared through labels
    values = orbit_values(index, vectorize(SparseExactMatrix.identity(n)))
    assert {index.labels[a]: v for a, v in values.items()} == {coords.labels[a]: v for a, v in coords.identity().items()}
    # ({2}, {3}) shares its orbit with ({3}, {2})
    bogus = SparseExactMatrix.from_entries(n, n, [(1, 2, 1)])
    assert orbit_values(index, vectorize(bogus)) is None


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
    # direct-sum's families: each family's span in Q^d is the coordinate
    # subspace of its orbit ids
    for m in (1, 2):
        ids = _family_ids(ctx_for(m).centralizer.labels)
        quarter = comb(m + 4, 4)
        assert len(ids["I"]) == quarter
        assert len(ids["IV"]) == quarter
        assert len(ids["II+III"]) == 2 * quarter


def test_subalgebra_spans_lift_to_the_n2_family_spans(ctx_for):
    # direct-sum's orbit id sets, lifted as coordinate subspaces of Q^d,
    # against the n^2-ambient spans of each family's orbit matrices, and
    # the sizes of their pairwise intersections against the dimensions of
    # the n^2-ambient spans of each two families
    families = {"I": {BlockTag.I}, "II+III": {BlockTag.II, BlockTag.III}, "IV": {BlockTag.IV}}
    for m in (1, 2, 3):
        cent = ctx_for(m).centralizer
        ids = _family_ids(cent.labels)
        assert set(ids) == set(families)
        mats = orbit_matrices(ctx_for(m).m)
        for name, blocks in families.items():
            oracle = span(mat for lab, mat in mats.items() if lab.block in blocks)
            units = span_of_rows(cent.ambient_dim, ({a: 1} for a in sorted(ids[name])))
            assert lift(cent, units) == oracle
            assert len(ids[name]) == oracle.dimension
        for a, b in (("I", "II+III"), ("I", "IV"), ("II+III", "IV")):
            joined = span(mat for lab, mat in mats.items() if lab.block in families[a] | families[b])
            assert len(ids[a] & ids[b]) == len(ids[a]) + len(ids[b]) - joined.dimension


def test_algebra_closure_idempotent(ctx_for):
    # regrowing the algebra from its own reduced basis does not enlarge it
    ctx = ctx_for(1)
    t_basis = _lifted(ctx.m, ctx.terwilliger.basis)
    n = vertex_count(ctx.m)
    mats = [matrix_from_vector(dict(row), n, n) for row in t_basis.rows]
    regrown = algebra_closure(mats, MatrixAction.of(mats))
    assert regrown.basis == t_basis
    assert regrown.iterations == t_basis.dimension * len(mats)


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
        oracle = _pairwise_product_closure(terwilliger_generators(m))
        assert _lifted(m, build_terwilliger(orbit_index(m)).basis) == oracle


def test_build_terwilliger_rejects_a_distance_matrix_outside_the_closure(monkeypatch):
    # closed under no generator, the closure is the span of the sphere parts
    # E*_i of the identity: it holds A_0, their sum, but not A_2
    monkeypatch.setattr(terwilliger_module, "algebra_closure", lambda _generators, action: algebra_closure([], action))
    with pytest.raises(NotClosedError, match="A_2 is not in the algebra"):
        build_terwilliger(orbit_index(1))


def test_second_sphere_idempotent_support_at_m3():
    # the m+1 supersets of the base vertex form the distance-1 sphere
    m = 3
    e1 = dual_idempotent(m, 1)
    assert e1.nnz == m + 1


def test_center_of_diagonal_subalgebra_is_everything():
    # span{E*_i} is commutative, so it equals its own center
    for m in (1, 2):
        idems = dual_idempotents(m)
        diag = span(idems)
        assert diag.dimension == 2 * m + 2
        assert centralizer_within(diag.rows, idems, MatrixAction.on(diag)).dimension == 2 * m + 2


def _hypercube(dim: int) -> LabelScheme:
    """Positive control: the hypercube Q_D at the base vertex {} as a label
    scheme.  Sym(D) fixes {} and has one orbit on vertex pairs (y, z) per
    label (|y n z|, |y - z|, |z - y|, rest), whose pairs start in sphere
    |y| and end in sphere |z|.  A_1 flips one point of one atom: y loses a
    point of y n z or y - z, or gains one of z - y or the rest.  Go
    (European J. Combin. 23, 2002) gives dim T = C(D+3, 3) and
    dim Z(T) = floor(D/2) + 1."""
    def moves(label):
        a, b, c, r = label
        flips = (((a - 1, b, c + 1, r), a), ((a, b - 1, c, r + 1), b), ((a + 1, b, c - 1, r), c), ((a, b + 1, c, r - 1), r))
        return [(lab, size) for lab, size in flips if size]

    return LabelScheme(
        [(a, b, c, dim - a - b - c) for a in range(dim + 1) for b in range(dim + 1 - a) for c in range(dim + 1 - a - b)],
        ends=lambda label: (label[0] + label[1], label[0] + label[2]),
        distance=lambda label: label[1] + label[2],
        moves=moves,
        transpose=lambda label: (label[0], label[2], label[1], label[3]),
    )


@pytest.mark.parametrize("dim", range(1, 13))
def test_the_hypercube_terwilliger_algebra_has_its_published_dimensions(dim):
    # the package's own T and Z(T) routes on Q_D's label scheme: the
    # closure under A_1 alone, one product per basis row and each row in
    # one sphere |y|, with its A_i-membership check over Q_D's distances,
    # and the centre solve on the diagonal blocks against A_1; at D <= 3
    # the closure and the centre solve on its n x n generator matrices
    t = build_terwilliger(_hypercube(dim))
    z = center_basis(t)
    assert (t.dimension, z.dimension) == (comb(dim + 3, 3), dim // 2 + 1)
    assert t.iterations == t.dimension
    assert all(len({t.scheme.row_of[a] for a in row}) == 1 for row in t.basis.rows)
    if dim <= 3:
        n = 2 ** dim
        estars = [SparseExactMatrix.from_entries(n, n, ((y, y, 1) for y in range(n) if y.bit_count() == i)) for i in range(dim + 1)]
        gens = [*estars, SparseExactMatrix.from_entries(n, n, ((y, y ^ 1 << k, 1) for y in range(n) for k in range(dim)))]
        ambient = algebra_closure(gens, MatrixAction.of(gens)).basis
        centre = centralizer_within(ambient.rows, gens, MatrixAction.on(ambient))
        assert (ambient.dimension, centre.dimension) == (t.dimension, z.dimension)
