"""Exact sparse matrices, row-reduced spans and algebra closure."""

import random
from fractions import Fraction

import pytest
from helpers import (
    MatrixAction,
    contains,
    coordinates,
    dual_idempotents,
    in_reduced_form,
    matrix_from_vector,
    null_space_per_column,
    read_coord_text,
    span,
    span_of_rows,
    vectorize,
)

from doubled_odd.checks import write_coord_entries
from doubled_odd.combinatorics import GroundSet
from doubled_odd.linalg import (
    NotClosedError,
    ShapeMismatchError,
    SpanBasis,
    SparseExactMatrix,
    _add_scaled,
    algebra_closure,
    centralizer_within,
)
from doubled_odd.terwilliger import center_basis


def _unit(n, r, c):
    return SparseExactMatrix.from_entries(n, n, [(r, c, 1)])


def test_matrix_arithmetic_against_dense():
    a = SparseExactMatrix.from_entries(2, 3, [(0, 0, 1), (0, 2, Fraction(1, 2)), (1, 1, -3)])
    b = SparseExactMatrix.from_entries(3, 2, [(0, 0, 2), (1, 0, 1), (2, 1, 4)])
    prod = a @ b

    def dense(m):
        return [[m.get(r, c) for c in range(m.ncols)] for r in range(m.nrows)]

    da, db = dense(a), dense(b)
    expected = [
        [sum(da[r][k] * db[k][c] for k in range(3)) for c in range(2)]
        for r in range(2)
    ]
    assert dense(prod) == expected
    assert prod.get(0, 1) == 2  # Fraction(1,2) * 4 collapses to the integer 2
    assert isinstance(prod.get(0, 1), int)


def test_add_scaled_updates_in_place_and_drops_what_cancels():
    out = {0: 1, 1: Fraction(1, 2), 3: 2}
    row = {1: Fraction(1, 4), 2: Fraction(3, 4), 3: -1}
    assert _add_scaled(out, 2, row) is None
    # 1/2 + 1/2 is held as the int 1, and 2 - 2 is dropped, not stored
    assert out == {0: 1, 1: 1, 2: Fraction(3, 2)} and list(out) == [0, 1, 2]
    assert type(out[1]) is int
    assert row == {1: Fraction(1, 4), 2: Fraction(3, 4), 3: -1}


def test_add_sub_scale_transpose():
    a = SparseExactMatrix.from_entries(2, 2, [(0, 0, 1), (1, 0, 2)])
    b = SparseExactMatrix.from_entries(2, 2, [(0, 0, -1), (0, 1, 5)])
    assert (a + b).get(0, 0) == 0
    assert (a + b).nnz == 2
    assert (a - a).is_zero()
    assert a.scale(Fraction(1, 2)).get(1, 0) == 1
    assert a.transpose().get(0, 1) == 2
    assert a.transpose().transpose() == a
    ident = SparseExactMatrix.identity(2)
    assert ident @ a == a and a @ ident == a


def test_shape_mismatch_raises():
    a = SparseExactMatrix.zero(2, 3)
    b = SparseExactMatrix.zero(2, 3)
    with pytest.raises(ShapeMismatchError):
        a @ b
    with pytest.raises(ShapeMismatchError):
        a + SparseExactMatrix.zero(3, 2)


def test_vectorize_round_trip():
    a = SparseExactMatrix.from_entries(2, 3, [(0, 1, 7), (1, 2, Fraction(2, 3))])
    vec = vectorize(a)
    assert vec == {1: 7, 5: Fraction(2, 3)}
    assert matrix_from_vector(vec, 2, 3) == a


def test_span_basis_insert_and_coordinates():
    basis = SpanBasis(3)
    assert basis.insert({0: 1, 1: 2})
    assert basis.insert({1: 1, 2: 1})
    assert not basis.insert({0: 2, 1: 6, 2: 2})  # dependent on the first two
    assert basis.dimension == 2
    coords = coordinates(basis, {0: 1, 1: 2})
    assert coords is not None
    assert coordinates(basis, {2: 1}) is None
    assert basis.contains_vector({0: 3, 1: 8, 2: 2})
    # rows are fully reduced: each pivot column is zero in the other rows
    pivots = [min(row) for row in basis.rows]
    for row in basis.rows:
        hits = [p for p in pivots if p in row]
        assert len(hits) == 1 and row[hits[0]] == 1


def _random_vectors(rng, ambient, count):
    # sparse rational vectors, with deliberate repeats and scaled copies so
    # that some insertions are dependent
    vecs = []
    for _ in range(count):
        if vecs and rng.random() < 0.3:
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) or 1
            vecs.append({c: k * v for c, v in rng.choice(vecs).items()})
            continue
        support = rng.sample(range(ambient), rng.randint(1, min(4, ambient)))
        vecs.append({c: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for c in support})
    return vecs


def _combination(rng, vecs):
    out = {}
    for vec in vecs:
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for c, v in vec.items():
            out[c] = out.get(c, 0) + k * v
    return {c: v for c, v in out.items() if v}


@pytest.mark.parametrize("seed", range(20))
def test_span_basis_rref_is_independent_of_insertion_order(seed):
    rng = random.Random(seed)
    ambient = rng.randint(3, 9)
    vecs = _random_vectors(rng, ambient, rng.randint(1, 10))
    first = SpanBasis(ambient)
    for vec in vecs:
        first.insert(vec)
    for _ in range(5):
        order = vecs[:]
        rng.shuffle(order)
        again = SpanBasis(ambient)
        for vec in order:
            again.insert(vec)
        assert again == first
    assert in_reduced_form(first.rows)


@pytest.mark.parametrize("seed", range(20))
def test_span_basis_members_reduce_to_zero_and_coordinates_round_trip(seed):
    rng = random.Random(1000 + seed)
    ambient = rng.randint(3, 9)
    vecs = _random_vectors(rng, ambient, rng.randint(1, 8))
    basis = SpanBasis(ambient)
    for vec in vecs:
        basis.insert(vec)
    rows = basis.rows
    for vec in vecs + [_combination(rng, vecs) for _ in range(5)]:
        assert basis.reduce(vec) == {}
        assert basis.contains_vector(vec)
        coords = coordinates(basis, vec)
        rebuilt = {}
        for k, row in zip(coords, rows):
            for c, v in row.items():
                rebuilt[c] = rebuilt.get(c, 0) + k * v
        assert {c: v for c, v in rebuilt.items() if v} == vec
    if basis.dimension < ambient:
        outside = next(
            {c: 1} for c in range(ambient) if not basis.contains_vector({c: 1})
        )
        assert coordinates(basis, outside) is None
        assert basis.reduce(outside)


@pytest.mark.parametrize("seed", range(40))
def test_span_basis_null_space_is_a_basis_of_the_annihilator(seed):
    rng = random.Random(2000 + seed)
    ambient = rng.randint(1, 9)
    vecs = _random_vectors(rng, ambient, rng.randint(0, 8))
    basis = SpanBasis(ambient)
    for vec in vecs:
        basis.insert(vec)
    kernel = basis.null_space()
    assert len(kernel) == ambient - basis.dimension
    for x in kernel:
        for vec in vecs + basis.rows:
            assert sum(v * x.get(c, 0) for c, v in vec.items()) == 0
    independent = SpanBasis(ambient)
    assert all(independent.insert(x) for x in kernel)
    # the one pass over the entries gives the per-column route's vectors, in
    # its order and with its key order
    assert _items(kernel) == _items(null_space_per_column(basis))


def _items(vectors):
    return [list(vec.items()) for vec in vectors]


@pytest.mark.parametrize("m", [1, 2, 3, pytest.param(4, marks=pytest.mark.slow), pytest.param(5, marks=pytest.mark.slow)])
def test_null_space_of_the_centre_equations_matches_the_per_column_oracle(ctx_for, monkeypatch, m):
    # the centre solve's equation system, caught where centralizer_within
    # reads its null space: the same vectors, order and key order as the
    # per-column route
    ctx = ctx_for(m)
    expected = ctx.center
    solved = []
    one_pass = SpanBasis.null_space

    def recorded(system):
        kernel = one_pass(system)
        solved.append((system, kernel))
        return kernel

    monkeypatch.setattr(SpanBasis, "null_space", recorded)
    assert center_basis(ctx.terwilliger) == expected
    [(system, kernel)] = solved
    assert len(kernel) == expected.dimension == (m + 2) ** 2 // 4
    assert _items(kernel) == _items(null_space_per_column(system))


def test_the_reduced_form_test_rejects_rows_not_in_reduced_form():
    # a pivot left in another row: the first row, the last row (after the
    # pivot's own row), and a middle row before the pivot's own row
    for rows in (
        [{0: 1, 1: 2}, {1: 1}],
        [{1: 1}, {2: 1}, {0: 1, 1: 3}],
        [{0: 1}, {1: 1, 3: 2}, {2: 1}, {3: 1}],
        [{0: 2}],  # pivot entry not 1
        [{0: 1}, {0: 1, 2: 1}],  # repeated pivot
        [{0: 1, 2: 0}],  # an explicit zero
        [{0: 1}, {}],  # a zero row
    ):
        assert not in_reduced_form(rows)
    assert in_reduced_form([{1: 1, 2: Fraction(-1, 2)}, {0: 1, 2: 3}])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_from_reduced_rows_rebuilds_t_and_the_identity(ctx_for, m):
    # T's rows and the unit rows are in reduced form, and inserting them
    # again, the unit rows in either order, rebuilds each span
    t = ctx_for(m).terwilliger.basis
    d = t.ambient_dim
    assert in_reduced_form(t.rows)
    assert span_of_rows(d, t.rows) == t
    units = [{a: 1} for a in range(d)]
    assert in_reduced_form(units) and in_reduced_form(reversed(units))
    identity = span_of_rows(d, units)
    assert identity.rows == units
    assert span_of_rows(d, reversed(units)) == identity


def test_span_of_matrices_is_idempotent():
    mats = [_unit(2, 0, 0), _unit(2, 0, 1), _unit(2, 0, 0) + _unit(2, 0, 1)]
    basis = span(mats)
    assert basis.dimension == 2
    again = span(mats + mats)
    assert basis == again
    assert contains(basis, mats[2].scale(Fraction(5, 3)))
    assert not contains(basis, _unit(2, 1, 1))


def test_span_trivial_cases():
    m = _unit(2, 0, 1)
    assert span([m, m.scale(2)]).dimension == 1
    assert span([]).dimension == 0


def test_closure_of_identity_alone():
    result = algebra_closure([SparseExactMatrix.identity(3)], MatrixAction(3))
    assert result.basis.dimension == 1


def test_closure_of_orthogonal_idempotents():
    for m in (1, 2):
        idems = dual_idempotents(GroundSet(m))
        result = algebra_closure(idems, MatrixAction.of(idems))
        assert result.basis.dimension == 2 * m + 2


def test_closure_of_nilpotent_shift():
    shift = SparseExactMatrix.from_entries(3, 3, [(0, 1, 1), (1, 2, 1)])
    result = algebra_closure([shift], MatrixAction(3))
    # identity, N and N^2
    assert result.basis.dimension == 3
    sq = shift @ shift
    assert contains(result.basis, sq)
    assert (sq @ shift).is_zero()


def test_closure_generates_full_matrix_algebra():
    e12, e21 = _unit(2, 0, 1), _unit(2, 1, 0)
    result = algebra_closure([e12, e21], MatrixAction(2))
    assert result.basis.dimension == 4


def test_a_two_block_closure_matches_one_block_with_the_block_projections():
    # rows {0} and {1, 2} of 3 x 3 matrices as two row blocks: the closure
    # under a cycle splits each product by block, and so gets the RREF of
    # one block closed under the cycle and the two block projections, at one
    # product per basis row; under no generator it is their span
    cycle = SparseExactMatrix.from_entries(3, 3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    projections = [_unit(3, 0, 0), _unit(3, 1, 1) + _unit(3, 2, 2)]
    two_blocks = MatrixAction(3)
    two_blocks.row_of = tuple(min(c // 3, 1) for c in range(9))
    split = algebra_closure([cycle], two_blocks)
    whole = algebra_closure([cycle, *projections], MatrixAction(3))
    assert split.basis == whole.basis
    assert whole.basis != algebra_closure([cycle], MatrixAction(3)).basis
    assert (split.iterations, whole.iterations) == (split.basis.dimension, 3 * split.basis.dimension)
    assert algebra_closure([], two_blocks).basis == span(projections)


def test_centralizer_of_full_matrix_algebra_is_scalars():
    gens = [_unit(2, 0, 1), _unit(2, 1, 0)]
    full = algebra_closure(gens, MatrixAction.of(gens)).basis
    center = centralizer_within(full.rows, gens, MatrixAction.on(full))
    assert center.dimension == 1
    assert center.contains_vector(vectorize(SparseExactMatrix.identity(2)))


def test_centralizer_of_diagonal_algebra_is_itself():
    gens = [_unit(2, 0, 0), _unit(2, 1, 1)]
    diag = span(gens)
    center = centralizer_within(diag.rows, gens, MatrixAction.on(diag))
    assert center.dimension == 2


def test_centralizer_rejects_non_closed_span():
    gens = [_unit(2, 0, 1), _unit(2, 1, 0)]
    bad = span(gens)  # E12 E21 = E11 is outside
    with pytest.raises(NotClosedError, match="spot check"):
        MatrixAction.on(bad)


def test_coord_text_round_trip(tmp_path):
    a = SparseExactMatrix.from_entries(
        3, 4, [(0, 0, 1), (2, 3, Fraction(-7, 2)), (1, 1, 12)]
    )
    path = tmp_path / "a.mtx"
    write_coord_entries(a.nrows, a.ncols, a.entries(), path)
    text = path.read_text().splitlines()
    assert text[0] == "3 4 3"
    assert read_coord_text(path) == a
