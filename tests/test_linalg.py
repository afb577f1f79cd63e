"""Exact sparse matrices, row-reduced spans and algebra closure."""

import random
from fractions import Fraction

import pytest

from doubled_odd.combinatorics import GroundSet
from doubled_odd.terwilliger import dual_idempotents
from doubled_odd.linalg import (
    DimCapExceededError,
    NotClosedError,
    ShapeMismatchError,
    SpanBasis,
    SparseExactMatrix,
    algebra_closure,
    centralizer_within,
    contains,
    matrix_from_vector,
    read_coord_text,
    span,
    vectorize,
    write_coord_text,
)


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
    coords = basis.coordinates({0: 1, 1: 2})
    assert coords is not None
    assert basis.coordinates({2: 1}) is None
    assert basis.contains_vector({0: 3, 1: 8, 2: 2})
    # rows are fully reduced: each pivot column is zero in the other rows
    pivots = basis.pivots
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
    assert SpanBasis.from_reduced_rows(ambient, first.rows) == first


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
        coords = basis.coordinates(vec)
        rebuilt = {}
        for k, row in zip(coords, rows):
            for c, v in row.items():
                rebuilt[c] = rebuilt.get(c, 0) + k * v
        assert {c: v for c, v in rebuilt.items() if v} == vec
    if basis.dimension < ambient:
        outside = next(
            {c: 1} for c in range(ambient) if not basis.contains_vector({c: 1})
        )
        assert basis.coordinates(outside) is None
        assert basis.reduce(outside)


def test_from_reduced_rows_rejects_rows_not_in_reduced_form():
    with pytest.raises(ValueError):
        SpanBasis.from_reduced_rows(3, [{0: 1, 1: 2}, {1: 1}])  # pivot 1 not cleared
    with pytest.raises(ValueError):
        SpanBasis.from_reduced_rows(3, [{0: 2}])  # pivot entry not 1
    with pytest.raises(ValueError):
        SpanBasis.from_reduced_rows(3, [{0: 1}, {0: 1, 2: 1}])  # repeated pivot
    with pytest.raises(ValueError):
        SpanBasis.from_reduced_rows(3, [{3: 1}])  # outside the ambient space


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
    result = algebra_closure([SparseExactMatrix.identity(3)])
    assert result.basis.dimension == 1
    assert result.stabilized


def test_closure_of_orthogonal_idempotents():
    for m in (1, 2):
        idems = dual_idempotents(GroundSet(m))
        result = algebra_closure(idems)
        assert result.basis.dimension == 2 * m + 2


def test_closure_of_nilpotent_shift():
    shift = SparseExactMatrix.from_entries(3, 3, [(0, 1, 1), (1, 2, 1)])
    result = algebra_closure([shift])
    # identity, N and N^2
    assert result.basis.dimension == 3
    assert result.stabilized
    sq = shift @ shift
    assert contains(result.basis, sq)
    assert (sq @ shift).is_zero()


def test_closure_generates_full_matrix_algebra():
    e12, e21 = _unit(2, 0, 1), _unit(2, 1, 0)
    result = algebra_closure([e12, e21])
    assert result.basis.dimension == 4
    assert result.stabilized


def test_closure_dim_cap():
    e12, e21 = _unit(2, 0, 1), _unit(2, 1, 0)
    with pytest.raises(DimCapExceededError):
        algebra_closure([e12, e21], dim_cap=3)
    result = algebra_closure([e12, e21], dim_cap=4)
    assert result.basis.dimension == 4


def test_centralizer_of_full_matrix_algebra_is_scalars():
    gens = [_unit(2, 0, 1), _unit(2, 1, 0)]
    full = algebra_closure(gens).basis
    center = centralizer_within(full, gens)
    assert center.dimension == 1
    assert center.contains_vector(vectorize(SparseExactMatrix.identity(2)))


def test_centralizer_of_diagonal_algebra_is_itself():
    gens = [_unit(2, 0, 0), _unit(2, 1, 1)]
    diag = span(gens)
    center = centralizer_within(diag, gens)
    assert center.dimension == 2


def test_centralizer_rejects_non_closed_span():
    gens = [_unit(2, 0, 1), _unit(2, 1, 0)]
    bad = span(gens)  # E12 E21 = E11 is outside
    with pytest.raises(NotClosedError):
        centralizer_within(bad, gens)


def test_coord_text_round_trip(tmp_path):
    a = SparseExactMatrix.from_entries(
        3, 4, [(0, 0, 1), (2, 3, Fraction(-7, 2)), (1, 1, 12)]
    )
    path = tmp_path / "a.mtx"
    write_coord_text(a, path)
    text = path.read_text().splitlines()
    assert text[0] == "3 4 3"
    assert read_coord_text(path) == a


def test_coord_text_rejects_damage(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("2 2 1\n5 0 1\n")
    with pytest.raises(ValueError):
        read_coord_text(path)
