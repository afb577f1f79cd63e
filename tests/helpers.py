"""Helpers shared by the tests: the n^2-ambient matrix action, the oracle the
orbit-coordinate runs of algebra_closure and centralizer_within are compared
with, and doctored orbit data for the certificates of the pair index."""

from array import array
from math import isqrt

from doubled_odd.linalg import (
    NotClosedError,
    ShapeMismatchError,
    SparseExactMatrix,
    SpanBasis,
    matrix_from_vector,
    vectorize,
)
from doubled_odd.orbits import PairIndex, _pair_index


class MatrixAction:
    """n x n matrices acting on row-major vectorized n x n matrices by products."""

    def __init__(self, n: int):
        self.n = n
        self.ambient_dim = n * n

    @classmethod
    def of(cls, matrices: list[SparseExactMatrix]) -> "MatrixAction":
        """The action for generators that are square matrices of one size."""
        n = matrices[0].nrows
        for mat in matrices:
            if mat.nrows != n or mat.ncols != n:
                raise ShapeMismatchError("generators must be square matrices of one size")
        return cls(n)

    @classmethod
    def on(cls, basis: SpanBasis) -> "MatrixAction":
        """The action on the ambient space of basis, after a 3 x 3 spot check
        that the products of its first basis elements stay in its span."""
        n = isqrt(basis.ambient_dim)
        if n * n != basis.ambient_dim:
            raise ValueError(f"ambient dimension {basis.ambient_dim} is not a perfect square")
        action = cls(n)
        rows = basis.rows[:3]
        for u in rows:
            for v in rows:
                if not basis.contains_vector(action.product(u, v)):
                    raise NotClosedError("basis fails a multiplicative closure spot check")
        return action

    def _matrix(self, vec: dict[int, object]) -> SparseExactMatrix:
        return matrix_from_vector(vec, self.n, self.n)

    def identity(self) -> dict[int, object]:
        return vectorize(SparseExactMatrix.identity(self.n))

    def left(self, g: SparseExactMatrix, vec: dict[int, object]) -> dict[int, object]:
        return vectorize(g @ self._matrix(vec))

    def right(self, g: SparseExactMatrix, vec: dict[int, object]) -> dict[int, object]:
        return vectorize(self._matrix(vec) @ g)

    def product(self, u: dict[int, object], v: dict[int, object]) -> dict[int, object]:
        return vectorize(self._matrix(u) @ self._matrix(v))


def merged_pair_index(m: int, keep: int, drop: int) -> PairIndex:
    """The pair index at m with orbit drop merged into orbit keep, renumbered
    by first pair as the real index is."""
    index = _pair_index(m)
    merged = [keep if a == drop else a for a in index.orbit_of]
    ids: dict[int, int] = {}
    orbit_of = array("H", (ids.setdefault(a, len(ids)) for a in merged))
    positions = [[] for _ in ids]
    for idx, a in enumerate(orbit_of):
        positions[a].append(idx)
    labels = [index.labels[a] for a in ids]
    return PairIndex(index.n, tuple(labels), orbit_of, tuple(positions))
