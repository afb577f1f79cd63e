"""Exact sparse matrices and rational span arithmetic.

Everything here works over the rationals: matrix entries are Python ints or
`fractions.Fraction` values, never floats.  Matrices are stored row-major as
nested dicts {row: {col: value}} with no explicit zeros, which keeps products
of the very sparse 0/1 matrices used elsewhere cheap.  Subspaces of vectorized
matrices are kept in fully reduced row echelon form, so a subspace has exactly
one representation and basis comparisons are plain equality.

algebra_closure and centralizer_within work on stored vectors of any ambient
space Q^D through a generator action, which the caller passes: the package
passes a label scheme (orbits.LabelScheme), which acts on the coordinates
of the orbit matrices with each generator's push tables, the lists of
g O_a and O_a g as combinations of orbit matrices, and the tests pass an
action that multiplies vectorized n x n matrices, as an oracle.  The closure
splits each product by the action's row blocks, the spheres for a scheme,
so T closes under A_1 alone.  SpanBasis is the one exact elimination
routine, and every stored row enters through SpanBasis.inserted_row: the
closure grows a SpanBasis, and centralizer_within, given any spanning rows,
inserts its commutator equations into one, reads the commutant off
SpanBasis.null_space and inserts each combination of the rows into the
result.  _add_scaled is the one sparse row update: adding
a multiple of one row to another, in a sum of matrices, an elimination
step or a combination of null vectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from typing import NamedTuple, Protocol


class ShapeMismatchError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class NotClosedError(RuntimeError):
    """A certificate failed: a fact the package rests on, such as a span's
    closure under multiplication or the closed-form labels' partition of
    the vertex pairs, does not hold."""


def _norm(v):
    # keep arithmetic on ints whenever a Fraction is integral
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _add_scaled(out: dict[int, object], k, row: dict[int, object]) -> None:
    """out += k row, in place: each new value normalized (_norm) and each
    entry that cancels dropped, so out stores no explicit zero."""
    for c, v in row.items():
        nv = _norm(out.get(c, 0) + k * v)
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)


class SparseExactMatrix:
    """Immutable-by-convention sparse matrix with exact rational entries."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, rows: dict[int, dict[int, object]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows if rows is not None else {}

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: Iterable[tuple[int, int, object]]):
        rows: dict[int, dict[int, object]] = {}
        for r, c, v in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r}, {c}) outside a {nrows} x {ncols} matrix")
            v = _norm(v)
            if v:
                rows.setdefault(r, {})[c] = v
        return cls(nrows, ncols, rows)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def zero(cls, nrows: int, ncols: int):
        return cls(nrows, ncols, {})

    def get(self, r: int, c: int):
        row = self._rows.get(r)
        if row is None:
            return 0
        return row.get(c, 0)

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def is_zero(self) -> bool:
        return not self._rows

    def entries(self) -> Iterator[tuple[int, int, object]]:
        """Yield (row, col, value) sorted by (row, col)."""
        for r in sorted(self._rows):
            row = self._rows[r]
            for c in sorted(row):
                yield r, c, row[c]

    def transpose(self) -> "SparseExactMatrix":
        out: dict[int, dict[int, object]] = {}
        for r, row in self._rows.items():
            for c, v in row.items():
                out.setdefault(c, {})[r] = v
        return SparseExactMatrix(self.ncols, self.nrows, out)

    def __eq__(self, other):
        if not isinstance(other, SparseExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    __hash__ = None

    def __add__(self, other: "SparseExactMatrix") -> "SparseExactMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatchError(
                f"cannot add {self.nrows} x {self.ncols} and {other.nrows} x {other.ncols}"
            )
        out = {r: dict(row) for r, row in self._rows.items()}
        for r, row in other._rows.items():
            dst = out.setdefault(r, {})
            _add_scaled(dst, 1, row)
            if not dst:
                del out[r]
        return SparseExactMatrix(self.nrows, self.ncols, out)

    def __sub__(self, other: "SparseExactMatrix") -> "SparseExactMatrix":
        return self + other.scale(-1)

    def scale(self, k) -> "SparseExactMatrix":
        k = _norm(k)
        if not k:
            return SparseExactMatrix(self.nrows, self.ncols, {})
        out = {
            r: {c: _norm(k * v) for c, v in row.items()}
            for r, row in self._rows.items()
        }
        return SparseExactMatrix(self.nrows, self.ncols, out)

    def __matmul__(self, other: "SparseExactMatrix") -> "SparseExactMatrix":
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"cannot multiply {self.nrows} x {self.ncols} by {other.nrows} x {other.ncols}"
            )
        orows = other._rows
        out: dict[int, dict[int, object]] = {}
        for r, arow in self._rows.items():
            acc: dict[int, object] = {}
            acc_get = acc.get
            for w, av in arow.items():
                brow = orows.get(w)
                if not brow:
                    continue
                if av == 1:
                    for c, bv in brow.items():
                        x = acc_get(c)
                        acc[c] = bv if x is None else x + bv
                else:
                    for c, bv in brow.items():
                        x = acc_get(c)
                        acc[c] = av * bv if x is None else x + av * bv
            acc = {c: _norm(v) for c, v in acc.items() if v}
            if acc:
                out[r] = acc
        return SparseExactMatrix(self.nrows, other.ncols, out)

    def __repr__(self):
        return f"SparseExactMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class SpanBasis:
    """A rational subspace in canonical reduced row echelon form.

    Rows are sparse vectors keyed by their pivot column; every pivot entry is
    1 and every row is zero at all other pivot columns, so the stored rows are
    the unique RREF basis of the subspace and two SpanBasis objects are equal
    iff they span the same subspace of the same ambient space.
    """

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim: int):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        self.ambient_dim = ambient_dim
        self._rows: dict[int, dict[int, object]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[dict[int, object]]:
        """Basis rows as sparse dicts, ordered by pivot column."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def __eq__(self, other):
        if not isinstance(other, SpanBasis):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    __hash__ = None

    def reduce(self, vec: dict[int, object]) -> dict[int, object]:
        """Fully reduce a sparse vector against the basis (input not mutated)."""
        return self.reduce_with_coefficients(vec)[0]

    def reduce_with_coefficients(self, vec):
        """Reduce and also report {pivot column: coefficient} of the rows used."""
        out = dict(vec)
        rows = self._rows
        coeffs: dict[int, object] = {}
        # rows are zero at every other pivot column, so one pass suffices and
        # the reduction order does not matter; sort to keep runs reproducible
        for col in sorted(c for c in out if c in rows):
            coeff = out.get(col, 0)
            if not coeff:
                continue
            coeffs[col] = coeff
            _add_scaled(out, -coeff, rows[col])
        return out, coeffs

    def contains_vector(self, vec: dict[int, object]) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict[int, object]) -> bool:
        """Adjoin a vector; returns True iff the dimension grew."""
        return self.inserted_row(vec) is not None

    def inserted_row(self, vec: dict[int, object]):
        """Adjoin a vector; returns the normalized stored row, or None if the
        vector was already in the span."""
        for c in vec:
            if not 0 <= c < self.ambient_dim:
                raise ValueError(f"coordinate {c} outside ambient dimension {self.ambient_dim}")
        red = self.reduce(vec)
        if not red:
            return None
        piv = min(red)
        lead = red[piv]
        if lead != 1:
            red = {c: _norm(Fraction(v) / lead) for c, v in red.items()}
        # clear the new pivot column from existing rows to stay fully reduced
        for row in self._rows.values():
            cv = row.get(piv)
            if cv:
                _add_scaled(row, -cv, red)
        self._rows[piv] = red
        return dict(red)

    def null_space(self) -> list[dict[int, object]]:
        """A basis of {x : row . x = 0 for every row}, one vector per free
        (non-pivot) column f in increasing order: x_f = 1 and x_p = -row_p[f]
        at each pivot column p, zero elsewhere, in one pass over the rows."""
        rows = self._rows
        out = {f: {f: 1} for f in range(self.ambient_dim) if f not in rows}
        for p, row in rows.items():
            for c, v in row.items():
                if c != p:
                    out[c][p] = -v
        return list(out.values())

    def __repr__(self):
        return f"SpanBasis(dim={self.dimension}, ambient={self.ambient_dim})"


class GeneratorAction(Protocol):
    """How generators act on the stored vectors of one ambient space Q^D.

    identity() is the vector of the identity element; left(g, vec) and
    right(g, vec) are the vectors of g x and x g for the element x stored as
    vec.  row_of[c] is the row block of coordinate c, and E*_s x keeps the
    coordinates of block s: a label scheme's spheres, or one block, E*_0 = I.
    """

    ambient_dim: int
    row_of: Sequence[int]

    def identity(self) -> dict[int, object]: ...

    def left(self, g, vec: dict[int, object]) -> dict[int, object]: ...

    def right(self, g, vec: dict[int, object]) -> dict[int, object]: ...


class ClosureResult(NamedTuple):
    """Outcome of algebra_closure.

    basis lies in the ambient space of the action the closure ran in.
    iterations counts the generator actions g r that were evaluated, one per
    generator g and stored basis representative r, so it equals d |gens| for
    a closure of dimension d.
    """

    basis: SpanBasis
    iterations: int


def algebra_closure(generators: Iterable, action: GeneratorAction) -> ClosureResult:
    """The algebra generated by the generators and the block projections E*_s.

    Starts from the parts E*_s I of the identity and keeps a worklist of
    basis representatives: each representative r that enters the span is
    queued once, and each block's part E*_s g r is adjoined for every
    generator g.  Each part is stored in its reduced, frozen form and never
    revised, which keeps later products sparse.  Reduction and pivot
    clearing only combine rows whose pivots share a block, so every stored
    row lies in one block, and E*_s acts on it as 1 or 0.

    Word argument: an exhausted worklist leaves a span W that holds
    I = sum_s E*_s and, by linearity, is closed under left multiplication
    by every E*_s and every generator.  So W contains every word
    h_1 (h_2 (... (h_k I))) in them, and these words span the generated
    algebra; conversely every adjoined part is a combination of such words.
    Hence W is exactly the generated algebra, certified after d |gens|
    generator actions.  The argument needs only that the action is linear
    and represents left multiplication, so it holds verbatim in any
    faithful coordinates.

    The closure needs no dimension cap: its basis is a SpanBasis of the
    action's ambient space, so its dimension, and with it the worklist and
    the d |gens| actions, is bounded by action.ambient_dim by construction.
    """
    gens = list(generators)
    row_of = action.row_of
    basis = SpanBasis(action.ambient_dim)
    reps: list[dict[int, object]] = []

    def adjoin(vec: dict[int, object]) -> None:
        parts: dict[int, dict[int, object]] = {}
        for c, v in vec.items():
            parts.setdefault(row_of[c], {})[c] = v
        reps.extend(filter(None, map(basis.inserted_row, parts.values())))

    adjoin(action.identity())

    iterations = 0
    head = 0
    while head < len(reps):
        rep = reps[head]
        head += 1
        for gm in gens:
            iterations += 1
            adjoin(action.left(gm, rep))

    return ClosureResult(basis=basis, iterations=iterations)


def centralizer_within(
    rows: Sequence[dict[int, object]],
    generators: Iterable,
    action: GeneratorAction,
) -> SpanBasis:
    """The elements of span(rows) commuting with every generator.

    rows may be any spanning set of vectors of the action's ambient space
    Q^D, neither reduced nor independent.  An element x = sum_a c_a r_a
    commutes with g exactly when every ambient coordinate of
    sum_a c_a (r_a g - g r_a) is zero.  Those equations in the c_a, for
    every generator g, are inserted into one SpanBasis, and each vector of
    its null_space gives a combination of the rows that is inserted into
    the result, a SpanBasis of Q^D: a combination that is zero, from rows
    that are dependent, adds nothing.  Nothing is asked of the span: that
    the solution is a centre is the caller's argument
    (terwilliger.center_basis).
    """
    # one linear equation in the row coefficients per (generator, ambient
    # coordinate) pair; the commutant coefficients are the null space
    system = SpanBasis(len(rows))
    for gm in generators:
        equations: dict[int, dict[int, object]] = {}
        for a, row in enumerate(rows):
            xg = action.right(gm, row)
            gx = action.left(gm, row)
            for e in xg.keys() | gx.keys():
                delta = _norm(xg.get(e, 0) - gx.get(e, 0))
                if delta:
                    equations.setdefault(e, {})[a] = delta
        for e in sorted(equations):
            system.insert(equations[e])

    result = SpanBasis(action.ambient_dim)
    for nv in system.null_space():
        combo: dict[int, object] = {}
        for a, coef in nv.items():
            _add_scaled(combo, coef, rows[a])
        result.insert(combo)
    return result
