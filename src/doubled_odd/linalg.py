"""Exact sparse matrices and rational span arithmetic.

Everything here works over the rationals: matrix entries are Python ints or
`fractions.Fraction` values, never floats.  Matrices are stored row-major as
nested dicts {row: {col: value}} with no explicit zeros, which keeps products
of the very sparse 0/1 matrices used elsewhere cheap.  Subspaces of vectorized
matrices are kept in fully reduced row echelon form, so a subspace has exactly
one representation and basis comparisons are plain equality.

algebra_closure and centralizer_within work on stored vectors of any ambient
space Q^D through a generator action: MatrixAction multiplies vectorized
n x n matrices, and orbits.OrbitCoordinates applies certified action tables
in the d-dimensional coordinates of the orbit matrices.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Protocol


class ShapeMismatchError(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class DimCapExceededError(RuntimeError):
    """An algebra closure grew past its dimension cap."""


class NotClosedError(RuntimeError):
    """A span that was assumed multiplicatively closed is not."""


def _norm(v):
    # keep arithmetic on ints whenever a Fraction is integral
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _div(a, b):
    return _norm(Fraction(a) / Fraction(b))


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
            for c, v in row.items():
                nv = _norm(dst.get(c, 0) + v)
                if nv:
                    dst[c] = nv
                else:
                    dst.pop(c, None)
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


def vectorize(m: SparseExactMatrix) -> dict[int, object]:
    """Row-major flattening of a matrix to a sparse vector {index: value}."""
    ncols = m.ncols
    vec: dict[int, object] = {}
    for r, row in m._rows.items():
        base = r * ncols
        for c, v in row.items():
            vec[base + c] = v
    return vec


def matrix_from_vector(vec: dict[int, object], nrows: int, ncols: int) -> SparseExactMatrix:
    rows: dict[int, dict[int, object]] = {}
    for idx, v in vec.items():
        if v:
            rows.setdefault(idx // ncols, {})[idx % ncols] = v
    return SparseExactMatrix(nrows, ncols, rows)


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

    @classmethod
    def from_reduced_rows(cls, ambient_dim: int, rows: Iterable[dict[int, object]]) -> "SpanBasis":
        """The span of rows that are already in reduced row echelon form.

        Each row's first nonzero coordinate must be 1 and every other row must
        be zero there; ValueError otherwise.  Checking this costs one pass over
        the rows and one lookup per pair of rows, with no elimination.
        """
        basis = cls(ambient_dim)
        for row in rows:
            if not row:
                raise ValueError("a reduced row cannot be zero")
            piv = min(row)
            if piv < 0 or max(row) >= ambient_dim:
                raise ValueError(f"row outside ambient dimension {ambient_dim}")
            if row[piv] != 1 or piv in basis._rows:
                raise ValueError(f"row with pivot {piv} is not in reduced form")
            basis._rows[piv] = dict(row)
        for piv in basis._rows:
            for other, row in basis._rows.items():
                if other != piv and piv in row:
                    raise ValueError(f"pivot column {piv} is not cleared in row {other}")
        return basis

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> dict[int, int]:
        """Map pivot column -> row index (rows ordered by pivot column)."""
        return {p: i for i, p in enumerate(sorted(self._rows))}

    @property
    def rows(self) -> list[dict[int, object]]:
        """Basis rows as sparse dicts, ordered by pivot column."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def copy(self) -> "SpanBasis":
        b = SpanBasis(self.ambient_dim)
        b._rows = {p: dict(row) for p, row in self._rows.items()}
        return b

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
            for c, v in rows[col].items():
                nv = _norm(out.get(c, 0) - coeff * v)
                if nv:
                    out[c] = nv
                else:
                    out.pop(c, None)
        return out, coeffs

    def coordinates(self, vec: dict[int, object]) -> list | None:
        """Coefficients of vec over the basis rows (pivot order), or None."""
        residue, coeffs = self.reduce_with_coefficients(vec)
        if residue:
            return None
        order = sorted(self._rows)
        return [coeffs.get(p, 0) for p in order]

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
            red = {c: _div(v, lead) for c, v in red.items()}
        # clear the new pivot column from existing rows to stay fully reduced
        for row in self._rows.values():
            cv = row.get(piv)
            if cv:
                for c, v in red.items():
                    nv = _norm(row.get(c, 0) - cv * v)
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        self._rows[piv] = red
        return dict(red)

    def __repr__(self):
        return f"SpanBasis(dim={self.dimension}, ambient={self.ambient_dim})"


def span(matrices: Iterable[SparseExactMatrix]) -> SpanBasis:
    """RREF basis of the span of the vectorized matrices."""
    mats = list(matrices)
    if not mats:
        return SpanBasis(0)
    nrows, ncols = mats[0].nrows, mats[0].ncols
    basis = SpanBasis(nrows * ncols)
    for m in mats:
        if m.nrows != nrows or m.ncols != ncols:
            raise ShapeMismatchError(
                f"span over mixed shapes: {nrows} x {ncols} vs {m.nrows} x {m.ncols}"
            )
        basis.insert(vectorize(m))
    return basis


def contains(basis: SpanBasis, m: SparseExactMatrix) -> bool:
    """Exact membership of a matrix in a span of vectorized matrices."""
    if m.nrows * m.ncols != basis.ambient_dim:
        raise ShapeMismatchError(
            f"matrix of {m.nrows * m.ncols} entries against ambient {basis.ambient_dim}"
        )
    return basis.contains_vector(vectorize(m))


class GeneratorAction(Protocol):
    """How generators act on the stored vectors of one ambient space Q^D.

    identity() is the vector of the identity element; left(g, vec) and
    right(g, vec) are the vectors of g x and x g for the element x stored as
    vec.  An action may also define product(u, v), the vector of x y.
    """

    ambient_dim: int

    def identity(self) -> dict[int, object]: ...

    def left(self, g, vec: dict[int, object]) -> dict[int, object]: ...

    def right(self, g, vec: dict[int, object]) -> dict[int, object]: ...


class MatrixAction:
    """n x n matrices acting on row-major vectorized n x n matrices by products."""

    def __init__(self, n: int):
        self.n = n
        self.ambient_dim = n * n

    @classmethod
    def of(cls, matrices: list[SparseExactMatrix]) -> "MatrixAction":
        n = matrices[0].nrows
        for mat in matrices:
            if mat.nrows != n or mat.ncols != n:
                raise ShapeMismatchError("generators must be square matrices of one size")
        return cls(n)

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


@dataclass
class ClosureResult:
    """Outcome of algebra_closure.

    basis lies in the ambient space of the action the closure ran in.
    iterations counts the generator actions g r that were evaluated, one per
    generator g and stored basis representative r, so it equals d |gens| for
    a closure of dimension d; stabilized is True when the representative
    worklist was exhausted below the dimension cap.
    """

    basis: SpanBasis
    iterations: int
    stabilized: bool


def algebra_closure(
    generators: Iterable,
    dim_cap: int | None = None,
    action: GeneratorAction | None = None,
) -> ClosureResult:
    """The algebra generated by the identity and the generators.

    action says how a generator acts on a stored vector; the default is
    MatrixAction, for square SparseExactMatrix generators of one size.
    Starts from span{I} and keeps a worklist of basis representatives: each
    representative r that enters the span is queued once, and g r is adjoined
    for every generator g.  Each adjoined vector is stored in its reduced,
    frozen form and never revised, which keeps later products sparse.

    Word argument: an exhausted worklist leaves a span W that contains I and,
    by linearity, is closed under left multiplication by every generator.  So
    W contains every word g_1 g_2 ... g_k = g_1 (g_2 (... (g_k I))) in the
    generators, and these words span the generated algebra.  Conversely every
    adjoined product is a combination of such words.  Hence W is exactly the
    generated algebra, and the exhausted worklist certifies closure after
    d |gens| generator actions.  The argument needs only that the action is
    linear and represents left multiplication, so it holds verbatim in any
    faithful coordinates.

    Raises DimCapExceededError as soon as the dimension passes dim_cap
    (default: the full ambient dimension, which can never be exceeded).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("algebra_closure needs at least one generator")
    if action is None:
        action = MatrixAction.of(gens)
    if dim_cap is None:
        dim_cap = action.ambient_dim

    basis = SpanBasis(action.ambient_dim)
    reps: list[dict[int, object]] = []

    def adjoin(vec: dict[int, object]) -> None:
        stored = basis.inserted_row(vec)
        if stored is None:
            return
        if basis.dimension > dim_cap:
            raise DimCapExceededError(
                f"closure dimension passed the cap {dim_cap}"
            )
        reps.append(stored)

    adjoin(action.identity())

    iterations = 0
    head = 0
    while head < len(reps):
        rep = reps[head]
        head += 1
        for gm in gens:
            iterations += 1
            adjoin(action.left(gm, rep))

    return ClosureResult(basis=basis, iterations=iterations, stabilized=True)


def centralizer_within(
    basis: SpanBasis,
    generators: Iterable,
    action: GeneratorAction | None = None,
) -> SpanBasis:
    """The center of the algebra spanned by basis and generated by generators.

    action says how a generator acts on a stored vector; the default is
    MatrixAction on vectorized square matrices.  The span must be closed
    under multiplication and be generated, together with the identity, by
    the given generators.  The coordinate solves raise NotClosedError when
    g x or x g leaves the span; when the action also has a product, a 3 x 3
    spot check of products of basis elements catches a span that is not
    closed under its own products.  (Spans in orbit coordinates come from
    algebra_closure, closed by its word argument.)  The generating property
    is the caller's to guarantee.  Solves (L_g - R_g) x = 0 over the basis
    coordinates for every generator g and returns the span of the solutions,
    in the ambient space of basis.

    Why the generators suffice: an x in the span that commutes with every
    generator commutes with every word in them, and by linearity with every
    combination of words, which is the whole algebra.
    """
    gens = list(generators)
    d = basis.dimension
    ambient = basis.ambient_dim
    if action is None:
        n = isqrt(ambient)
        if n * n != ambient:
            raise ValueError(f"ambient dimension {ambient} is not a perfect square")
        action = MatrixAction(n)
    elif action.ambient_dim != ambient:
        raise ShapeMismatchError(
            f"action on dimension {action.ambient_dim} against ambient {ambient}"
        )
    result = SpanBasis(ambient)
    if d == 0:
        return result

    rows = basis.rows

    product = getattr(action, "product", None)
    if product is not None:
        spot = min(d, 3)
        for i in range(spot):
            for j in range(spot):
                if not basis.contains_vector(product(rows[i], rows[j])):
                    raise NotClosedError("basis fails a multiplicative closure spot check")

    def coords_of(vec: dict[int, object]) -> dict[int, object]:
        # {pivot column: coefficient}; pivot columns sort like basis rows
        residue, coeffs = basis.reduce_with_coefficients(vec)
        if residue:
            raise NotClosedError("product of basis elements left the span")
        return coeffs

    # Candidate commutant coefficients start as all of Q^d and get filtered by
    # one linear functional per (generator, coordinate position) pair.
    null_vecs: list[dict[int, object]] = [{a: 1} for a in range(d)]
    for gm in gens:
        if not null_vecs:
            break
        equations: dict[int, dict[int, object]] = {}
        for a, row in enumerate(rows):
            xg = coords_of(action.right(gm, row))
            gx = coords_of(action.left(gm, row))
            for e in xg.keys() | gx.keys():
                delta = _norm(xg.get(e, 0) - gx.get(e, 0))
                if delta:
                    equations.setdefault(e, {})[a] = delta
        for e in sorted(equations):
            eq = equations[e]
            if not null_vecs:
                break
            vals = []
            for nv in null_vecs:
                s = 0
                for a, coef in eq.items():
                    x = nv.get(a)
                    if x:
                        s += coef * x
                vals.append(_norm(s))
            if not any(vals):
                continue
            p = next(i for i, v in enumerate(vals) if v)
            vp = vals[p]
            pivot_vec = null_vecs[p]
            survivors = []
            for i, nv in enumerate(null_vecs):
                if i == p:
                    continue
                if vals[i]:
                    factor = _div(vals[i], vp)
                    merged = dict(nv)
                    for a, v in pivot_vec.items():
                        nv2 = _norm(merged.get(a, 0) - factor * v)
                        if nv2:
                            merged[a] = nv2
                        else:
                            merged.pop(a, None)
                    survivors.append(merged)
                else:
                    survivors.append(nv)
            null_vecs = survivors

    for nv in null_vecs:
        combo: dict[int, object] = {}
        for a, coef in nv.items():
            for idx, v in rows[a].items():
                nv2 = _norm(combo.get(idx, 0) + coef * v)
                if nv2:
                    combo[idx] = nv2
                else:
                    combo.pop(idx, None)
        result.insert(combo)
    return result


def write_coord_text(m: SparseExactMatrix, path) -> None:
    """Write a matrix in the coordinate text format.

    Header line "nrows ncols nnz", then one "row col value" line per nonzero
    entry sorted by (row, col); values are exact integers or p/q rationals.
    """
    lines = [f"{m.nrows} {m.ncols} {m.nnz}"]
    for r, c, v in m.entries():
        lines.append(f"{r} {c} {v}")
    text = "\n".join(lines) + "\n"
    path = Path(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write matrix to {path}: {exc}") from exc


def read_coord_text(path) -> SparseExactMatrix:
    """Read a matrix written by write_coord_text."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read matrix from {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    try:
        nrows, ncols, nnz = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    if len(lines) - 1 != nnz:
        raise ValueError(f"{path}: header promises {nnz} entries, found {len(lines) - 1}")
    entries = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3:
            raise ValueError(f"{path}: malformed entry line {ln!r}")
        r, c = int(toks[0]), int(toks[1])
        entries.append((r, c, _norm(Fraction(toks[2]))))
    return SparseExactMatrix.from_entries(nrows, ncols, entries)
