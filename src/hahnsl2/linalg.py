"""Exact sparse linear algebra over the rationals.

Every coefficient in this package is a ``fractions.Fraction``; there is no
floating point anywhere, so results are reproducible bit for bit.  Matrix
operations return new matrices and never mutate their inputs.  An
``EchelonBasis`` is the one mutable object: ``insert`` grows it in place, so
each basis belongs to the computation that builds it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

# Sparse vector: index -> nonzero Fraction.
Vector = dict[int, Fraction]


def as_fraction(value) -> Fraction:
    """Exact conversion of an int, Fraction or str; a float is refused."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; pass an int, Fraction or str")
    return Fraction(value)


def _vec_clean(v: Vector) -> Vector:
    return {i: c for i, c in v.items() if c}


def vec_sub_scaled(v: Vector, w: Vector, c: Fraction) -> Vector:
    """Return v - c*w as a new sparse vector."""
    out = dict(v)
    for i, x in w.items():
        n = out.get(i, 0) - c * x
        if n:
            out[i] = n
        else:
            out.pop(i, None)
    return out


class SparseMatrix:
    """Immutable sparse matrix; zero entries are never stored.

    Entries are kept row-major (dict of row -> dict of col -> Fraction) so
    that matrix products only touch structurally nonzero positions.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable | dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        data: dict[int, dict[int, Fraction]] = {}
        items: Iterable
        if entries is None:
            items = ()
        elif isinstance(entries, dict):
            items = entries.items()
        else:
            items = entries
        for (r, c), val in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols} matrix")
            val = as_fraction(val)
            if val:
                data.setdefault(r, {})[c] = val
        self._data = data

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "SparseMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        m = SparseMatrix(nr, nc)
        for r, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged rows")
            d = {c: as_fraction(v) for c, v in enumerate(row) if v}
            if d:
                m._data[r] = d
        return m

    @staticmethod
    def from_columns(columns: Sequence[Vector], rows: int) -> "SparseMatrix":
        m = SparseMatrix(rows, len(columns))
        for c, col in enumerate(columns):
            for r, v in col.items():
                if not 0 <= r < rows:
                    raise IndexError("column entry out of range")
                if v:
                    m._data.setdefault(r, {})[c] = as_fraction(v)
        return m

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        m = SparseMatrix(n, n)
        for i in range(n):
            m._data[i] = {i: Fraction(1)}
        return m

    @staticmethod
    def zero(rows: int, cols: int) -> "SparseMatrix":
        return SparseMatrix(rows, cols)

    # -- access ---------------------------------------------------------------

    def get(self, r: int, c: int) -> Fraction:
        return self._data.get(r, {}).get(c, Fraction(0))

    def row(self, r: int) -> Vector:
        return dict(self._data.get(r, {}))

    def items(self) -> Iterator[tuple[int, int, Fraction]]:
        for r, d in self._data.items():
            for c, v in d.items():
                yield r, c, v

    def nnz(self) -> int:
        return sum(len(d) for d in self._data.values())

    def is_zero(self) -> bool:
        return not self._data

    def to_dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for r, c, v in self.items():
            out[r][c] = v
        return out

    # -- arithmetic -----------------------------------------------------------

    def _require_same_shape(self, other: "SparseMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._require_same_shape(other)
        out = SparseMatrix(self.rows, self.cols)
        for r, d in self._data.items():
            out._data[r] = dict(d)
        for r, d in other._data.items():
            tgt = out._data.setdefault(r, {})
            for c, v in d.items():
                n = tgt.get(c, 0) + v
                if n:
                    tgt[c] = n
                else:
                    tgt.pop(c, None)
            if not tgt:
                del out._data[r]
        return out

    def __neg__(self) -> "SparseMatrix":
        out = SparseMatrix(self.rows, self.cols)
        for r, d in self._data.items():
            out._data[r] = {c: -v for c, v in d.items()}
        return out

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def scale(self, c) -> "SparseMatrix":
        c = as_fraction(c)
        out = SparseMatrix(self.rows, self.cols)
        if c:
            for r, d in self._data.items():
                out._data[r] = {j: c * v for j, v in d.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, SparseMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        out = SparseMatrix(self.rows, other.cols)
        odata = other._data
        for r, d in self._data.items():
            acc: dict[int, Fraction] = {}
            for k, a in d.items():
                brow = odata.get(k)
                if not brow:
                    continue
                for c, b in brow.items():
                    n = acc.get(c, 0) + a * b
                    if n:
                        acc[c] = n
                    else:
                        acc.pop(c, None)
            if acc:
                out._data[r] = acc
        return out

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product M v for a sparse column vector."""
        out: dict[int, Fraction] = {}
        for r, d in self._data.items():
            s = Fraction(0)
            for c, a in d.items():
                x = v.get(c)
                if x:
                    s += a * x
            if s:
                out[r] = s
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._data == other._data

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


def vstack(top: SparseMatrix, bottom: SparseMatrix) -> SparseMatrix:
    """The rows of top followed by the rows of bottom."""
    if top.cols != bottom.cols:
        raise ValueError("column mismatch in stack")
    out = SparseMatrix(top.rows + bottom.rows, top.cols)
    for r, d in top._data.items():
        out._data[r] = dict(d)
    for r, d in bottom._data.items():
        out._data[top.rows + r] = dict(d)
    return out


class EchelonBasis:
    """Reduced row-echelon basis built by inserting one vector at a time.

    Invariants: pivot columns strictly increase, every pivot entry is 1 and
    pivot columns vanish in all other rows.  Insertion reduces the incoming
    vector first and then back-reduces the stored rows, so the basis stays
    fully reduced; this is what makes span-closure loops cheap to terminate.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: list[Vector] = []
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vector) -> Vector:
        """Fully reduce v against the basis; returns a new sparse vector."""
        out = dict(v)
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c:
                out = vec_sub_scaled(out, row, c)
        return _vec_clean(out)

    def coordinates(self, v: Vector) -> Optional[list[Fraction]]:
        """Coefficients of v in the basis rows, or None if v is outside."""
        out = dict(v)
        coeffs = []
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p, Fraction(0))
            coeffs.append(c)
            if c:
                out = vec_sub_scaled(out, row, c)
        if _vec_clean(out):
            return None
        return coeffs

    def insert(self, v: Vector) -> bool:
        """Insert v; returns True when it enlarges the span."""
        red = self.reduce(v)
        if not red:
            return False
        p = min(red)
        inv = red[p]
        row = {i: c / inv for i, c in red.items()}
        for other in self.rows:
            c = other.get(p)
            if c:
                upd = vec_sub_scaled(other, row, c)
                other.clear()
                other.update(upd)
        k = 0
        while k < len(self.pivots) and self.pivots[k] < p:
            k += 1
        self.pivots.insert(k, p)
        self.rows.insert(k, row)
        return True


def rref(m: SparseMatrix) -> tuple[EchelonBasis, int]:
    """Reduced row-echelon basis of the row space of m, with its rank."""
    basis = EchelonBasis()
    for r in range(m.rows):
        row = m.row(r)
        if row:
            basis.insert(row)
    return basis, len(basis)


def kernel_basis(m: SparseMatrix) -> list[Vector]:
    """Basis of the right kernel {v : Mv = 0}, one sparse vector per free column."""
    basis, rank = rref(m)
    pivot_set = set(basis.pivots)
    out: list[Vector] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v: Vector = {free: Fraction(1)}
        for p, row in zip(basis.pivots, basis.rows):
            c = row.get(free)
            if c:
                v[p] = -c
        out.append(v)
    assert len(out) == m.cols - rank
    return out


def eigenspace(m: SparseMatrix, lam) -> list[Vector]:
    """Basis of ker(M - lam*I); empty when lam is not an eigenvalue."""
    if m.rows != m.cols:
        raise ValueError("eigenspace requires a square matrix")
    shifted = m - SparseMatrix.identity(m.rows).scale(lam)
    return kernel_basis(shifted)


def _vectorize(m: SparseMatrix) -> Vector:
    n = m.cols
    return {r * n + c: v for r, c, v in m.items()}


def span_closure(generators: Sequence[SparseMatrix]) -> tuple[EchelonBasis, int]:
    """Linear basis of the unital matrix algebra generated by the inputs.

    Worklist closure: seed with the identity and the generators, and keep
    right-multiplying newly accepted basis elements by the generators until
    nothing new appears.  Discarding products that reduce into the current
    span is sound because right multiplication is linear.
    """
    if not generators:
        raise ValueError("span_closure needs at least one generator")
    n = generators[0].rows
    for g in generators:
        if g.rows != g.cols or g.rows != n:
            raise ValueError("span_closure generators must be square and same size")
    basis = EchelonBasis()
    work: list[SparseMatrix] = [SparseMatrix.identity(n)] + list(generators)
    head = 0
    while head < len(work):
        m = work[head]
        head += 1
        if basis.insert(_vectorize(m)):
            for g in generators:
                work.append(m.matmul(g))
    return basis, len(basis)


def solve(m: SparseMatrix, b: Vector) -> Optional[Vector]:
    """One exact solution of M x = b (free variables set to 0), or None."""
    aug_col = m.cols
    basis = EchelonBasis()
    for r in range(m.rows):
        row = m.row(r)
        bv = b.get(r)
        if bv:
            row[aug_col] = bv
        if row:
            basis.insert(row)
    x: Vector = {}
    for p, row in zip(basis.pivots, basis.rows):
        if p == aug_col:
            return None  # inconsistent system
        # rows are fully reduced; with free variables at 0 the pivot is forced
        c = row.get(aug_col)
        if c:
            x[p] = c
    residual = vec_sub_scaled(b, m.apply(x), Fraction(1))
    if _vec_clean(residual):
        return None
    return x


def invert(m: SparseMatrix) -> Optional[SparseMatrix]:
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise ValueError("invert requires a square matrix")
    n = m.rows
    basis = EchelonBasis()
    for r in range(n):
        row = m.row(r)
        row[n + r] = Fraction(1)
        basis.insert(row)
    if len(basis) != n or basis.pivots != list(range(n)):
        return None
    inv = SparseMatrix(n, n)
    for p, row in zip(basis.pivots, basis.rows):
        d = {c - n: v for c, v in row.items() if c >= n}
        if d:
            inv._data[p] = d
    return inv


def restrict_to_subspace(m: SparseMatrix, basis_columns: Sequence[Vector]) -> SparseMatrix:
    """Matrix of m on the span of basis_columns, in that basis.

    Raises ValueError when the span is not invariant under m.
    """
    # Augment each column with a marker coordinate; row operations then keep,
    # in the marker block, the combination of original columns each echelon
    # row stands for.
    span = EchelonBasis()
    n = m.rows
    for j, col in enumerate(basis_columns):
        aug = dict(col)
        aug[n + j] = Fraction(1)
        red = span.reduce(aug)
        if not any(k < n for k in red):
            raise ValueError("basis_columns are linearly dependent")
        span.insert(red)
    out = SparseMatrix(len(basis_columns), len(basis_columns))
    for j, col in enumerate(basis_columns):
        red = span.reduce(m.apply(col))
        tail = {k - n: -v for k, v in red.items() if k >= n}
        if any(k < n for k in red):
            raise ValueError("subspace is not invariant under the matrix")
        for i, v in tail.items():
            if v:
                out._data.setdefault(i, {})[j] = v
    return out

