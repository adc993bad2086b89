"""Exact sparse linear algebra over the rationals, and the exactness boundary.

There is no floating point anywhere, so results are reproducible bit for bit.
``as_fraction`` is the one place a float is refused.  ``Combination`` is the
one exact linear-combination type: U(sl2) elements (``usl2.USL2Element``),
free polynomials (``freealg.FreePoly``) and matrices (``SparseMatrix``, a
combination of the matrix units E_rc) are its subclasses, so coefficient
cleaning, the canonical form, sums, scalar multiples, equality, hashing and
the bracket ``commutator`` are written once, here, as is the signed text of
``render_terms``.

Internally a combination is a map of integer numerators over one positive
common denominator, reduced to a canonical form, and an echelon basis keeps
primitive integer rows, so the inner loops add and multiply
plain ints: a fraction-free elimination in the style of Bareiss ("Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math. Comp.
22, 1968).  Every kernel follows the sparse support: ``matmul`` accumulates
a product in one map over the entries its terms touch, so a product of N x N
matrices with k entries a row costs about N k^2 steps, not N^2, and an
echelon insert back-reduces only the rows whose pivot comes before the new
one.  A vector is a one-column matrix, so ``matmul`` is also the one
matrix-vector product.  ``Fraction`` lives at the API edge:
constructors and scalar multiples take ints, Fractions or strings (never
floats), and every entry or coefficient handed back is a ``Fraction``,
built when it is read.  An ``EchelonBasis`` takes and returns integer
vectors instead, because a row space does not change under scaling, and
``kernel_vectors``, the one elimination for kernels and linear
dependencies, works in one on integer columns too.  Combination
operations return new values and never mutate their inputs; the row view a
matrix builds for ``matmul`` on first use is no part of its value.  An
``EchelonBasis`` is the one mutable object: ``insert`` grows it in place, so
each basis belongs to the computation that builds it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

# Sparse integer vector, index -> int: the internal form of rows and matrix rows.
IntVector = dict[int, int]


def as_fraction(value) -> Fraction:
    """Exact conversion of an int, Fraction or str; a float is refused."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; pass an int, Fraction or str")
    return Fraction(value)


def _ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator of an exact scalar, as
    ``as_fraction`` reads it; an int or a Fraction costs no new Fraction."""
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    value = as_fraction(value)
    return value.numerator, value.denominator


class Combination:
    """A finite exact linear combination: a map from key to nonzero rational.

    The elements of U(sl2) and of the free algebra are of this kind, and so
    is a matrix, a combination of matrix units keyed by (row, col).  A
    subclass supplies ``_key`` (check one key and return it) and
    ``_product`` (multiply two combinations of its kind); a matrix, whose
    shapes need only chain in a product, overrides ``__mul__`` instead.  A
    kind whose elements live over a choice of generators (an alphabet) or a
    shape also overrides ``_space`` and ``_new``, so that the choice must
    match and is carried along, and names it in ``_SPACE``.

    The coefficients are stored as integer numerators (``_num``, key ->
    nonzero int) over one positive common denominator (``_den``), in a
    canonical form: the numerators and the denominator have gcd 1 and the
    zero combination has denominator 1, so equality and hashing compare
    storage.  The public constructor cleans keys and refuses floats, once;
    ``terms`` hands the coefficients out as Fractions, in a new dict on
    every read.  Every operation returns a new combination.
    """

    __slots__ = ("_num", "_den")
    _SPACE = "alphabets"  # what _space returns, named in a mismatch error

    def __init__(self, terms: dict | None = None):
        cleaned: dict = {}
        exact = True  # every coefficient an int: the numerators over 1
        if terms:
            for key, c in terms.items():
                key = self._key(key)
                if type(c) is not int:
                    c = as_fraction(c)
                    exact = False
                if c:
                    cleaned[key] = c
        self._num, self._den = (cleaned, 1) if exact else _clear(cleaned)

    @property
    def terms(self) -> dict:
        """The coefficients as nonzero Fractions, in a new dict."""
        den = self._den
        return {key: Fraction(x, den) for key, x in self._num.items()}

    def _space(self):
        """What two combinations must share to be added, compared or multiplied."""
        return None

    def _new(self, num: dict, den: int) -> "Combination":
        """The combination num/den of the same kind; num holds no zero and
        den is positive.  The one constructor of every operation's result."""
        if den != 1:  # divide out the gcd of the numerators and the denominator
            g = gcd(den, *num.values())
            if g != 1:
                num = {key: x // g for key, x in num.items()}
                den //= g
        out = object.__new__(type(self))
        out._num, out._den = num, den
        return out

    def _require_same_space(self, other: "Combination") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other._space() != self._space():
            raise ValueError(f"{type(self).__name__} operands over different {self._SPACE}: "
                             f"{self._space()} and {other._space()}")

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        return (type(other) is type(self) and other._space() == self._space()
                and other._den == self._den and other._num == self._num)

    def __hash__(self) -> int:
        return hash((self._space(), self._den, frozenset(self._num.items())))

    def _combine(self, other: "Combination", sign: int) -> "Combination":
        """self + sign * other, for sign 1 or -1, in one pass over other."""
        self._require_same_space(other)
        da, db = self._den, other._den
        den = da if da == db else lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        out = dict(self._num) if sa == 1 else {key: sa * x for key, x in self._num.items()}
        for key, x in other._num.items():
            n = out.get(key, 0) + sb * x
            if n:
                out[key] = n
            else:
                del out[key]
        return self._new(out, den)

    def __add__(self, other: "Combination") -> "Combination":
        return self._combine(other, 1)

    def __neg__(self) -> "Combination":
        return self._new({key: -x for key, x in self._num.items()}, self._den)

    def __sub__(self, other: "Combination") -> "Combination":
        return self._combine(other, -1)

    def scale(self, c) -> "Combination":
        a, b = _ratio(c)
        if not a:
            return self._new({}, 1)
        return self._new({key: a * x for key, x in self._num.items()}, self._den * b)

    def __mul__(self, other):
        if isinstance(other, Combination):
            self._require_same_space(other)
            return self._product(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def commutator(a, b):
    """The bracket [a, b] = a*b - b*a of two combinations of one kind; two
    matrices must be square and of one size."""
    return a * b - b * a


def render_terms(pairs: Iterable[tuple[str, Fraction]]) -> str:
    """Signed text of ordered (name, coefficient) pairs: "c*name", with the
    coefficient 1 left out and the unit, named "1", shown as its coefficient."""
    text = ""
    for name, c in pairs:
        size = abs(c)
        body = str(size) if name == "1" else name if size == 1 else f"{size}*{name}"
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text or "0"


def _clear(v: dict) -> tuple[dict, int]:
    """Integer numerators of v over the least common denominator of its
    entries, zeros dropped."""
    den = lcm(*{x.denominator for x in v.values()})
    return {i: x.numerator * (den // x.denominator) for i, x in v.items() if x}, den


def _primitive(w: IntVector, p: int) -> IntVector:
    """w divided by the gcd of its entries, signed so that w[p] > 0."""
    g = gcd(*w.values())
    if w[p] < 0:
        g = -g
    return w if g == 1 else {i: x // g for i, x in w.items()}


def _eliminate(w: IntVector, row: IntVector, p: int) -> None:
    """Set w in place to a*w - b*row for the least a > 0 and integer b that
    make column p vanish; row[p] must be positive."""
    a, b = row[p], w[p]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        w.update({i: a * x for i, x in w.items()})
    for i, y in row.items():
        x = w.get(i, 0) - b * y
        if x:
            w[i] = x
        else:
            del w[i]


class SparseMatrix(Combination):
    """Immutable sparse matrix: a ``Combination`` of the matrix units E_rc,
    keyed by (row, col) within its shape (rows, cols), which it carries the
    way a free polynomial carries its alphabet.  So zero entries are never
    stored, and the canonical form, sums, scalar multiples, equality and
    hashing are the combination's own.

    ``matmul`` is the one product, and a vector is a one-column matrix, so
    it is also the one matrix-vector product.  It pairs each entry (r, k)
    of the left factor with row k of the right one, read from the
    numerators grouped by row ({row: {col: int}}): a view built on first
    use and no part of equality or hashing.  So a product touches only
    structurally nonzero positions and adds plain ints.
    """

    __slots__ = ("rows", "cols", "_row_view")
    _SPACE = "shapes"

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if type(rows) is not int or type(cols) is not int:
            raise TypeError(f"non-integer matrix dimensions {rows}x{cols}")
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows, self.cols, self._row_view = rows, cols, None
        super().__init__(entries)

    def _key(self, key: tuple[int, int]) -> tuple[int, int]:
        r, c = key
        if type(r) is not int or type(c) is not int:
            raise TypeError(f"non-integer entry index ({r},{c})")
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols} matrix")
        return r, c

    def _space(self) -> tuple[int, int]:
        return self.rows, self.cols

    def _new(self, num: dict[tuple[int, int], int], den: int) -> "SparseMatrix":
        out = super()._new(num, den)
        out.rows, out.cols, out._row_view = self.rows, self.cols, None
        return out

    def _by_row(self) -> dict[int, IntVector]:
        """The numerators as {row: {col: int}}, built on first use."""
        view = self._row_view
        if view is None:
            view = self._row_view = {}
            for (r, c), x in self._num.items():
                view.setdefault(r, {})[c] = x
        return view

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n)._new({(i, i): 1 for i in range(n)}, 1)

    # -- access ---------------------------------------------------------------

    def get(self, r: int, c: int) -> Fraction:
        return Fraction(self._num.get((r, c), 0), self._den)

    def items(self) -> Iterator[tuple[int, int, Fraction]]:
        den = self._den
        for (r, c), x in self._num.items():
            yield r, c, Fraction(x, den)

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SparseMatrix):
            return self.matmul(other)
        return self.scale(other)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        right = other._by_row()
        num: dict[tuple[int, int], int] = {}  # over the entries the terms touch
        for (r, k), a in self._num.items():
            brow = right.get(k)
            if brow:
                for c, b in brow.items():
                    key = r, c
                    num[key] = num.get(key, 0) + a * b
        if 0 in num.values():
            num = {key: x for key, x in num.items() if x}
        out = self._new(num, self._den * other._den)
        out.cols = other.cols  # the product has self's rows and other's columns
        return out

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self._num)})"


class EchelonBasis:
    """Reduced row-echelon basis built by inserting one vector at a time.

    A row space does not change under scaling, so vectors in and out are
    ``IntVector``s: rational entries are passed as their numerators over a
    common denominator.  ``gcd`` raises TypeError on a Fraction or a float.
    Invariants: pivot columns strictly increase, and pivot columns vanish in
    all other rows.  Rows are stored as primitive integer vectors (gcd 1)
    with a positive pivot entry, which fixes each of them uniquely.
    Insertion reduces the incoming vector first and then back-reduces the
    stored rows, so the basis stays fully reduced.  That is what makes
    reduction cheap: eliminating one pivot brings no other pivot column into
    a vector, so a reduction visits only the pivots in the vector's own
    support, looked up in the map from pivot to row, not every row.
    Back-reduction visits only the rows whose pivot comes before the new
    pivot p: a row with a later pivot is zero up to that pivot, so it has
    no entry in column p.  The basis owns its rows: it eliminates in place
    only in copies it made, and never keeps or changes a caller's dict.
    """

    __slots__ = ("pivots", "_rows")

    def __init__(self):
        self.pivots: list[int] = []
        self._rows: dict[int, IntVector] = {}  # pivot -> row

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, w: IntVector) -> IntVector:
        """A new dict, a positive multiple of w minus integer multiples of the
        rows, zero in every pivot column: empty exactly when w lies in the
        span.  Explicit zero entries of w are ignored.  w must be an integer
        vector, which is not checked here: a Fraction entry raises TypeError
        where it meets a pivot and is handed back elsewhere, so a caller
        with outside vectors refuses them first, as ``kernel_vectors`` does."""
        w = dict(w) if all(w.values()) else {i: x for i, x in w.items() if x}
        rows = self._rows
        for p in sorted(rows.keys() & w.keys()):
            _eliminate(w, rows[p], p)
        return w

    def insert(self, w: IntVector) -> bool:
        """Insert w; returns True when it enlarges the span."""
        w = self.reduce(w)
        if not w:
            return False
        self._add(w)
        return True

    def _add(self, w: IntVector) -> None:
        """Add a nonzero w that ``reduce`` returned: make it primitive at its
        pivot, back-reduce the rows with earlier pivots and store it."""
        p = min(w)
        w = _primitive(w, p)
        rows = self._rows
        k = bisect_left(self.pivots, p)
        for q in self.pivots[:k]:
            other = rows[q]
            if p in other:
                _eliminate(other, w, p)
                rows[q] = _primitive(other, q)
        self.pivots.insert(k, p)
        rows[p] = w


def kernel_vectors(columns: Sequence[IntVector]) -> dict[int, IntVector]:
    """The linear dependencies among integer columns, one for each column
    that depends on earlier ones: {t: x} with sum_s x[s] columns[s] = 0, x
    primitive, positive at t and 0 at the other such (free) columns t'.

    Column t goes into one echelon basis with a 1 at a tag of its own, tag +
    t, past every index the columns use, so the tags of a reduced vector
    record which combination of columns it is.  A column whose part below
    the tags reduces to zero is free and is not inserted; its tagged part is
    its kernel vector.  The free columns are the greedy left-to-right ones,
    the non-pivot columns of the reduced row-echelon form of the matrix with
    these columns, and their vectors span the kernel.  An entry that is not
    an int raises TypeError.
    """
    if any(type(x) is not int for col in columns for x in col.values()):
        raise TypeError("kernel_vectors: the columns must be integer vectors")
    tag = 1 + max((i for col in columns for i in col), default=-1)
    basis = EchelonBasis()
    out: dict[int, IntVector] = {}
    for t, col in enumerate(columns):
        w = basis.reduce({**col, tag + t: 1})
        if min(w) < tag:
            basis._add(w)
        else:
            out[t] = {i - tag: x for i, x in _primitive(w, tag + t).items()}
    return out


def kernel_basis(m: SparseMatrix) -> SparseMatrix:
    """The right kernel {v : m v = 0} as the columns of one m.cols x
    (m.cols - rank) matrix K, with m K = 0: column k is the k-th vector of
    ``kernel_vectors`` over the columns of m, scaled to 1 at its free
    column, so it is 1 at the k-th free column and 0 at the other ones."""
    columns: list[IntVector] = [{} for _ in range(m.cols)]
    for (r, c), x in m._num.items():
        columns[c][r] = x
    kernel = kernel_vectors(columns)
    entries: dict[tuple[int, int], Fraction] = {}
    for k, (f, x) in enumerate(kernel.items()):
        entries.update({(t, k): Fraction(y, x[f]) for t, y in x.items()})
    return SparseMatrix(m.cols, len(kernel), entries)


def diagonal(m: SparseMatrix) -> Optional[list[Fraction]]:
    """The diagonal entries of m, or None unless m is square and diagonal."""
    if m.rows != m.cols or any(r != c for r, c in m._num):
        return None
    return [m.get(i, i) for i in range(m.rows)]


def square_size(ms: Sequence[SparseMatrix]) -> int:
    """The size d of one or more matrices that are all d x d, else ValueError."""
    d = ms[0].rows if ms else -1
    if d < 0 or any(m.rows != d or m.cols != d for m in ms):
        raise ValueError("matrices must be square and of one size")
    return d


def restrict_to_subspace(ms: Sequence[SparseMatrix], indices: Sequence[int]) -> list[SparseMatrix]:
    """Matrices of each of ms on the span of the coordinate vectors at
    indices, in that order: the rows and columns of each matrix at indices.

    The matrices must be square and of one size (``square_size``), and the
    indices distinct and in range.  Raises ValueError otherwise, and when
    the span is not invariant under some matrix: a nonzero entry in a column
    at indices lies in a row outside them.
    """
    n = square_size(ms)
    pos = {i: k for k, i in enumerate(indices)}
    if len(pos) != len(indices) or not all(0 <= i < n for i in pos):
        raise ValueError("indices must be distinct and in range")
    shape = SparseMatrix(len(pos), len(pos))
    out = []
    for m in ms:
        num: dict[tuple[int, int], int] = {}
        for (r, c), x in m._num.items():
            if c in pos:
                if r not in pos:
                    raise ValueError("subspace is not invariant under the matrix")
                num[pos[r], pos[c]] = x
        out.append(shape._new(num, m._den))
    return out
