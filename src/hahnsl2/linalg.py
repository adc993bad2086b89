"""Exact sparse linear algebra over the rationals, and the exactness boundary.

There is no floating point anywhere, so results are reproducible bit for bit.
``as_fraction`` is the one place a float is refused.  ``Combination`` is the
one exact linear-combination type: U(sl2) elements (``usl2.USL2Element``) and
free polynomials (``freealg.FreePoly``) are its subclasses, so coefficient
cleaning, sums, scalar multiples, equality, hashing, the signed text of
``render_terms`` and the bracket ``commutator`` are written once, here.

Internally a matrix and a combination are maps of integer numerators over
one positive common denominator, reduced to a canonical form, and an echelon
basis keeps primitive integer rows, so the inner loops add and multiply
plain ints: a fraction-free elimination in the style of Bareiss ("Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math. Comp.
22, 1968).  Every kernel follows the sparse support: ``matmul`` accumulates
each row of a product in a map over the columns its terms touch, so a
product of N x N matrices with k entries a row costs about N k^2 steps, not
N^2, and an echelon insert back-reduces only the rows whose pivot comes
before the new one.  ``Fraction`` lives at the API edge: constructors and scalar
multiples take ints, Fractions or strings (never floats), and every entry,
vector or coefficient handed back is a ``Fraction``, built when it is read.
An ``EchelonBasis`` takes and returns integer vectors instead, because a row
space does not change under scaling.  Matrix and combination operations
return new values and never mutate their inputs.  An ``EchelonBasis`` is the
one mutable object: ``insert`` grows it in place, so each basis belongs to
the computation that builds it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

# Sparse vector: index -> nonzero Fraction.
Vector = dict[int, Fraction]
# The same over the integers; the internal form of rows and matrix rows.
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

    The elements of U(sl2) and of the free algebra are both of this kind.  A
    subclass supplies ``_key`` (check one key and return it), ``_product``
    (multiply two combinations of its kind) and ``UNIT`` (the key of the
    unit); a kind whose elements live over a choice of generators (an
    alphabet) also overrides ``_space`` and ``_new``, so that the choice must
    match and is carried along.

    The coefficients are stored as integer numerators (``_num``, key ->
    nonzero int) over one positive common denominator (``_den``), in the
    canonical form of ``SparseMatrix``: the numerators and the denominator
    have gcd 1 and the zero combination has denominator 1, so equality and
    hashing compare storage.  The public constructor cleans keys and refuses
    floats, once; ``terms`` hands the coefficients out as Fractions, in a
    new dict on every read.  Every operation returns a new combination.
    """

    __slots__ = ("_num", "_den")

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
            raise ValueError(f"{type(self).__name__} operands over different alphabets")

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        return (type(other) is type(self) and other._space() == self._space()
                and other._den == self._den and other._num == self._num)

    def __hash__(self) -> int:
        return hash((self._space(), self._den, frozenset(self._num.items())))

    def __add__(self, other: "Combination") -> "Combination":
        self._require_same_space(other)
        da, db = self._den, other._den
        den = da if da == db else lcm(da, db)
        sa, sb = den // da, den // db
        out = dict(self._num) if sa == 1 else {key: sa * x for key, x in self._num.items()}
        for key, x in other._num.items():
            n = out.get(key, 0) + sb * x
            if n:
                out[key] = n
            else:
                del out[key]
        return self._new(out, den)

    def __neg__(self) -> "Combination":
        return self._new({key: -x for key, x in self._num.items()}, self._den)

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

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

    def __pow__(self, n: int) -> "Combination":
        if n < 0:
            raise ValueError("negative power")
        acc = self._new({self.UNIT: 1}, 1)
        for _ in range(n):
            acc = acc._product(self)
        return acc

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def commutator(a, b):
    """The bracket [a, b] = a*b - b*a of two combinations of one kind or of
    two square matrices of one size."""
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


def random_terms(rng: Random, draw_key: Callable, max_terms: int, num: int, den: int) -> dict:
    """The seeded random terms of one sample: 1..max_terms draws, each of a
    key (``draw_key``), then a numerator in [-num, num], then a denominator
    in [1, den], in that order; the coefficients of a repeated key add."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        key = draw_key()
        c = Fraction(rng.randint(-num, num), rng.randint(1, den))
        terms[key] = terms.get(key, 0) + c
    return terms


def _clear(v: Vector) -> tuple[IntVector, int]:
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


def _eliminate(w: IntVector, row: IntVector, p: int) -> IntVector:
    """a*w - b*row for the least a > 0 and integer b that make column p
    vanish; row[p] must be positive."""
    a, b = row[p], w[p]
    g = gcd(a, b)
    a //= g
    b //= g
    out = {i: a * x for i, x in w.items()} if a != 1 else dict(w)
    for i, y in row.items():
        x = out.get(i, 0) - b * y
        if x:
            out[i] = x
        else:
            del out[i]
    return out


class SparseMatrix:
    """Immutable sparse matrix; zero entries are never stored.

    Entries are integer numerators kept row-major (dict of row -> dict of
    col -> int) over one positive common denominator, so that matrix products
    only touch structurally nonzero positions and add plain ints.  The form
    is canonical: the numerators and the denominator have gcd 1, and the zero
    matrix has denominator 1, so equal matrices have equal storage.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        data = {}
        for (r, c), val in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols} matrix")
            val = as_fraction(val)
            if val:
                data[r, c] = val
        flat, den = _clear(data)
        num: dict[int, IntVector] = {}
        for (r, c), x in flat.items():
            num.setdefault(r, {})[c] = x
        self.rows = rows
        self.cols = cols
        self._num, self._den = num, den

    @classmethod
    def _new(cls, rows: int, cols: int, num: dict[int, IntVector], den: int) -> "SparseMatrix":
        """The matrix num/den; num holds no zero entry and no empty row."""
        if den != 1:  # divide out the gcd of the numerators and the denominator
            g = gcd(den, *(x for d in num.values() for x in d.values()))
            if g != 1:
                num = {r: {c: x // g for c, x in d.items()} for r, d in num.items()}
                den //= g
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._num, m._den = num, den
        return m

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_columns(columns: Sequence[Vector], rows: int) -> "SparseMatrix":
        return SparseMatrix(rows, len(columns), {(r, c): v for c, col in enumerate(columns)
                                                 for r, v in col.items()})

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix._new(n, n, {i: {i: 1} for i in range(n)}, 1)

    # -- access ---------------------------------------------------------------

    def get(self, r: int, c: int) -> Fraction:
        return Fraction(self._num.get(r, {}).get(c, 0), self._den)

    def items(self) -> Iterator[tuple[int, int, Fraction]]:
        den = self._den
        for r, d in self._num.items():
            for c, x in d.items():
                yield r, c, Fraction(x, den)

    def nnz(self) -> int:
        return sum(len(d) for d in self._num.values())

    def is_zero(self) -> bool:
        return not self._num

    # -- arithmetic -----------------------------------------------------------

    def _require_same_shape(self, other: "SparseMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._require_same_shape(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        num = {r: {c: sa * x for c, x in d.items()} for r, d in self._num.items()}
        for r, d in other._num.items():
            tgt = num.setdefault(r, {})
            for c, x in d.items():
                n = tgt.get(c, 0) + sb * x
                if n:
                    tgt[c] = n
                else:
                    del tgt[c]
            if not tgt:
                del num[r]
        return SparseMatrix._new(self.rows, self.cols, num, den)

    def __neg__(self) -> "SparseMatrix":
        num = {r: {c: -x for c, x in d.items()} for r, d in self._num.items()}
        return SparseMatrix._new(self.rows, self.cols, num, self._den)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def scale(self, c) -> "SparseMatrix":
        a, b = _ratio(c)
        if not a:
            return SparseMatrix(self.rows, self.cols)
        num = {r: {j: a * x for j, x in d.items()} for r, d in self._num.items()}
        return SparseMatrix._new(self.rows, self.cols, num, self._den * b)

    def __mul__(self, other):
        if isinstance(other, SparseMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        onum = other._num
        num: dict[int, IntVector] = {}
        for r, d in self._num.items():
            acc: IntVector = {}  # only the columns the row's terms touch
            for k, a in d.items():
                brow = onum.get(k)
                if brow:
                    for c, b in brow.items():
                        acc[c] = acc.get(c, 0) + a * b
            if not all(acc.values()):
                acc = {c: x for c, x in acc.items() if x}
            if acc:
                num[r] = acc
        return SparseMatrix._new(self.rows, other.cols, num, self._den * other._den)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product M v for a sparse column vector."""
        w, den = _clear(v)
        den *= self._den
        out: Vector = {}
        for r, d in self._num.items():
            s = sum(a * w[c] for c, a in d.items() if c in w)
            if s:
                out[r] = Fraction(s, den)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self._den) == (other.rows, other.cols, other._den)
                and self._num == other._num)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


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
    no entry in column p.  The basis may keep an inserted dict, which the
    caller must then leave unmodified.
    """

    __slots__ = ("pivots", "_rows")

    def __init__(self):
        self.pivots: list[int] = []
        self._rows: dict[int, IntVector] = {}  # pivot -> row

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, w: IntVector) -> IntVector:
        """A positive multiple of w minus integer multiples of the rows, zero
        in every pivot column: empty exactly when w lies in the span.
        Explicit zero entries of w are ignored."""
        if not all(w.values()):
            w = {i: x for i, x in w.items() if x}
        rows = self._rows
        for p in sorted(rows.keys() & w.keys()):
            w = _eliminate(w, rows[p], p)
        return w

    def insert(self, w: IntVector) -> bool:
        """Insert w; returns True when it enlarges the span."""
        w = self.reduce(w)
        if not w:
            return False
        p = min(w)
        w = _primitive(w, p)
        rows = self._rows
        k = bisect_left(self.pivots, p)
        for q in self.pivots[:k]:
            other = rows[q]
            if p in other:
                rows[q] = _primitive(_eliminate(other, w, p), q)
        self.pivots.insert(k, p)
        rows[p] = w
        return True


def rref(m: SparseMatrix) -> tuple[EchelonBasis, int]:
    """Reduced row-echelon basis of the row space of m, with its rank."""
    basis = EchelonBasis()
    for r in sorted(m._num):
        basis.insert(m._num[r])
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
        for p in basis.pivots:
            row = basis._rows[p]
            c = row.get(free)
            if c:
                v[p] = Fraction(-c, row[p])
        out.append(v)
    assert len(out) == m.cols - rank
    return out


def diagonal(m: SparseMatrix) -> Optional[list[Fraction]]:
    """The diagonal entries of m, or None unless m is square and diagonal."""
    if m.rows != m.cols or any(d.keys() != {r} for r, d in m._num.items()):
        return None
    return [m.get(i, i) for i in range(m.rows)]


def solve(columns: Sequence[dict], b: dict) -> Optional[Vector]:
    """One exact x with sum_t x[t] columns[t] = b, or None; the vectors are
    sparse, of ints or Fractions.  Column t's numerators go into one echelon
    basis with its denominator at tag + t, past every index in use, and b's
    numerators, with its denominator at a marker after those, reduce to a
    multiple of b minus a combination of the columns, read off the tags and
    checked exactly: ArithmeticError if it does not give b."""
    tag = 1 + max((i for v in (*columns, b) for i in v), default=-1)
    basis = EchelonBasis()
    for t, col in enumerate(columns):
        w, den = _clear(col)
        w[tag + t] = den
        basis.insert(w)
    w, den = _clear(b)
    marker = tag + len(columns)
    w[marker] = den
    w = basis.reduce(w)
    if min(w) < tag:
        return None  # b is not in the span
    scale = w.pop(marker)  # w is now -scale * x, at the tags
    rest = {i: scale * y for i, y in b.items()}
    for i, c in w.items():
        for j, y in columns[i - tag].items():
            rest[j] = rest.get(j, 0) + c * y
    if any(rest.values()):
        raise ArithmeticError("solve: the solution does not reproduce b")
    return {i - tag: Fraction(-c, scale) for i, c in w.items()}


def restrict_to_subspace(ms: Sequence[SparseMatrix], indices: Sequence[int]) -> list[SparseMatrix]:
    """Matrices of each of ms on the span of the coordinate vectors at
    indices, in that order: the rows and columns of each matrix at indices.

    The matrices must be square and of one size, and the indices distinct
    and in range.  Raises ValueError otherwise, and when the span is not
    invariant under some matrix: a nonzero entry in a column at indices lies
    in a row outside them.
    """
    n = ms[0].rows
    if any(m.rows != n or m.cols != n for m in ms):
        raise ValueError("restrict_to_subspace needs square matrices of one size")
    pos = {i: k for k, i in enumerate(indices)}
    if len(pos) != len(indices) or not all(0 <= i < n for i in pos):
        raise ValueError("indices must be distinct and in range")
    out = []
    for m in ms:
        num: dict[int, IntVector] = {}
        for r, d in m._num.items():
            row = {pos[c]: x for c, x in d.items() if c in pos}
            if not row:
                continue
            if r not in pos:
                raise ValueError("subspace is not invariant under the matrix")
            num[pos[r]] = row
        out.append(SparseMatrix._new(len(pos), len(pos), num, m._den))
    return out
