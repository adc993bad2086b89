from fractions import Fraction
from itertools import product
from math import gcd, lcm
from random import Random

import pytest
import sympy

from hahnsl2.freealg import FreePoly, MembershipCertificate
from hahnsl2.hahn import ALPHABET
from hahnsl2.linalg import EchelonBasis, SparseMatrix, kernel_basis, kernel_vectors
from hahnsl2.reporting import PASS
from hahnsl2.usl2 import USL2Element, zero
from tests.usl2_extra import ue_basis_element


def random_terms(rng: Random, draw_key, max_terms: int, num: int, den: int) -> dict:
    """The seeded random terms of one sample: 1..max_terms draws, each of a
    key (``draw_key``), then a numerator in [-num, num], then a denominator
    in [1, den], in that order; the coefficients of a repeated key add."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        key = draw_key()
        c = Fraction(rng.randint(-num, num), rng.randint(1, den))
        terms[key] = terms.get(key, 0) + c
    return terms


def random_usl2_element(rng: Random, max_terms: int = 4, max_exp: int = 3) -> USL2Element:
    """A seeded random element with 1..max_terms monomials of bounded exponents."""
    draw = lambda: (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
    return USL2Element(random_terms(rng, draw, max_terms, 5, 4))


def random_free_poly(rng: Random) -> FreePoly:
    """A seeded random polynomial over {A, B} with 1..4 words of length <= 4."""
    draw = lambda: "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 4)))
    return FreePoly(ALPHABET, random_terms(rng, draw, 4, 4, 3))


@pytest.fixture
def rand_usl2():
    return random_usl2_element


@pytest.fixture
def rand_free_poly():
    return random_free_poly


def all_pass(items) -> bool:
    return all(item.status == PASS for item in items)


def dense(m) -> list[list[Fraction]]:
    """The entries of a SparseMatrix as a list of rows."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for r, c, v in m.items():
        out[r][c] = v
    return out


def from_dense(rows) -> SparseMatrix:
    """The matrix with the given list of rows, each a list of int, Fraction
    or str entries of one length."""
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0,
                        {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)})


def assert_canonical(x) -> None:
    """The storage of a Combination is canonical: nonzero integer numerators
    and a positive denominator with gcd 1, so zero is stored over 1."""
    num, den = x._num, x._den
    assert type(den) is int and den > 0, den
    assert all(type(c) is int and c for c in num.values()), num
    assert gcd(den, *num.values()) == 1, (num, den)


def assert_echelon_invariants(basis) -> None:
    """The integer contract of an EchelonBasis: pivots strictly increase and
    key the stored rows; each row is primitive, starts at its pivot with a
    positive entry, and every other row is zero in its pivot column."""
    assert all(p < q for p, q in zip(basis.pivots, basis.pivots[1:]))
    assert sorted(basis._rows) == basis.pivots
    for p, row in basis._rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
        assert all(p not in other for q, other in basis._rows.items() if q != p)


def ue_basis_recompose(coords):
    """The element whose even-subalgebra basis coordinates are ``coords``."""
    out = zero()
    for key, c in coords.items():
        out = out + ue_basis_element(*key).scale(c)
    return out


def eigenspace(m, lam) -> SparseMatrix:
    """Oracle: a basis of ker(M - lam*I), as the columns of one matrix, which
    has none when lam is not an eigenvalue."""
    return kernel_basis(m - SparseMatrix.identity(m.rows).scale(lam))


def column(m: SparseMatrix, k: int) -> SparseMatrix:
    """Column k of m, as a one-column matrix."""
    return SparseMatrix(m.rows, 1, {(r, 0): v for r, c, v in m.items() if c == k})


def solve_columns(a: SparseMatrix, b: SparseMatrix):
    """Oracle: X with a * X = b, or None when some column of b lies outside
    the column span of a.  Column k of X is read off the kernel vector x of
    [columns of a | column k of b] (``linalg.kernel_vectors``) at that last
    column, when it is free: x[t] a_t sum to -x[last] b_k.  The vectors
    are integer maps, so the entries of a and b are put over one common
    denominator, a scaling that leaves X unchanged."""
    den = lcm(a._den, b._den)

    def columns(m: SparseMatrix) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [{} for _ in range(m.cols)]
        for r, c, v in m.items():
            out[c][r] = int(v * den)
        return out

    left, last = columns(a), a.cols
    entries = {}
    for k, target in enumerate(columns(b)):
        x = kernel_vectors([*left, target]).get(last)
        if x is None:
            return None
        scale = x.pop(last)
        entries.update({(t, k): Fraction(-y, scale) for t, y in x.items()})
    return SparseMatrix(a.cols, b.cols, entries)


def rref(m: SparseMatrix) -> EchelonBasis:
    """Reduced row-echelon basis of the row space of m, its rows inserted
    in order; its length is the rank."""
    basis = EchelonBasis()
    rows = m._by_row()
    for r in sorted(rows):
        basis.insert(rows[r])
    return basis


def reference_kernel(m: SparseMatrix) -> SparseMatrix:
    """Oracle: the kernel of m by back-substitution in ``rref(m)``, as one
    matrix K with m K = 0 whose column k is 1 at the k-th non-pivot column
    of m and 0 at the other non-pivot columns: the form of
    ``linalg.kernel_basis``."""
    basis = rref(m)
    free = [c for c in range(m.cols) if c not in basis._rows]
    entries: dict[tuple[int, int], Fraction] = {}
    for k, f in enumerate(free):
        entries[f, k] = Fraction(1)
        for p, row in basis._rows.items():
            c = row.get(f)
            if c:
                entries[p, k] = Fraction(-c, row[p])
    return SparseMatrix(m.cols, len(free), entries)


def invert(m):
    """Oracle: the exact inverse of a square matrix through sympy, or None
    when it is singular."""
    sm = sympy.Matrix(dense(m))
    if sm.det() == 0:
        return None
    return from_dense([[Fraction(int(x.p), int(x.q)) for x in row] for row in sm.inv().tolist()])


def vstack(top, bottom):
    """The rows of top followed by the rows of bottom."""
    if top.cols != bottom.cols:
        raise ValueError("column mismatch in stack")
    entries = {(r, c): v for r, c, v in top.items()}
    entries.update({(top.rows + r, c): v for r, c, v in bottom.items()})
    return SparseMatrix(top.rows + bottom.rows, top.cols, entries)


def span_closure(start, generators) -> tuple:
    """Oracle: a linear basis (an ``EchelonBasis``) of the span of start·w
    over all words w in the generators, the empty word included, and its
    dimension.  With start the identity this is the unital matrix algebra
    the generators generate.

    Worklist closure: keep right-multiplying newly accepted matrices by the
    generators until nothing new appears.  Discarding products that reduce
    into the current span is sound because right multiplication is linear.
    A matrix and its numerators span the same line, so the basis takes the
    numerators, flattened row-major.
    """
    if not generators:
        raise ValueError("span_closure needs at least one generator")
    n = generators[0].rows
    for g in generators:
        if g.rows != g.cols or g.rows != n:
            raise ValueError("span_closure generators must be square and same size")
    if start.cols != n:
        raise ValueError("span_closure start must have as many columns as the generators")
    basis = EchelonBasis()
    work = [start]
    head = 0
    while head < len(work):
        m = work[head]
        head += 1
        if basis.insert({r * n + c: x for (r, c), x in m._num.items()}):
            for g in generators:
                work.append(m.matmul(g))
    return basis, len(basis)


def reference_ideal_membership(target, generators, degree_bound):
    """Oracle: the ideal search over string words with every generator
    enumerated, dependent ones too.  Candidates u*g*v come by total degree,
    then generator index, then length-lexicographically in (u, v); a word's
    column is its letters as base-b digits x, at top - b^(len+1) + x.  The
    certificate is read off the kernel vector of [kept candidates | target],
    and None means the bound ran out."""
    if target.is_zero():
        return MembershipCertificate(target.alphabet, tuple(generators), ())
    alphabet = target.alphabet
    base = max(len(alphabet), 2)
    digit = {s: i for i, s in enumerate(alphabet)}
    top = base ** (degree_bound + 1)

    def column(w):
        x = 0
        for s in w:
            x = x * base + digit[s]
        return top - base ** (len(w) + 1) + x

    def words(length):
        return ["".join(t) for t in product(alphabet, repeat=length)]

    basis, accepted, columns = EchelonBasis(), [], []
    residual = goal = {column(w): x for w, x in target._num.items()}
    degrees = [g.degree() for g in generators]
    for total in range(min(degrees), degree_bound + 1):
        for gi, g in enumerate(generators):
            side = total - degrees[gi]
            for lu in range(side + 1):
                for u in words(lu):
                    for v in words(side - lu):
                        vec = {column(u + w + v): x for w, x in g._num.items()}
                        if not basis.insert(vec):
                            continue
                        accepted.append((u, gi, v))
                        columns.append(vec)
                        residual = basis.reduce(residual)
                        if residual:
                            continue
                        x = kernel_vectors([*columns, goal])[len(columns)]
                        scale = x.pop(len(columns)) * target._den
                        triples = tuple((Fraction(-x[t] * generators[accepted[t][1]]._den, scale),
                                         *accepted[t]) for t in sorted(x))
                        return MembershipCertificate(alphabet, tuple(generators), triples)
    return None
