"""The Terwilliger algebras of the hypercube and the halved hypercube, in
orbit coordinates.

Fix a base vertex b of the D-cube, whose vertices are the bitstrings of
length D.  The adjacency A and the dual adjacency A* = diag(D - 2|y^b|)
commute with the coordinate permutations of x^b, the automorphisms that fix
b; so do E, F = A/2 -/+ [A, A*]/4 (below), H = A* and the Casimir, every
operator of the cube suite.  A matrix M that commutes with them is constant
on each orbit of vertex pairs (x, y), and the orbit of (x, y) is the triple

    i = |x^b|,  j = |y^b|,  t = |(x^b) & (y^b)|,
    with t <= min(i, j) and i + j - t <= D.

So M is a function X on the C(D+3, 3) triples, the coordinates of M in the
0/1 basis M_(i,j,t) of the centralizer algebra: the Terwilliger algebra of
the hypercube (Go, European J. Combin. 23, 2002; Schrijver, IEEE Trans.
Inf. Theory 51, 2005).  No 2^D-dimensional matrix is built.  x -> x^b is an
automorphism that takes b to the zero vertex, so nothing here depends on b.

The stencils.  (A M)(x, y) sums M over the pairs (x', y) with x' a
neighbour of x, and flipping one coordinate k of x^b moves the orbit in one
of four ways:
  - k lies in x^b and in y^b (t choices): i and t drop by 1;
  - k lies in x^b only (i - t choices): i drops by 1;
  - k lies in y^b only (j - t choices): i and t grow by 1;
  - k lies in neither (D - i - j + t choices): i grows by 1.
Hence
    (A X)(i,j,t) = t X(i-1,j,t-1) + (i-t) X(i-1,j,t)
                   + (j-t) X(i+1,j,t+1) + (D-i-j+t) X(i+1,j,t),
    (A* X)(i,j,t) = (D - 2i) X(i,j,t).
Transposition maps M_(i,j,t) to M_(j,i,t) and fixes the symmetric A and A*,
so right multiplication X -> X A is the same stencil with i and j swapped.

E and F.  A* X is X scaled by D - 2i, and each term of A X moves i by 1, so
[A, A*] is 2A on the terms whose source has i - 1 and -2A on those whose
source has i + 1.  Hence E = A/2 - [A, A*]/4 is exactly the two stencil
terms whose source has i + 1, F = A/2 + [A, A*]/4 the two whose source has
i - 1, and A = E + F: the sl2 action is read off the stencil, with no
product.

Faithfulness.  Left multiplication X -> L_Y X is the left regular
representation of the centralizer algebra, and L_Y applied to the identity
I (the function 1 on the triples (i,i,i)) is Y itself.  So a polynomial in
A and A* vanishes on the 2^D-dimensional cube module exactly when it
vanishes on the orbit functions.  ``SL2Rep`` certifies the sl2 relations of
the left multiplications by E, F, H, and P(Lam) I = 0 for a polynomial P
says that P(Lam) = 0 on the cube.

Traces.  M_(i,i,i) is the identity on the C(D, i) vertices at distance i
from b, so the trace of X on the cube module is the sum over i of
C(D, i) X(i,i,i); on the even half (b of even weight) the sum runs over
even i, and its term at i is the trace on the weight-(D - 2i) space.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import comb, prod
from typing import NamedTuple

from . import usl2
from .linalg import EchelonBasis, IntVector, SparseMatrix
from .reps import ModuleLabel, SL2Rep, evaluate


def _orbits(D: int) -> list[tuple[int, int, int]]:
    """The orbit triples (i, j, t) of the D-cube, in lexicographic order."""
    return [(i, j, t) for i in range(D + 1) for j in range(D + 1)
            for t in range(max(0, i + j - D), min(i, j) + 1)]


def _adjacency_stencil(D: int, i: int, j: int, t: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """The four terms (source triple, coefficient) of (A X)(i, j, t), one per
    kind of bit flip; a source whose coefficient is 0 may not be a triple."""
    return (((i - 1, j, t - 1), t), ((i - 1, j, t), i - t),
            ((i + 1, j, t + 1), j - t), ((i + 1, j, t), D - i - j + t))


def _poly(roots) -> list[int]:
    """The coefficients of prod (x - r) over the roots, constant term first."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _mirror(m: SparseMatrix, swap: list[int]) -> SparseMatrix:
    """The square matrix with entry (swap[c], swap[r]) for each entry (r, c) of m."""
    return m._new({(swap[c], swap[r]): x for (r, c), x in m._num.items()}, m._den)


class CubeAlgebra:
    """The Terwilliger algebra of the D-cube, as functions on the orbit
    triples: its multiplication operators, each N x N with N = C(D+3, 3),
    and the cube module's sl2 action.

    ``rep`` is the ``SL2Rep`` of the left multiplications by E, F and H =
    A*, acting on orbit functions as columns and certified at
    construction, with E and F the two halves of the adjacency stencil (see
    the module docstring), so that X -> A X is E + F.  ``right_a`` sends X
    to X A, acting on orbit functions as rows (X -> X R), the form
    ``te_dimension`` multiplies.
    """

    def __init__(self, D: int):
        if D < 2:
            raise ValueError("D must be at least 2")
        self.D = D
        self.orbits = _orbits(D)
        index = self.index = {o: k for k, o in enumerate(self.orbits)}
        shape = SparseMatrix(len(self.orbits), len(self.orbits))
        e: dict[tuple[int, int], int] = {}
        f: dict[tuple[int, int], int] = {}
        for r, (i, j, t) in enumerate(self.orbits):
            for source, c in _adjacency_stencil(D, i, j, t):
                if c:
                    (e if source[0] > i else f)[r, index[source]] = c
        e_op, f_op = shape._new(e, 1), shape._new(f, 1)
        h_op = shape._new({(k, k): D - 2 * i for k, (i, _, _) in enumerate(self.orbits) if 2 * i != D}, 1)
        self.rep = SL2Rep(e_op, f_op, h_op)
        # X A = (A X^T)^T: the left operator's entry (r, c) moves to (c^T, r^T)
        self.right_a = _mirror(e_op + f_op, [index[j, i, t] for i, j, t in self.orbits])

    def identity(self, weights) -> IntVector:
        """The orbit function of the identity on the vertices at the
        distances i from the base vertex, for i in ``weights``."""
        return {self.index[i, i, i]: 1 for i in weights}

    @cached_property
    def isotypic_characters(self) -> dict[int, dict[int, Fraction]]:
        """n -> {D - 2i: C(D, i) e_n(i,i,i) for i = 0..D}, for n = D, D - 2,
        ..., where e_n is the idempotent of the L_n-isotypic part of the cube
        module: the character of e_n, weight -> its trace on that weight
        space (see Traces in the module docstring).

        e_n is the Lagrange polynomial in 2Lam, twice the Casimir, that is 1
        at c_n (2Lam on L_n) and 0 at the other c_m, applied to I, so a
        combination of the Krylov vectors (2Lam)^k I.  First prod_n (2Lam -
        c_n) I = 0 is checked, else ArithmeticError: then 2Lam is
        diagonalizable on the cube module with eigenvalues among the c_n, each
        e_n is the projection on the c_n-eigenspace, which is the L_n-isotypic
        part since c_n determines n, and a trace of e_n is a dimension.  E, F
        and H are integer stencils, so 2Lam and its Krylov vectors (one-column
        matrices) are integral, as is c_n = n(n + 2); a denominator raises
        ArithmeticError.  Only e_n's D + 1 entries at (i, i, i) are formed:
        row i of ``diagonal`` holds the Krylov vectors' entries there, and
        its dot product with e_n's integer Lagrange numerators, over their
        denominator prod_(m != n) (c_n - c_m), gives e_n's.
        """
        D, size = self.D, len(self.orbits)
        lam, = evaluate(self.rep, usl2.casimir().scale(2))
        if lam._den != 1:
            raise ArithmeticError("twice the Casimir is not an integer matrix")
        values = {n: _count(2 * ModuleLabel(n, 0).casimir) for n in range(D, -1, -2)}
        krylov = [SparseMatrix(size, 1, {(k, 0): 1 for k in self.identity(range(D + 1))})]
        for _ in values:
            krylov.append(lam * krylov[-1])
        residual = sum((v.scale(a) for a, v in zip(_poly(values.values()), krylov)), SparseMatrix(size, 1))
        if not residual.is_zero():
            raise ArithmeticError("the Casimir values of L_D, L_(D-2), ... do not annihilate the cube module")
        diagonal = [[v._num.get((self.index[i, i, i], 0), 0) for v in krylov] for i in range(D + 1)]
        out = {}
        for n, c in values.items():
            others = [x for m, x in values.items() if m != n]
            coeffs, den = _poly(others), prod(c - x for x in others)
            out[n] = {D - 2 * i: Fraction(comb(D, i) * sum(x * y for x, y in zip(row, coeffs)), den)
                      for i, row in enumerate(diagonal)}
        return out


def _count(x: Fraction) -> int:
    """A rational count (a dimension, a multiplicity) or c_n, as an int."""
    if x.denominator != 1:
        raise ArithmeticError(f"a count came out as {x}")
    return int(x)


def standard_multiplicity(D: int, k: int) -> int:
    """Closed-form multiplicity of the weight-(D-2k) summand in the cube module."""
    return _count(Fraction(D - 2 * k + 1, D - k + 1) * comb(D, k))


class StandardDecomposition(NamedTuple):
    multiplicities: dict[int, int]  # n -> multiplicity of the (n+1)-dim module
    formula_ok: bool
    dimension_ok: bool


def decompose_standard(cube: CubeAlgebra) -> StandardDecomposition:
    """Multiplicities of the ladder summands L_n of the cube module: the
    trace of the isotypic idempotent e_n is m_n (n + 1).  Cross-checked
    against the closed form and the total dimension 2^D."""
    D = cube.D
    mults: dict[int, int] = {}
    formula_ok = True
    for k in range(D // 2 + 1):
        n = D - 2 * k
        trace = sum(cube.isotypic_characters[n].values())
        mults[n] = _count(trace / (n + 1))
        if mults[n] != standard_multiplicity(D, k):
            formula_ok = False
    total = sum(m * (n + 1) for n, m in mults.items())
    return StandardDecomposition(
        multiplicities=mults,
        formula_ok=formula_ok,
        dimension_ok=(total == 1 << D),
    )


def te_dimension(cube: CubeAlgebra) -> int:
    """Dimension of the halved-cube Terwilliger algebra T, generated by A^2
    and A* on the even half, closed block by block.

    Both preserve the parity of |x^b|, so for I_e, the identity on the even
    half, I_e w is the word w in the two operators restricted to the even
    half, and T is the span of I_e w over all words w.  An orbit function is
    its matrix, so T is a span of rows.  I_e A^2 is first checked to give a
    halved-graph adjacency (A^2 - D)/2 that is 0/1 with a zero diagonal,
    else ArithmeticError.  That check and the closure below read A^2 only in
    its rows at triples with i and j even, since right multiplication by A^2
    fixes i and moves j by 0 or 2, so only those rows are formed.

    On the even half A* has the distinct eigenvalue D - 2j on each even j,
    so the projection E*_j onto that weight space, the row of the identity
    at (j, j, j), is a polynomial in A* and lies in T (Terwilliger, "The
    subconstituent algebra of an association scheme I", J. Algebraic
    Combin. 1, 1992).  The E*_i sum to I_e, so T = (+)_i E*_i T, and E*_i T
    is the closure of the row E*_i under right multiplication by A^2 and
    by every E*_j: right multiplication by A* = sum_j (D - 2j) E*_j adds
    nothing to it, and none of these changes i.  X E*_j is the part of a
    row X on the triples with that j, so each product of an accepted row
    with A^2 is split by j and each piece is inserted in the echelon basis
    of its own block E*_i T E*_j; only accepted pieces are multiplied
    again.  The blocks live on disjoint triples, so dim T is the sum of
    their ranks.
    """
    D, n = cube.D, len(cube.orbits)
    row_shape = SparseMatrix(1, n)
    even_identity = row_shape._new({(0, c): x for c, x in cube.identity(range(0, D + 1, 2)).items()}, 1)
    right_a = cube.right_a
    even_rows = {r for r, (i, j, _) in enumerate(cube.orbits) if i % 2 == j % 2 == 0}
    a2 = right_a._new({key: x for key, x in right_a._num.items() if key[0] in even_rows}, right_a._den) * right_a
    halved = (even_identity * a2 - even_identity.scale(D)).scale(Fraction(1, 2))
    for (_, c), x in halved._num.items():
        i, j, t = cube.orbits[c]
        if x != 1 or halved._den != 1 or i == j == t:
            raise ArithmeticError("halved adjacency is not a 0/1 matrix with zero diagonal")
    blocks: defaultdict[tuple[int, int], EchelonBasis] = defaultdict(EchelonBasis)
    work: list[tuple[int, IntVector]] = []
    for i in range(0, D + 1, 2):
        row = cube.identity([i])
        blocks[i, i].insert(row)
        work.append((i, row))
    while work:
        i, row = work.pop()
        pieces: dict[int, IntVector] = {}
        for (_, c), x in (row_shape._new({(0, c): x for c, x in row.items()}, 1) * a2)._num.items():
            pieces.setdefault(cube.orbits[c][1], {})[c] = x
        for j, piece in pieces.items():
            if blocks[i, j].insert(piece):
                work.append((i, piece))
    return sum(len(basis) for basis in blocks.values())


def te_dimension_formula(D: int) -> int:
    return comb(D // 2 + 3, 3) + comb((D + 1) // 2 + 1, 3)


class HalvedDecomposition(NamedTuple):
    blocks: dict[ModuleLabel, int]  # ladder family -> multiplicity
    labels_ok: bool
    formula_ok: bool
    dimension_ok: bool
    wedderburn_dimension: int


def decompose_halved(cube: CubeAlgebra) -> HalvedDecomposition:
    """Isotypic decomposition of the even half of the cube module.

    A copy of L_n = L_(D-2k) meets the even half in the family L_n^(p), p =
    k mod 2.  The character of e_n on the even half, its isotypic character
    at the weights D - 2i with i even, must be m times the character of
    L_n^(p) (its label's H-spectrum), where m, the multiplicity, is its value
    at the top weight; else ``labels_ok`` is False.  The even half is a sum of such
    families, and within the four ladder families a U_e-irreducible is fixed
    by its top weight and its Casimir, so this check labels the block.
    Cross-checks: multiplicities match the closed form, dimensions sum to
    2^(D-1), and the sum of squared irreducible dimensions reproduces the
    Terwilliger-algebra dimension formula (the Wedderburn decomposition).
    """
    D = cube.D
    blocks: dict[ModuleLabel, int] = {}
    labels_ok = True
    formula_ok = True
    wedderburn = total = 0
    for k in range(D // 2 + 1):
        if D - 2 * k < k % 2:
            continue  # L_0^(1) does not exist
        label = ModuleLabel(D - 2 * k, k % 2)
        character = {w: x for w, x in cube.isotypic_characters[label.n].items() if (D - w) % 4 == 0}
        mult = _count(character[label.top_weight])
        blocks[label] = mult
        total += mult * label.dim
        if mult != standard_multiplicity(D, k):
            formula_ok = False
        if mult == 0:
            labels_ok = False
            continue
        if character != {w: mult * label.h_spectrum.count(w) for w in character}:
            labels_ok = False
        wedderburn += label.dim ** 2
    return HalvedDecomposition(
        blocks=blocks,
        labels_ok=labels_ok,
        formula_ok=formula_ok,
        dimension_ok=(total == 1 << (D - 1)),
        wedderburn_dimension=wedderburn,
    )
