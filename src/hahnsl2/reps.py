"""Finite-dimensional modules: the ladder family, its even/odd halves,
irreducibility testing, and the classification of the even-subalgebra
irreducibles by two isomorphism invariants, top weight and Casimir scalar.

Every module is given in a weight basis, where H is diagonal: the ladder
basis of L_n and its halves, or the orbit functions of the cube's
Terwilliger algebra (``terwilliger.CubeAlgebra``), on which H = A* acts
diagonally.  Weight spaces are then sets of coordinates, and
irreducibility is read off which coordinates the operators connect.

``UeRep`` checks the even presentation (``usl2.even_relations``) when it is
built, once per value: a restricted half and the equal built half share one
check.  ``ModuleLabel`` is the one record of a ladder family L_n^(p): its
dimension, top weight, H-spectrum, Casimir scalar and built module.  A
module's size is read off its operators.
``evaluate`` sends PBW elements through one ``substitute`` memo.
``verify_ladder_modules`` is the ``repr`` suite: it builds each ladder
module once, evaluates the even generators (``usl2.EVEN_GENERATORS``) and
the images of A and B on it in one call, and checks its Casimir, its two
halves and its pullback along the natural map on that one module.

All matrices act on column vectors, and a vector is a one-column
``SparseMatrix``, so a matrix acts on it by the one matrix product.  Basis
vectors are indexed 0..dim-1 in decreasing H-eigenvalue order, matching the
ladder conventions
E v_i = (n-i+1) v_{i-1}, F v_i = (i+1) v_{i+1}, H v_i = (n-2i) v_i.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import usl2
from .freealg import FreePoly, substitute
from .hahn import natural_images
from .linalg import SparseMatrix, commutator, diagonal, kernel_basis, restrict_to_subspace, square_size
from .reporting import CheckItem, check


# A named tuple's _make and _replace skip __new__; the records that check
# their fields when built route both through it.
_make_checked = classmethod(lambda cls, fields: cls(*fields))


class _SL2Fields(NamedTuple):
    E: SparseMatrix
    F: SparseMatrix
    H: SparseMatrix


class SL2Rep(_SL2Fields):
    """Matrices for E, F, H satisfying the defining relations exactly
    (checked when built)."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, E: SparseMatrix, F: SparseMatrix, H: SparseMatrix) -> SL2Rep:
        self = super().__new__(cls, E, F, H)
        square_size(self)
        if commutator(H, E) != E.scale(2):
            raise ValueError("[H,E] = 2E fails")
        if commutator(H, F) != F.scale(-2):
            raise ValueError("[H,F] = -2F fails")
        if commutator(E, F) != H:
            raise ValueError("[E,F] = H fails")
        return self

    @property
    def dim(self) -> int:
        return self.H.rows


@cache
def _check_even_presentation(ops: tuple[SparseMatrix, ...]) -> None:
    """Raise ValueError naming the first even relation that the four
    matrices fail.  Cached on the value, so an equal value is checked once
    per process; a value that fails raises and so is never recorded."""
    residuals = usl2.even_relations(*ops, SparseMatrix.identity(square_size(ops)))
    for name, residual in zip(usl2.EVEN_RELATIONS, residuals):
        if not residual.is_zero():
            raise ValueError(f"even relation fails: {name}")


class _UeFields(NamedTuple):
    E2: SparseMatrix
    F2: SparseMatrix
    Lam: SparseMatrix
    H: SparseMatrix


class UeRep(_UeFields):
    """Matrices for E^2, F^2, the Casimir and H satisfying the even
    presentation exactly (checked when built)."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, E2: SparseMatrix, F2: SparseMatrix, Lam: SparseMatrix, H: SparseMatrix) -> UeRep:
        self = super().__new__(cls, E2, F2, Lam, H)
        _check_even_presentation(tuple(self))
        return self

    @property
    def dim(self) -> int:
        return self.H.rows


class _LabelFields(NamedTuple):
    n: int
    parity: int


class ModuleLabel(_LabelFields):
    """The ladder family L_n^(parity): the vectors v_m of L_n with m =
    parity mod 2 under the even subalgebra.  Every fact of a family is read
    off its label."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, n: int, parity: int) -> ModuleLabel:
        if parity not in (0, 1) or n < parity:
            raise ValueError(f"no ladder family with n = {n}, parity = {parity}: "
                             "need parity 0 or 1 and n >= parity")
        return super().__new__(cls, n, parity)

    @property
    def dim(self) -> int:
        return (self.n - self.parity) // 2 + 1

    @property
    def top_weight(self) -> int:
        """The H-eigenvalue of the top vector u_0 = v_parity."""
        return self.n - 2 * self.parity

    @property
    def h_spectrum(self) -> tuple[int, ...]:
        """The H-eigenvalues theta, theta - 4, ..., theta - 4(dim - 1) of the
        ladder basis u_0, u_1, ..., with theta the top weight."""
        return tuple(range(self.top_weight, self.top_weight - 4 * self.dim, -4))

    @property
    def casimir(self) -> Fraction:
        """The scalar by which the Casimir acts."""
        return Fraction(self.n * (self.n + 2), 2)

    @cache
    def build(self) -> UeRep:
        """The family in its ladder basis u_i = v_m, m = 2i + parity, where
        E^2 v_m = (n-m+1)(n-m+2) v_{m-2}, F^2 v_m = (m+1)(m+2) v_{m+2} and
        H v_m = (n-2m) v_m, the H-spectrum.  Cached: each label is built and
        checked once."""
        n, dim = self.n, self.dim
        m = [2 * i + self.parity for i in range(dim)]
        e2 = SparseMatrix(dim, dim, {(i - 1, i): (n - m[i] + 1) * (n - m[i] + 2) for i in range(1, dim)})
        f2 = SparseMatrix(dim, dim, {(i + 1, i): (m[i] + 1) * (m[i] + 2) for i in range(dim - 1)})
        h = SparseMatrix(dim, dim, {(i, i): w for i, w in enumerate(self.h_spectrum)})
        lam = SparseMatrix.identity(dim).scale(self.casimir)
        return UeRep(E2=e2, F2=f2, Lam=lam, H=h)

    def __str__(self) -> str:
        return f"L_{self.n}^({self.parity})"


def build_L(n: int) -> SL2Rep:
    """The (n+1)-dimensional irreducible module in the ladder basis."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    dim = n + 1
    e = SparseMatrix(dim, dim, {(i - 1, i): n - i + 1 for i in range(1, dim)})
    f = SparseMatrix(dim, dim, {(i + 1, i): i + 1 for i in range(dim - 1)})
    h = SparseMatrix(dim, dim, {(i, i): n - 2 * i for i in range(dim)})
    return SL2Rep(E=e, F=f, H=h)


def evaluate(rep: SL2Rep, *elements: usl2.USL2Element) -> list[SparseMatrix]:
    """Homomorphic evaluation of PBW elements on a module, one matrix each:
    the monomial E^i F^j H^k is the word "E"*i + "F"*j + "H"*k, sent through
    ``substitute`` with E, F, H mapped to their matrices.  The elements share
    one word memo, so a word common to several costs its products once."""
    words, memo = FreePoly("EFH"), {}
    images, one = {"E": rep.E, "F": rep.F, "H": rep.H}, SparseMatrix.identity(rep.dim)
    polys = (words._new({"E" * i + "F" * j + "H" * k: c for (i, j, k), c in a._num.items()}, a._den)
             for a in elements)
    return [substitute(p, images, one, memo) for p in polys]


def _parity_indices(n: int) -> tuple[range, range]:
    """The ladder indices m of L_n with m even, then with m odd: the bases
    of its two even-subalgebra blocks, and of its two pullback blocks."""
    return range(0, n + 1, 2), range(1, n + 1, 2)


def is_irreducible(operators: Sequence[SparseMatrix]) -> bool:
    """Whether the operators, square matrices of one size d, generate the
    full matrix algebra of that size, read off their weight graph.

    The graph has an edge c -> r for each nonzero off-diagonal entry (r, c)
    of any operator.  If it is not strongly connected, the coordinates
    reachable from some coordinate are a proper closed set, and their span
    is invariant under every operator: False.  If it is strongly connected
    and some operator X is diagonal with distinct entries x_1 .. x_d, the
    answer is True: the Lagrange polynomial prod_{j != i} (X - x_j) / (x_i -
    x_j) is the matrix unit E_ii, so every E_ii lies in the algebra; for an
    edge c -> r of operator M, E_rr M E_cc = M_rc E_rc gives E_rc; and
    products E_rk E_kc = E_rc along paths give every E_rc.  Otherwise the
    graph cannot decide, and ValueError is raised.
    """
    if not operators or operators[0].rows < 1:
        raise ValueError("empty module")
    d = square_size(operators)
    forward: list[set[int]] = [set() for _ in range(d)]
    backward: list[set[int]] = [set() for _ in range(d)]
    for m in operators:
        for r, c in m._num:
            if r != c:
                forward[c].add(r)
                backward[r].add(c)
    for edges in (forward, backward):
        seen, todo = {0}, [0]
        while todo:
            for r in edges[todo.pop()] - seen:
                seen.add(r)
                todo.append(r)
        if len(seen) < d:
            return False
    for m in operators:
        entries = diagonal(m)
        if entries is not None and len(set(entries)) == d:
            return True
    raise ValueError("no operator is diagonal with distinct entries")


def _top_weight(rep: UeRep) -> Fraction:
    """The H-eigenvalue of the top vector w, a column spanning the kernel of
    E^2, which must be one-dimensional.  Since [H,E^2] = 4E^2, H maps that
    kernel into itself, so w is an H-eigenvector."""
    w = kernel_basis(rep.E2)
    if w.cols != 1:
        raise ValueError("the kernel of E^2 is not one-dimensional")
    i = min(w._num)[0]  # the first row where w is nonzero
    return (rep.H * w).get(i, 0) / w.get(i, 0)


def classify_ue_irreducible(rep: UeRep) -> ModuleLabel:
    """Identify an irreducible module within the four ladder families.

    With d = dim - 1, L_n^(p) is the one family among (n, p) = (2d, 0),
    (2d+1, 0), (2d+1, 1), (2d+2, 1) whose top weight is the H-eigenvalue
    theta of the top vector, which spans the kernel of E^2, and whose
    Casimir scalar times the identity is the Casimir of the input.  Top
    weight and Casimir scalar are isomorphism invariants, so modules with
    distinct labels are not isomorphic.  Returns the family label; raises
    ValueError when the module fits no family.
    """
    theta = _top_weight(rep)
    d = rep.dim - 1
    ident = SparseMatrix.identity(rep.dim)
    for n, parity in ((2 * d, 0), (2 * d + 1, 0), (2 * d + 1, 1), (2 * d + 2, 1)):
        label = ModuleLabel(n, parity)
        if label.top_weight == theta and ident.scale(label.casimir) == rep.Lam:
            return label
    raise ValueError(f"top eigenvalue {theta} and the Casimir fit no family with d = {d}")


def verify_ladder_modules(n_max: int) -> list[CheckItem]:
    """One pass over the ladder modules L_0 .. L_{n_max}.

    Each L_n is built once.  On it: the Casimir scalar, read off the
    restriction to the even subalgebra (its blocks are invariant and together
    span L_n); the restricted halves, which must match the built halves
    entrywise (so each is its own family, with the identity as the
    isomorphism), be irreducible and classify back to their own labels (each
    is classified once, by its invariants); and the pullback along the
    natural map, whose parity blocks must be invariant and irreducible (at
    n = 0 the whole module) with halves of distinct signatures.  Last, the
    signatures of all halves must be pairwise distinct.  A half's signature
    is its classified label: its Casimir n(n+2)/2 fixes n, and its top
    weight n - 2p then fixes p.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    images = natural_images()
    items: list[CheckItem] = []
    halves: list[ModuleLabel] = []
    for n in range(n_max + 1):
        # L_n is in its ladder basis: the even generators' blocks are the
        # rows and columns at the ladder vectors v_m of each parity of m
        *even, a_mat, b_mat = evaluate(build_L(n), *usl2.EVEN_GENERATORS, images["A"], images["B"])
        blocks = [UeRep(*restrict_to_subspace(even, idx)) for idx in _parity_indices(n) if idx]
        labels = [ModuleLabel(n, p) for p in range(len(blocks))]
        found = [classify_ue_irreducible(b) for b in blocks]
        lam = labels[0].casimir
        items += [
            check(
                f"Casimir acts on L_{n} as {lam}",
                all(b.Lam == SparseMatrix.identity(b.dim).scale(lam) for b in blocks),
            ),
            check(
                f"restriction of L_{n} matches the built halves entrywise",
                blocks == [label.build() for label in labels],
            ),
            check(
                f"halves of L_{n} are irreducible (full matrix algebra)",
                all(is_irreducible(b) for b in blocks),
            ),
            check(f"halves of L_{n} classify back to their own labels", found == labels),
        ]
        halves += found

        pullback = [a_mat, b_mat, commutator(a_mat, b_mat)]
        if n == 0:
            items.append(check("pullback of L_0 is irreducible", is_irreducible(pullback)))
            continue
        items += [
            check(
                f"L_{n}: parity blocks are invariant under the pullback action",
                all((r - c) % 2 == 0 for m in pullback for r, c in m._num),
            ),
            check(
                f"L_{n}: both blocks are irreducible under the pullback action",
                all(is_irreducible(restrict_to_subspace(pullback, idx)) for idx in _parity_indices(n)),
            ),
            check(f"L_{n}: the two blocks have distinct signatures", found[0] != found[1]),
        ]
    items.append(
        check(
            f"all module signatures up to n={n_max} are pairwise distinct",
            len(set(halves)) == len(halves),
        )
    )
    return items
