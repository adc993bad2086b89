"""Hypercubes, halved hypercubes and their Terwilliger algebras.

Vertices of the D-cube are the integers 0..2^D-1, read as bitstrings (the
canonical order is the integer value); the graph distance is the Hamming
distance, so everything is built from bit twiddling, with no graph library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .linalg import (
    SparseMatrix,
    eigenspace,
    kernel_basis,
    restrict_to_subspace,
    span_closure,
    vstack,
)
from .reps import SL2Rep, UeRep, classify_ue_irreducible, ue_restriction

Vector = dict[int, Fraction]


def _weight(v: int) -> int:
    return bin(v).count("1")


@dataclass(frozen=True)
class CubeContext:
    """The D-cube with a distinguished base vertex (default all-zeros)."""

    D: int
    base: int = 0

    def __post_init__(self):
        if self.D < 2:
            raise ValueError("D must be at least 2")
        if not 0 <= self.base < 1 << self.D:
            raise ValueError("base vertex out of range")

    @property
    def size(self) -> int:
        return 1 << self.D

    def vertices(self) -> range:
        return range(self.size)

    def distance(self, x: int, y: int) -> int:
        return _weight(x ^ y)

    def bitstring(self, v: int) -> str:
        return format(v, f"0{self.D}b")


@dataclass(frozen=True)
class HalvedContext:
    """Even-weight half of the cube; adjacency there is cube distance 2."""

    cube: CubeContext
    evens: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if _weight(self.cube.base) % 2 != 0:
            raise ValueError("the base vertex of the halved cube must have even weight")
        evens = tuple(v for v in self.cube.vertices() if _weight(v) % 2 == 0)
        object.__setattr__(self, "evens", evens)

    @property
    def size(self) -> int:
        return len(self.evens)


def adjacency(ctx: CubeContext) -> SparseMatrix:
    """0/1 adjacency operator; row sums equal D."""
    n = ctx.size
    entries = {}
    for u in ctx.vertices():
        for b in range(ctx.D):
            entries[(u, u ^ (1 << b))] = Fraction(1)
    return SparseMatrix(n, n, entries)


def dual_adjacency(ctx: CubeContext) -> SparseMatrix:
    """Diagonal operator with entries D - 2*distance(base, y)."""
    n = ctx.size
    entries = {}
    for y in ctx.vertices():
        val = ctx.D - 2 * ctx.distance(ctx.base, y)
        if val:
            entries[(y, y)] = Fraction(val)
    return SparseMatrix(n, n, entries)


def cube_rho(ctx: CubeContext) -> SL2Rep:
    """The sl2 action on the cube: E, F from the adjacency and its bracket
    with the dual adjacency, H the dual adjacency itself.  The SL2Rep
    constructor certifies the defining relations exactly."""
    a = adjacency(ctx)
    astar = dual_adjacency(ctx)
    bracket = a * astar - astar * a
    e = a.scale(Fraction(1, 2)) - bracket.scale(Fraction(1, 4))
    f = a.scale(Fraction(1, 2)) + bracket.scale(Fraction(1, 4))
    return SL2Rep(dim=ctx.size, E=e, F=f, H=astar)


def standard_multiplicity(D: int, k: int) -> int:
    """Closed-form multiplicity of the weight-(D-2k) summand in the cube module."""
    m = Fraction(D - 2 * k + 1, D - k + 1) * comb(D, k)
    if m.denominator != 1:
        raise ArithmeticError("multiplicity formula did not give an integer")
    return int(m)


@dataclass(frozen=True)
class StandardDecomposition:
    D: int
    multiplicities: dict[int, int]  # n -> multiplicity of the (n+1)-dim module
    formula_ok: bool
    dimension_ok: bool


def decompose_standard(ctx: CubeContext) -> StandardDecomposition:
    """Multiplicities of the ladder summands of the cube module, found by
    counting highest-weight vectors (ker E inside each H-eigenspace), then
    cross-checked against the closed form and the total dimension."""
    rep = cube_rho(ctx)
    mults: dict[int, int] = {}
    formula_ok = True
    for k in range(ctx.D // 2 + 1):
        n = ctx.D - 2 * k
        basis = eigenspace(rep.H, Fraction(n))
        if basis:
            b = SparseMatrix.from_columns(basis, ctx.size)
            mult = len(kernel_basis(rep.E * b))
        else:
            mult = 0
        mults[n] = mult
        if mult != standard_multiplicity(ctx.D, k):
            formula_ok = False
    total = sum(m * (n + 1) for n, m in mults.items())
    return StandardDecomposition(
        D=ctx.D,
        multiplicities=mults,
        formula_ok=formula_ok,
        dimension_ok=(total == ctx.size),
    )


def halved_operators(hctx: HalvedContext) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """Restrictions of A^2 and the dual adjacency to the even-weight block,
    plus the halved-graph adjacency (A^2 - D)/2 (checked to be 0/1 with zero
    diagonal)."""
    ctx = hctx.cube
    a = adjacency(ctx)
    a2 = a * a
    astar = dual_adjacency(ctx)
    cols = [{v: Fraction(1)} for v in hctx.evens]
    a2e = restrict_to_subspace(a2, cols)
    astar_e = restrict_to_subspace(astar, cols)
    n = hctx.size
    halved = (a2e - SparseMatrix.identity(n).scale(ctx.D)).scale(Fraction(1, 2))
    for r, c, v in halved.items():
        if r == c or v not in (0, 1):
            raise ArithmeticError("halved adjacency is not a 0/1 matrix with zero diagonal")
    return a2e, astar_e, halved


def te_dimension(hctx: HalvedContext) -> int:
    """Dimension of the algebra generated by the two halved-cube operators."""
    a2e, astar_e, _ = halved_operators(hctx)
    _, dim = span_closure([a2e, astar_e])
    return dim


def te_dimension_formula(D: int) -> int:
    return comb(D // 2 + 3, 3) + comb((D + 1) // 2 + 1, 3)


@dataclass(frozen=True)
class HalvedDecomposition:
    D: int
    blocks: dict[tuple[int, int], int]  # (n, parity) -> multiplicity
    labels_ok: bool
    formula_ok: bool
    dimension_ok: bool
    wedderburn_dimension: int


def decompose_halved(hctx: HalvedContext) -> HalvedDecomposition:
    """Isotypic decomposition of the even-weight block under the even
    subalgebra action.

    For each expected family the multiplicity is the dimension of the space
    of top vectors (killed by E^2, correct H-eigenvalue, correct Casimir
    scalar); one summand per family is extracted along its F^2-ladder and
    identified with classify_ue_irreducible.  Cross-checks: multiplicities
    match the closed form, dimensions sum to 2^(D-1), and the sum of squared
    irreducible dimensions reproduces the Terwilliger-algebra dimension
    formula (the Wedderburn decomposition).
    """
    D = hctx.cube.D
    ue = ue_restriction(cube_rho(hctx.cube), [{v: Fraction(1)} for v in hctx.evens])
    ident = SparseMatrix.identity(ue.dim)

    blocks: dict[tuple[int, int], int] = {}
    labels_ok = True
    formula_ok = True
    wedderburn = 0
    families = [(k, D - 2 * k) for k in range(0, D // 2 + 1, 2)]
    families += [(k, D - 2 * k) for k in range(1, (D - 1) // 2 + 1, 2)]
    for k, n in sorted(families):
        parity = k % 2
        theta = n if parity == 0 else n - 2
        lam_scalar = Fraction(n * (n + 2), 2)
        basis = eigenspace(ue.H, Fraction(theta))
        if not basis:
            blocks[(n, parity)] = 0
            formula_ok = False
            continue
        b = SparseMatrix.from_columns(basis, ue.dim)
        stacked = vstack(ue.E2 * b, (ue.Lam - ident.scale(lam_scalar)) * b)
        tops = kernel_basis(stacked)
        mult = len(tops)
        blocks[(n, parity)] = mult
        if mult != standard_multiplicity(D, k):
            formula_ok = False
        if mult == 0:
            labels_ok = False
            continue
        # lift the first top vector and follow its ladder to one summand
        w = b.apply(tops[0])
        fam_dim = (n // 2 + 1) if parity == 0 else ((n - 1) // 2 + 1)
        chain: list[Vector] = [w]
        for _ in range(fam_dim - 1):
            chain.append(ue.F2.apply(chain[-1]))
        summand = UeRep(
            dim=fam_dim,
            E2=restrict_to_subspace(ue.E2, chain),
            F2=restrict_to_subspace(ue.F2, chain),
            Lam=restrict_to_subspace(ue.Lam, chain),
            H=restrict_to_subspace(ue.H, chain),
        )
        label, _ = classify_ue_irreducible(summand)
        if (label.n, label.parity) != (n, parity):
            labels_ok = False
        wedderburn += fam_dim * fam_dim
    total = sum(
        m * ((n // 2 + 1) if p == 0 else ((n - 1) // 2 + 1))
        for (n, p), m in blocks.items()
    )
    return HalvedDecomposition(
        D=D,
        blocks=blocks,
        labels_ok=labels_ok,
        formula_ok=formula_ok,
        dimension_ok=(total == hctx.size),
        wedderburn_dimension=wedderburn,
    )
