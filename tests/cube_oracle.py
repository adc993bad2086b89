"""The vertex-level cube suite: the test oracle for ``hahnsl2.terwilliger``.

Vertices of the D-cube are the integers 0..2^D-1, read as bitstrings (the
canonical order is the integer value); the graph distance is the Hamming
distance.  Here the cube module is built as 2^D x 2^D matrices, its even half
as 2^(D-1) x 2^(D-1) matrices, and the decompositions count highest-weight
vectors in weight spaces, as the package did before it moved to orbit
coordinates.  ``per_d`` is the ``per_d`` entry that ``cli.run_cube`` reports
for one D, computed this way, at any base vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from hahnsl2.linalg import SparseMatrix, diagonal, kernel_basis, restrict_to_subspace
from hahnsl2.reps import ModuleLabel, SL2Rep, UeRep
from hahnsl2.terwilliger import (
    HalvedDecomposition,
    StandardDecomposition,
    standard_multiplicity,
    te_dimension_formula,
)
from tests.conftest import column, span_closure, vstack


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
    return SL2Rep(E=e, F=f, H=astar)


def _weight_space(h: SparseMatrix, theta: int) -> SparseMatrix:
    """The theta-weight space of a module in the vertex basis: the matrix
    whose columns are the coordinate vectors where the diagonal H has entry
    theta.  Raises ValueError when H is not diagonal."""
    weights = diagonal(h)
    if weights is None:
        raise ValueError("H is not diagonal: the module must be in the vertex basis")
    vertices = [v for v, x in enumerate(weights) if x == theta]
    return SparseMatrix(h.rows, len(vertices), {(v, k): 1 for k, v in enumerate(vertices)})


def decompose_standard(ctx: CubeContext, rep: SL2Rep) -> StandardDecomposition:
    """Multiplicities of the ladder summands of the cube module ``rep``
    (``cube_rho(ctx)``), found by counting highest-weight vectors (ker E
    inside each H-weight space), then cross-checked against the closed form
    and the total dimension."""
    mults: dict[int, int] = {}
    formula_ok = True
    for k in range(ctx.D // 2 + 1):
        n = ctx.D - 2 * k
        mult = kernel_basis(rep.E * _weight_space(rep.H, n)).cols
        mults[n] = mult
        if mult != standard_multiplicity(ctx.D, k):
            formula_ok = False
    total = sum(m * (n + 1) for n, m in mults.items())
    return StandardDecomposition(
        multiplicities=mults,
        formula_ok=formula_ok,
        dimension_ok=(total == ctx.size),
    )


def evens(ctx: CubeContext) -> list[int]:
    """The even-weight vertices in increasing order: the vertices of the
    even half, in the order of its basis."""
    return [v for v in ctx.vertices() if _weight(v) % 2 == 0]


def even_half(ctx: CubeContext, rep: SL2Rep) -> UeRep:
    """The cube module ``rep`` (``cube_rho(ctx)``) under the even subalgebra,
    restricted to the even-weight vertices, on which the halved cube lives:
    the rows and columns of E^2, F^2, the Casimir and H at those vertices, in
    increasing order."""
    if _weight(ctx.base) % 2 != 0:
        raise ValueError("the base vertex of the halved cube must have even weight")
    e, f, h = rep
    even = (e * e, f * f, e * f + f * e + (h * h).scale(Fraction(1, 2)), h)
    return UeRep(*restrict_to_subspace(even, evens(ctx)))


def halved_operators(ctx: CubeContext, ue: UeRep) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    """A^2 and the dual adjacency on the even half ``ue``, plus the
    halved-graph adjacency (A^2 - D)/2 (checked to be 0/1 with zero
    diagonal).  On the cube A = E + F and A* = H, so A^2 = E^2 + F^2 + Lam -
    H^2/2 is read off the even-subalgebra action."""
    a2e = ue.E2 + ue.F2 + ue.Lam - (ue.H * ue.H).scale(Fraction(1, 2))
    halved = (a2e - SparseMatrix.identity(ue.dim).scale(ctx.D)).scale(Fraction(1, 2))
    for r, c, v in halved.items():
        if r == c or v not in (0, 1):
            raise ArithmeticError("halved adjacency is not a 0/1 matrix with zero diagonal")
    return a2e, ue.H, halved


def te_dimension(ctx: CubeContext, ue: UeRep) -> int:
    """Dimension of the algebra T generated by the two halved-cube operators.

    Both are checked to commute with the D - 1 adjacent transpositions of
    the coordinates of x^b, which generate the coordinate permutations that
    fix the base vertex b.  So T lies in their centralizer, whose matrices
    are constant on each orbit (|x^b|, |y^b|, |(x^b) & (y^b)|) of vertex
    pairs.  The rows of the vertices (2^i - 1)^b, i even, meet every orbit,
    so the selection t -> S t of those rows is injective on the centralizer,
    and dim T is the dimension of the span of S w over the words w in the
    two operators.
    """
    a2e, astar_e, _ = halved_operators(ctx, ue)
    vertices = evens(ctx)
    index = {v: k for k, v in enumerate(vertices)}
    for i in range(ctx.D - 1):
        # transposing coordinates i and i + 1 of x^b flips both when they differ
        perm = [index[v ^ (3 << i)] if ((v ^ ctx.base) >> i & 3) in (1, 2) else k
                for k, v in enumerate(vertices)]
        if restrict_to_subspace([a2e, astar_e], perm) != [a2e, astar_e]:
            raise ArithmeticError("operator does not commute with the stabilizer of the base vertex")
    rows = range(0, ctx.D + 1, 2)
    select = SparseMatrix(len(rows), ue.dim, {(r, index[((1 << i) - 1) ^ ctx.base]): 1
                                              for r, i in enumerate(rows)})
    _, dim = span_closure(select, [a2e, astar_e])
    return dim


def ladder_embedding(rep: UeRep, w: SparseMatrix, label: ModuleLabel) -> SparseMatrix | None:
    """The map Phi from the built half ``label.build()`` into ``rep`` with
    Phi u_i = (F^2)^i w / (2i + parity)!, for a column w, or None unless w
    is nonzero and op * Phi == Phi * op_built for all four operators.

    The built half is irreducible and Phi u_0 = w / parity! is not zero, so
    by Schur's lemma a Phi that is returned is injective: it embeds
    L_n^(parity) in ``rep``.
    """
    if w.is_zero():
        return None
    built = label.build()
    chain = [w]
    for _ in range(built.dim - 1):
        chain.append(rep.F2 * chain[-1])
    phi = SparseMatrix(rep.dim, built.dim, {(r, i): x / factorial(2 * i + label.parity)
                                            for i, v in enumerate(chain) for r, _, x in v.items()})
    if any(op * phi != phi * op_b for op, op_b in zip(rep, built)):
        return None
    return phi


def decompose_halved(ctx: CubeContext, ue: UeRep) -> HalvedDecomposition:
    """Isotypic decomposition of the even half ``ue`` of the cube module.

    For each expected family L_n^(p) the multiplicity is the dimension of
    the space of top vectors (killed by E^2, correct H-weight, correct
    Casimir scalar).  One top vector w labels the family: its
    ``ladder_embedding`` must embed L_n^(p) in ``ue``, else ``labels_ok`` is
    False.  Cross-checks: multiplicities match the closed form, dimensions
    sum to 2^(D-1), and the sum of squared irreducible dimensions reproduces
    the Terwilliger-algebra dimension formula (the Wedderburn decomposition).
    """
    D = ctx.D
    ident = SparseMatrix.identity(ue.dim)

    blocks: dict[ModuleLabel, int] = {}
    labels_ok = True
    formula_ok = True
    wedderburn = total = 0
    for k in range(D // 2 + 1):
        if D - 2 * k < k % 2:
            continue  # L_0^(1) does not exist
        label = ModuleLabel(D - 2 * k, k % 2)
        b = _weight_space(ue.H, label.top_weight)
        stacked = vstack(ue.E2 * b, (ue.Lam - ident.scale(label.casimir)) * b)
        tops = kernel_basis(stacked)
        mult = tops.cols
        blocks[label] = mult
        total += mult * label.dim
        if mult != standard_multiplicity(D, k):
            formula_ok = False
        if mult == 0:
            labels_ok = False
            continue
        if ladder_embedding(ue, b * column(tops, 0), label) is None:
            labels_ok = False
        wedderburn += label.dim ** 2
    return HalvedDecomposition(
        blocks=blocks,
        labels_ok=labels_ok,
        formula_ok=formula_ok,
        dimension_ok=(total == ue.dim),
        wedderburn_dimension=wedderburn,
    )


def per_d(D: int, base: int) -> dict:
    """The ``per_d`` entry of the cube report at one D and base vertex,
    computed on the vertex-level cube module and its even half."""
    ctx = CubeContext(D=D, base=base)
    rep = cube_rho(ctx)
    sd = decompose_standard(ctx, rep)
    ue = even_half(ctx, rep)
    hd = decompose_halved(ctx, ue)
    dim = te_dimension(ctx, ue)
    formula = te_dimension_formula(D)
    return {
        "D": D,
        "base_vertex": ctx.bitstring(base),
        "standard_decomposition": [[n, m] for n, m in sorted(sd.multiplicities.items())],
        "halved_decomposition": [[str(label), m] for label, m in sorted(hd.blocks.items())],
        "te_dimension": dim,
        "formula_value": formula,
        "match": (sd.formula_ok and sd.dimension_ok and hd.labels_ok and hd.formula_ok
                  and hd.dimension_ok and dim == formula == hd.wedderburn_dimension),
    }
