from fractions import Fraction
from math import comb

import pytest

from hahnsl2 import cli, terwilliger, usl2
from hahnsl2.linalg import EchelonBasis, SparseMatrix, kernel_basis, restrict_to_subspace
from hahnsl2.reps import ModuleLabel, SL2Rep, UeRep, classify_ue_irreducible, evaluate
from hahnsl2.terwilliger import (
    CubeAlgebra,
    decompose_halved,
    decompose_standard,
    standard_multiplicity,
    te_dimension,
    te_dimension_formula,
)
from tests import cube_oracle
from tests.conftest import column, dense, eigenspace, from_dense, solve_columns, span_closure, vstack
from tests.cube_oracle import CubeContext, adjacency, cube_rho, dual_adjacency, even_half, halved_operators

Q = Fraction


def _dense_square(m, n):
    d = dense(m)
    return [[sum(d[i][k] * d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# -- the vertex-level oracle ---------------------------------------------------


def test_adjacency_basics():
    ctx = CubeContext(D=2)
    a = adjacency(ctx)
    assert all(sum(row) == 2 for row in dense(a))
    # oracle: A^2 = 2I + 2P with P the antipodal swap, by direct squaring
    sq = _dense_square(a, 4)
    p = [[Q(1) if (u ^ 3) == v else Q(0) for v in range(4)] for u in range(4)]
    expected = [[2 * Q(u == v) + 2 * p[u][v] for v in range(4)] for u in range(4)]
    assert sq == expected


def test_adjacency_closed_walks_d3():
    ctx = CubeContext(D=3)
    a = adjacency(ctx)
    sq = _dense_square(a, 8)
    assert all(sq[u][u] == 3 for u in range(8))


def test_dual_adjacency():
    ctx = CubeContext(D=3)
    astar = dual_adjacency(ctx)
    assert astar.get(0, 0) == 3  # base vertex itself
    assert astar.get(7, 7) == -3  # the complement of the base
    diag = sorted(astar.get(v, v) for v in range(8))
    assert diag == [-3, -1, -1, -1, 1, 1, 1, 3]


def _even_half(ctx):
    return ctx, even_half(ctx, cube_rho(ctx))


def test_halved_operators_d2():
    a2e, astar_e, halved = halved_operators(*_even_half(CubeContext(D=2)))
    assert a2e == from_dense([[2, 2], [2, 2]])
    assert astar_e == from_dense([[2, 0], [0, -2]])
    assert halved == from_dense([[0, 1], [1, 0]])


@pytest.mark.parametrize("base", (0, 0b11))
@pytest.mark.parametrize("D", range(2, 8))
def test_halved_operators_match_restricted_adjacency_square(D, base):
    # oracle: restrict A*A and A* to the even vertices directly
    ctx = CubeContext(D=D, base=base)
    a = adjacency(ctx)
    evens = [v for v in ctx.vertices() if bin(v).count("1") % 2 == 0]
    a2e, astar_e = restrict_to_subspace([a * a, dual_adjacency(ctx)], evens)
    halved = (a2e - SparseMatrix.identity(len(evens)).scale(D)).scale(Q(1, 2))
    assert halved_operators(*_even_half(ctx)) == (a2e, astar_e, halved)


def test_halved_adjacency_d3_is_complete_graph():
    _, _, halved = halved_operators(*_even_half(CubeContext(D=3)))
    expected = [[Q(0) if i == j else Q(1) for j in range(4)] for i in range(4)]
    assert dense(halved) == expected


def test_halved_base_must_be_even():
    with pytest.raises(ValueError):
        _even_half(CubeContext(D=3, base=1))


def test_even_split_matches_dual_eigenvalue_classes():
    ctx = CubeContext(D=4)
    astar = dual_adjacency(ctx)
    by_eigenvalue = set()
    for i in range(-ctx.D, ctx.D + 1):
        val = ctx.D - 4 * i
        if abs(val) <= ctx.D:
            by_eigenvalue.update(r for r, _, _ in eigenspace(astar, Q(val)).items())
    evens = sorted(v for v in ctx.vertices() if bin(v).count("1") % 2 == 0)
    assert by_eigenvalue == set(evens)
    # the even half is the cube module on exactly these vertices, in order
    _, ue = _even_half(ctx)
    assert ue.H == SparseMatrix(len(evens), len(evens),
                                {(i, i): astar.get(v, v) for i, v in enumerate(evens)})


def _all_ones_even(D):
    return (1 << D) - 1 if D % 2 == 0 else (1 << D) - 2


def test_te_dimension_closes_once_on_selected_rows(monkeypatch):
    calls = []
    real = cube_oracle.span_closure

    def recorded(start, generators):
        calls.append(((start.rows, start.cols), [(g.rows, g.cols) for g in generators]))
        return real(start, generators)

    monkeypatch.setattr(cube_oracle, "span_closure", recorded)
    ctx, ue = _even_half(CubeContext(D=7, base=0b0110000))
    assert cube_oracle.te_dimension(ctx, ue) == 30
    assert calls == [((4, 64), [(64, 64), (64, 64)])]


@pytest.mark.parametrize("entry", ((1, 1), (0, 3)), ids=("diagonal", "off_diagonal"))
def test_te_dimension_refuses_an_operator_not_commuting_with_the_stabilizer(monkeypatch, entry):
    # the oracle's check; its orbit-space counterpart is
    # test_a_stencil_coefficient_off_by_one_is_refused.  Even-half index 1 is
    # the vertex 00011, at distance 2 from the base, so its diagonal entry
    # shares an orbit with nine others; a bump at the base itself, a one-pair
    # orbit, would still commute
    ctx, ue = _even_half(CubeContext(D=5, base=0b00110))
    real = cube_oracle.halved_operators

    def bumped(ctx, ue):
        a2e, astar_e, halved = real(ctx, ue)
        return a2e + SparseMatrix(ue.dim, ue.dim, {entry: 1}), astar_e, halved

    assert cube_oracle.te_dimension(ctx, ue) == te_dimension_formula(5)
    monkeypatch.setattr(cube_oracle, "halved_operators", bumped)
    with pytest.raises(ArithmeticError, match="stabilizer"):
        cube_oracle.te_dimension(ctx, ue)


@pytest.mark.parametrize("D", range(2, 10))
def test_selected_rows_meet_every_orbit(D):
    # the premise of the oracle's row selection: the rows of the vertices
    # (2^i - 1)^b, i even, meet as many orbits as there are in all
    evens = [y for y in range(1 << D) if bin(y).count("1") % 2 == 0]
    for base in (0, _all_ones_even(D)) + ((0b101,) if D >= 3 else ()):
        rows = [((1 << i) - 1) ^ base for i in range(0, D + 1, 2)]
        triples = {(bin(x ^ base).count("1"), bin(y ^ base).count("1"),
                    bin((x ^ base) & (y ^ base)).count("1")) for x in rows for y in evens}
        assert len(triples) == te_dimension_formula(D)


def test_decompose_halved_refuses_a_map_that_does_not_intertwine(monkeypatch):
    # the oracle's label check; its orbit-space counterpart is
    # test_decompose_halved_refuses_a_wrong_character.  Without the
    # factorial rescaling the ladder map fails F^2 on L_4^(0)
    monkeypatch.setattr(cube_oracle, "factorial", lambda k: 1)
    hd = cube_oracle.decompose_halved(*_even_half(CubeContext(D=4)))
    assert not hd.labels_ok
    assert hd.formula_ok and hd.dimension_ok


def test_decompositions_need_the_vertex_basis():
    # conjugated by I + e_01 (inverse I - e_01), H has the entry
    # H_11 - H_00 at (0, 1), so the weight spaces are no longer coordinate
    # columns and both oracle decompositions refuse the module
    ctx = CubeContext(D=4)
    rep = cube_rho(ctx)

    def conjugate(op):
        m = SparseMatrix.identity(op.rows) + SparseMatrix(op.rows, op.rows, {(0, 1): 1})
        mi = SparseMatrix.identity(op.rows) - SparseMatrix(op.rows, op.rows, {(0, 1): 1})
        return m * op * mi

    conj = SL2Rep(conjugate(rep.E), conjugate(rep.F), conjugate(rep.H))
    assert conj.H.get(0, 1) == -2
    with pytest.raises(ValueError, match="not diagonal"):
        cube_oracle.decompose_standard(ctx, conj)
    ue = even_half(ctx, rep)
    conj_ue = UeRep(*(conjugate(op) for op in ue))
    assert conj_ue.H.get(0, 1) == -4
    with pytest.raises(ValueError, match="not diagonal"):
        cube_oracle.decompose_halved(ctx, conj_ue)


# -- orbit coordinates against the oracle -------------------------------------


def _orbit_pairs(D, base):
    """orbit triple -> the vertex pairs (x, y) in that orbit."""
    pairs = {}
    for x in range(1 << D):
        for y in range(1 << D):
            u, v = x ^ base, y ^ base
            key = (bin(u).count("1"), bin(v).count("1"), bin(u & v).count("1"))
            pairs.setdefault(key, []).append((x, y))
    return pairs


def _expand(cube, pairs, X):
    """The 2^D x 2^D matrix of the orbit function X, a one-column matrix."""
    n = 1 << cube.D
    return SparseMatrix(n, n, {xy: v for k, _, v in X.items() for xy in pairs[cube.orbits[k]]})


@pytest.mark.parametrize("D", range(2, 7))
def test_orbit_operators_expand_to_the_vertex_products(D):
    # left A, left A* and right A on each basis matrix M_(i,j,t),
    # at three base vertices, one of odd weight: the full-cube stencils
    # need no even base
    cube = CubeAlgebra(D)
    left_a, right_a = cube.rep.E + cube.rep.F, dense(cube.right_a)
    for base in (0, 1, (1 << D) - 1):
        ctx = CubeContext(D=D, base=base)
        a, astar = adjacency(ctx), dual_adjacency(ctx)
        pairs = _orbit_pairs(D, base)
        assert sorted(pairs) == cube.orbits
        for k in range(len(cube.orbits)):
            unit = SparseMatrix(len(cube.orbits), 1, {(k, 0): 1})
            m = _expand(cube, pairs, unit)
            assert _expand(cube, pairs, left_a * unit) == a * m
            assert _expand(cube, pairs, cube.rep.H * unit) == astar * m
            row = SparseMatrix(len(cube.orbits), 1, {(c, 0): v for c, v in enumerate(right_a[k])})
            assert _expand(cube, pairs, row) == m * a


def _stencil_operators(cube):
    """X -> A X and X -> A* X on columns, and X -> X A on rows, where
    (X A)(i, j, t) is the stencil with i and j swapped, read off the stencil
    entry by entry through the checked public constructor."""
    D, n = cube.D, len(cube.orbits)
    index = {o: k for k, o in enumerate(cube.orbits)}
    left_a, right_a, left_astar = {}, {}, {}
    for r, (i, j, t) in enumerate(cube.orbits):
        for (si, sj, st), c in terwilliger._adjacency_stencil(D, i, j, t):
            if c:
                left_a[r, index[si, sj, st]] = c
        for (sj, si, st), c in terwilliger._adjacency_stencil(D, j, i, t):
            if c:
                right_a[index[si, sj, st], r] = c
        left_astar[r, r] = D - 2 * i
    return SparseMatrix(n, n, left_a), SparseMatrix(n, n, right_a), SparseMatrix(n, n, left_astar)


@pytest.mark.parametrize("D", range(2, 10))
def test_orbit_operators_match_the_public_constructor(D):
    # left A is E + F, and left A* is H
    cube = CubeAlgebra(D)
    left_a, right_a, left_astar = _stencil_operators(cube)
    assert cube.rep.E + cube.rep.F == left_a
    assert cube.right_a == right_a
    assert cube.rep.H == left_astar
    # no zero stored: the rows of A* at i = D/2 are empty
    assert all(cube.rep.H._num.values())


PER_D_CASES = (
    [(D, base) for D in range(2, 9) for base in sorted({0, _all_ones_even(D), 0b101 % (1 << D)})
     if bin(base).count("1") % 2 == 0]
    + [(9, 0)]
)


@pytest.mark.parametrize("D, base", PER_D_CASES)
def test_every_per_d_field_matches_the_vertex_path(D, base):
    bits = format(base, f"0{D}b")
    assert cli.run_cube(D, D, bits)["per_d"] == [cube_oracle.per_d(D, base)]


def test_cube_rho_relations_certified():
    for D in range(2, 6):
        CubeAlgebra(D)  # SL2Rep checks the relations on orbit functions
        rep = cube_rho(CubeContext(D=D))  # and the oracle's on vertices
        assert rep.E + rep.F == adjacency(CubeContext(D=D))
        assert rep.H == dual_adjacency(CubeContext(D=D))


@pytest.mark.parametrize("D", range(2, 10))
def test_e_and_f_are_the_two_halves_of_the_stencil(D):
    # oracle: E, F = A/2 -/+ [A, A*]/4 through the public products, with A
    # and A* read off the stencil
    cube = CubeAlgebra(D)
    a, _, astar = _stencil_operators(cube)
    bracket = (a * astar - astar * a).scale(Q(1, 4))
    assert cube.rep.E == a.scale(Q(1, 2)) - bracket
    assert cube.rep.F == a.scale(Q(1, 2)) + bracket


def test_cube_rho_natural_pullback_of_B():
    # the composite map sends B to (A^2 - 1)/4, on orbit functions as on vertices
    from hahnsl2.hahn import natural, presentation

    b = natural(presentation().B)
    cube = CubeAlgebra(3)
    a = cube.rep.E + cube.rep.F
    expected = (a * a - SparseMatrix.identity(len(cube.orbits))).scale(Q(1, 4))
    assert evaluate(cube.rep, b) == [expected]
    ctx = CubeContext(D=3)
    a = adjacency(ctx)
    assert evaluate(cube_rho(ctx), b) == [(a * a - SparseMatrix.identity(8)).scale(Q(1, 4))]


@pytest.mark.parametrize("kind", range(4), ids=("both", "x_only", "y_only", "neither"))
def test_a_stencil_coefficient_off_by_one_is_refused(monkeypatch, kind):
    # one kind of bit flip counted once too often wherever it occurs: the
    # left multiplications no longer satisfy the sl2 relations
    real = terwilliger._adjacency_stencil

    def bumped(D, i, j, t):
        terms = list(real(D, i, j, t))
        source, c = terms[kind]
        if c:
            terms[kind] = (source, c + 1)
        return tuple(terms)

    CubeAlgebra(5)
    monkeypatch.setattr(terwilliger, "_adjacency_stencil", bumped)
    with pytest.raises(ValueError, match="fails"):
        CubeAlgebra(5)


def test_a_wrong_casimir_is_refused(monkeypatch):
    # Lam + 1 has no eigenvalue n(n+2)/2, so the Krylov check fails
    shifted = usl2.casimir() + usl2.one()
    monkeypatch.setattr(usl2, "casimir", lambda: shifted)
    with pytest.raises(ArithmeticError, match="annihilate"):
        decompose_standard(CubeAlgebra(4))


def test_te_dimension_refuses_a_halved_adjacency_that_is_not_0_1():
    cube = CubeAlgebra(5)
    assert te_dimension(cube) == te_dimension_formula(5)
    cube.right_a = cube.right_a.scale(2)
    with pytest.raises(ArithmeticError, match="0/1"):
        te_dimension(cube)


def test_decompose_standard_examples():
    sd = decompose_standard(CubeAlgebra(3))
    assert sd.multiplicities == {3: 1, 1: 2}
    assert sd.formula_ok and sd.dimension_ok
    sd = decompose_standard(CubeAlgebra(4))
    assert sd.multiplicities == {4: 1, 2: 3, 0: 2}
    sd = decompose_standard(CubeAlgebra(2))
    assert sd.multiplicities == {2: 1, 0: 1}


def test_decompositions_compare_their_multiplicities_with_the_closed_form(monkeypatch):
    # a closed form off by one: both decompositions notice, and nothing else
    real = terwilliger.standard_multiplicity
    monkeypatch.setattr(terwilliger, "standard_multiplicity", lambda D, k: real(D, k) + 1)
    cube = CubeAlgebra(4)
    sd, hd = decompose_standard(cube), decompose_halved(cube)
    assert not sd.formula_ok and sd.dimension_ok
    assert not hd.formula_ok and hd.labels_ok and hd.dimension_ok


def test_decompose_halved_refuses_a_family_of_multiplicity_zero():
    # the L_2 character cleared on D = 4: L_2^(1) then has multiplicity 0,
    # which labels no block and adds nothing to the Wedderburn sum
    cube = CubeAlgebra(4)
    cube.isotypic_characters = {**cube.isotypic_characters,
                                2: {w: Fraction(0) for w in cube.isotypic_characters[2]}}
    hd = decompose_halved(cube)
    assert hd.blocks[ModuleLabel(2, 1)] == 0
    assert not hd.labels_ok and not hd.formula_ok and not hd.dimension_ok
    assert hd.wedderburn_dimension == 11 - ModuleLabel(2, 1).dim ** 2


def test_a_count_that_is_not_an_integer_is_refused():
    assert terwilliger._count(Fraction(6, 2)) == 3
    with pytest.raises(ArithmeticError, match="came out as 3/2"):
        terwilliger._count(Fraction(3, 2))
    # the trace 6 of the L_4 idempotent on D = 4 is no multiple of n + 1 = 5
    cube = CubeAlgebra(4)
    cube.isotypic_characters = {**cube.isotypic_characters, 4: {**cube.isotypic_characters[4], 4: Fraction(2)}}
    with pytest.raises(ArithmeticError, match="came out as 6/5"):
        decompose_standard(cube)


def test_standard_multiplicity_integrality():
    for D in range(2, 11):
        for k in range(D // 2 + 1):
            assert standard_multiplicity(D, k) >= 1


def test_casimir_block_scalars_match_decomposition():
    # oracle: the eigenspaces of the Casimir on the 2^D vertices
    for D in (2, 3, 4, 5):
        lam, = evaluate(cube_rho(CubeContext(D=D)), usl2.casimir())
        sd = decompose_standard(CubeAlgebra(D))
        for n, mult in sd.multiplicities.items():
            space = eigenspace(lam, Q(n * (n + 2), 2))
            assert space.cols == mult * (n + 1)


def test_te_dimension_small():
    for D, expected in ((2, 4), (3, 5), (4, 11)):
        assert te_dimension_formula(D) == expected
        assert te_dimension(CubeAlgebra(D)) == expected


TE_ORACLE_CASES = (
    [(D, 0) for D in range(2, 9)]
    + [(D, _all_ones_even(D)) for D in range(2, 8)]
    + [(D, 0b101) for D in range(3, 8)]
)


@pytest.mark.parametrize("D, base", TE_ORACLE_CASES)
def test_te_dimension_matches_brute_force_closure(D, base):
    # oracle: close the full 2^(D-1) x 2^(D-1) operators
    ctx, ue = _even_half(CubeContext(D=D, base=base))
    a2e, astar_e, _ = halved_operators(ctx, ue)
    brute = span_closure(SparseMatrix.identity(ue.dim), [a2e, astar_e])[1]
    assert te_dimension(CubeAlgebra(D)) == brute


@pytest.mark.parametrize("D", range(2, 13))
def test_te_dimension_matches_the_orbit_level_closure(D):
    # oracle: the closure of the even-identity row under X -> X A^2 and
    # X -> X A*, with (X A*)(i, j, t) = (D - 2j) X(i, j, t)
    cube = CubeAlgebra(D)
    n = len(cube.orbits)
    even_identity = SparseMatrix(1, n, {(0, cube.index[i, i, i]): 1 for i in range(0, D + 1, 2)})
    right_astar = SparseMatrix(n, n, {(k, k): D - 2 * j for k, (_, j, _) in enumerate(cube.orbits)})
    assert te_dimension(cube) == span_closure(even_identity, [cube.right_a * cube.right_a, right_astar])[1]


@pytest.mark.parametrize("D", range(2, 21))
def test_te_dimension_matches_the_formula_up_to_d20(D):
    assert te_dimension(CubeAlgebra(D)) == te_dimension_formula(D)


def test_te_dimension_closes_each_block_on_its_own(monkeypatch):
    # at D = 7: one echelon basis per nonempty block E*_i T E*_j, i and j
    # even, of rank min(i, j) - max(0, i + j - 7) + 1, its number of triples
    made = []

    class Recorded(EchelonBasis):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(terwilliger, "EchelonBasis", Recorded)
    cube = CubeAlgebra(7)
    assert te_dimension(cube) == 30
    blocks = {}
    for basis in made:
        (block,) = {cube.orbits[p][:2] for p in basis.pivots}
        assert block not in blocks
        blocks[block] = len(basis)
    assert blocks == {
        (0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1,
        (2, 0): 1, (2, 2): 3, (2, 4): 3, (2, 6): 2,
        (4, 0): 1, (4, 2): 3, (4, 4): 4, (4, 6): 2,
        (6, 0): 1, (6, 2): 2, (6, 4): 2, (6, 6): 2,
    }
    assert sum(blocks.values()) == 30
    assert not hasattr(terwilliger, "span_closure")


@pytest.mark.parametrize("D", [*range(2, 13), 16])
def test_isotypic_characters_match_the_closed_form(D):
    # oracle: L_n is one-dimensional at each weight w with |w| <= n, and the
    # cube module holds standard_multiplicity(D, (D - n)/2) copies of it
    characters = CubeAlgebra(D).isotypic_characters
    assert sorted(characters) == list(range(D % 2, D + 1, 2))
    for n, character in characters.items():
        mult = standard_multiplicity(D, (D - n) // 2)
        assert character == {w: mult if abs(w) <= n else 0 for w in range(-D, D + 1, 2)}
        assert all(type(x) is Fraction and x.denominator == 1 for x in character.values())


@pytest.mark.parametrize("D", range(2, 11))
def test_te_dimension_forms_a_squared_at_the_even_triples_only(monkeypatch, D):
    # the one N x N product of te_dimension holds the rows of A^2 at the
    # triples with i and j even, and no other row
    cube = CubeAlgebra(D)
    n, full = len(cube.orbits), cube.right_a * cube.right_a
    products = []
    real = SparseMatrix.matmul

    def recorded(a, b):
        products.append(real(a, b))
        return products[-1]

    monkeypatch.setattr(SparseMatrix, "matmul", recorded)
    te_dimension(cube)
    (a2,) = [m for m in products if m.rows == n]
    even = {k for k, (i, j, _) in enumerate(cube.orbits) if i % 2 == j % 2 == 0}
    assert a2 == SparseMatrix(n, n, {(r, c): x for r, c, x in full.items() if r in even})
    assert {r for r, _ in a2._num} == even and a2 != full


@pytest.mark.parametrize("D", range(2, 13))
def test_te_dimension_multiplies_through_matmul(monkeypatch, D):
    # A^2 at the even triples (rows with i and j even), then I_e A^2, then
    # one product with A^2 for each accepted row
    cube = CubeAlgebra(D)
    calls = []
    real = SparseMatrix.matmul

    def counted(a, b):
        calls.append((a.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(SparseMatrix, "matmul", counted)
    dim = te_dimension(cube)
    assert dim == te_dimension_formula(D)
    assert len(calls) == 2 + dim


def _orbit_triples(D):
    """The triples (i, j, t) with i, j even, t <= min(i, j) and i + j - t <= D."""
    count = 0
    for i in range(0, D + 1, 2):
        for j in range(0, D + 1, 2):
            count += len(range(max(0, i + j - D), min(i, j) + 1))
    return count


def test_orbit_count_equals_te_dimension_formula():
    for D in list(range(2, 61)) + [200]:
        assert _orbit_triples(D) == te_dimension_formula(D)
    for D in range(2, 12):
        assert len(CubeAlgebra(D).orbits) == comb(D + 3, 3)


def test_decompose_halved_examples():
    hd = decompose_halved(CubeAlgebra(4))
    assert hd.blocks == {(4, 0): 1, (2, 1): 3, (0, 0): 2}
    assert hd.labels_ok and hd.formula_ok and hd.dimension_ok
    assert hd.wedderburn_dimension == 11
    hd = decompose_halved(CubeAlgebra(3))
    assert hd.blocks == {(3, 0): 1, (1, 1): 2}
    assert hd.wedderburn_dimension == 5
    hd = decompose_halved(CubeAlgebra(2))
    assert hd.blocks == {(2, 0): 1}


def test_decompose_halved_refuses_a_wrong_character(monkeypatch):
    # every label's H-spectrum shifted by 4: the traces of the isotypic
    # idempotents no longer match it, but the multiplicities still do
    real = ModuleLabel.h_spectrum.fget
    monkeypatch.setattr(ModuleLabel, "h_spectrum", property(lambda label: tuple(w + 4 for w in real(label))))
    hd = decompose_halved(CubeAlgebra(4))
    assert not hd.labels_ok
    assert hd.formula_ok and hd.dimension_ok


def _ladder_summand(ue, n, parity):
    """The summand of the even half ue spanned by the F^2-ladder of the
    first top vector of the family L_n^(parity), with the four operators in
    the ladder basis, each column found by solving against the ladder."""
    theta = n if parity == 0 else n - 2
    b = eigenspace(ue.H, Q(theta))
    lam = SparseMatrix.identity(ue.dim).scale(Q(n * (n + 2), 2))
    chain = [b * column(kernel_basis(vstack(ue.E2 * b, (ue.Lam - lam) * b)), 0)]
    for _ in range(ModuleLabel(n, parity).dim - 1):
        chain.append(ue.F2 * chain[-1])
    ladder = SparseMatrix(ue.dim, len(chain), {(r, i): v for i, w in enumerate(chain) for r, _, v in w.items()})
    ops = [solve_columns(ladder, op * ladder) for op in ue]
    assert None not in ops  # the span is invariant
    return UeRep(*ops)


@pytest.mark.parametrize("D", range(2, 8))
def test_decompose_halved_labels_agree_with_classifying_each_summand(D):
    # oracle: restrict the vertex-level even half to each family's ladder
    # and classify the summand
    hd = decompose_halved(CubeAlgebra(D))
    assert hd.labels_ok
    _, ue = _even_half(CubeContext(D=D))
    for block in hd.blocks:
        label = classify_ue_irreducible(_ladder_summand(ue, *block))
        assert type(block) is ModuleLabel and label == block


def test_base_vertex_independence_small():
    # vertex transitivity: the oracle finds the same dimensions and
    # multiplicities at any even base, and so does the orbit path, which
    # does not depend on the base at all
    reference = cube_oracle.per_d(4, 0)
    for base in (0b0011, 0b1111, 0b0101):
        entry = cli.run_cube(4, 4, format(base, "04b"))["per_d"][0]
        assert entry == cube_oracle.per_d(4, base)
        assert entry == {**reference, "base_vertex": format(base, "04b")}


def test_cube_suite_holds_from_d10_to_the_cap():
    cap = next(o.most for o in cli.SUITES["cube"].options if o.flag == "--d-max")
    for D in range(10, cap + 1):
        cube = CubeAlgebra(D)
        sd, hd = decompose_standard(cube), decompose_halved(cube)
        assert sd.formula_ok and sd.dimension_ok, D
        assert hd.labels_ok and hd.formula_ok and hd.dimension_ok, D
        assert te_dimension(cube) == te_dimension_formula(D) == hd.wedderburn_dimension, D


def test_run_cube_builds_one_cube_module_per_d(monkeypatch):
    builds = []

    class Counted(CubeAlgebra):
        def __init__(self, D):
            builds.append(D)
            super().__init__(D)

    monkeypatch.setattr(terwilliger, "CubeAlgebra", Counted)
    assert cli.run_cube(2, 5, None)["ok"]
    assert builds == [2, 3, 4, 5]
