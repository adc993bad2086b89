from fractions import Fraction

import pytest

from hahnsl2 import cli, reps, terwilliger, usl2
from hahnsl2.linalg import (
    SparseMatrix,
    kernel_basis,
    restrict_to_subspace,
    solve,
    span_closure,
    vstack,
)
from hahnsl2.reps import ModuleLabel, SL2Rep, UeRep, classify_ue_irreducible, evaluate
from hahnsl2.terwilliger import (
    CubeContext,
    adjacency,
    cube_rho,
    decompose_halved,
    decompose_standard,
    dual_adjacency,
    even_half,
    halved_operators,
    standard_multiplicity,
    te_dimension,
    te_dimension_formula,
)
from tests.conftest import dense, eigenspace

Q = Fraction


def _dense_square(m, n):
    d = dense(m)
    return [[sum(d[i][k] * d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def test_adjacency_basics():
    ctx = CubeContext(D=2)
    a = adjacency(ctx)
    assert all(sum(a.row(r).values()) == 2 for r in range(4))
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


def test_cube_rho_relations_certified():
    for D in range(2, 6):
        rep = cube_rho(CubeContext(D=D))  # SL2Rep checks the relations
        a = adjacency(CubeContext(D=D))
        assert rep.E + rep.F == a
        assert rep.H == dual_adjacency(CubeContext(D=D))


def test_cube_rho_natural_pullback_of_B():
    # the composite map sends B to (A^2 - 1)/4
    from hahnsl2.hahn import natural, presentation

    ctx = CubeContext(D=3)
    rep = cube_rho(ctx)
    a = adjacency(ctx)
    b_mat = evaluate(natural(presentation().B), rep)
    expected = (a * a - SparseMatrix.identity(8)).scale(Q(1, 4))
    assert b_mat == expected


def _standard(ctx):
    return decompose_standard(ctx, cube_rho(ctx))


def _even_half(ctx):
    return ctx, even_half(ctx, cube_rho(ctx))


def test_decompose_standard_examples():
    sd = _standard(CubeContext(D=3))
    assert sd.multiplicities == {3: 1, 1: 2}
    assert sd.formula_ok and sd.dimension_ok
    sd = _standard(CubeContext(D=4))
    assert sd.multiplicities == {4: 1, 2: 3, 0: 2}
    sd = _standard(CubeContext(D=2))
    assert sd.multiplicities == {2: 1, 0: 1}


def test_standard_multiplicity_integrality():
    for D in range(2, 11):
        for k in range(D // 2 + 1):
            assert standard_multiplicity(D, k) >= 1


def test_casimir_block_scalars_match_decomposition():
    for D in (2, 3, 4, 5):
        ctx = CubeContext(D=D)
        rep = cube_rho(ctx)
        lam = evaluate(usl2.casimir(), rep)
        sd = decompose_standard(ctx, rep)
        for n, mult in sd.multiplicities.items():
            space = eigenspace(lam, Q(n * (n + 2), 2))
            assert len(space) == mult * (n + 1)


def test_halved_operators_d2():
    a2e, astar_e, halved = halved_operators(*_even_half(CubeContext(D=2)))
    assert a2e == SparseMatrix.from_rows([[2, 2], [2, 2]])
    assert astar_e == SparseMatrix.from_rows([[2, 0], [0, -2]])
    assert halved == SparseMatrix.from_rows([[0, 1], [1, 0]])


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
            for v in eigenspace(astar, Q(val)):
                by_eigenvalue.update(v.keys())
    evens = sorted(v for v in ctx.vertices() if bin(v).count("1") % 2 == 0)
    assert by_eigenvalue == set(evens)
    # the even half is the cube module on exactly these vertices, in order
    _, ue = _even_half(ctx)
    assert ue.H == SparseMatrix(len(evens), len(evens),
                                {(i, i): astar.get(v, v) for i, v in enumerate(evens)})


def test_te_dimension_small():
    for D, expected in ((2, 4), (3, 5), (4, 11)):
        assert te_dimension_formula(D) == expected
        assert te_dimension(*_even_half(CubeContext(D=D))) == expected


def _all_ones_even(D):
    return (1 << D) - 1 if D % 2 == 0 else (1 << D) - 2


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
    assert te_dimension(ctx, ue) == span_closure(SparseMatrix.identity(ue.dim), [a2e, astar_e])[1]


def test_te_dimension_closes_once_on_selected_rows(monkeypatch):
    calls = []
    real = terwilliger.span_closure

    def recorded(start, generators):
        calls.append(((start.rows, start.cols), [(g.rows, g.cols) for g in generators]))
        return real(start, generators)

    monkeypatch.setattr(terwilliger, "span_closure", recorded)
    ctx, ue = _even_half(CubeContext(D=7, base=0b0110000))
    assert te_dimension(ctx, ue) == 30
    assert calls == [((4, 64), [(64, 64), (64, 64)])]


@pytest.mark.parametrize("entry", ((1, 1), (0, 3)), ids=("diagonal", "off_diagonal"))
def test_te_dimension_refuses_an_operator_not_commuting_with_the_stabilizer(monkeypatch, entry):
    # even-half index 1 is the vertex 00011, at distance 2 from the base, so
    # its diagonal entry shares an orbit with nine others; a bump at the base
    # itself, a one-pair orbit, would still commute
    ctx, ue = _even_half(CubeContext(D=5, base=0b00110))
    real = terwilliger.halved_operators

    def bumped(ctx, ue):
        a2e, astar_e, halved = real(ctx, ue)
        return a2e + SparseMatrix(ue.dim, ue.dim, {entry: 1}), astar_e, halved

    assert te_dimension(ctx, ue) == te_dimension_formula(5)
    monkeypatch.setattr(terwilliger, "halved_operators", bumped)
    with pytest.raises(ArithmeticError, match="stabilizer"):
        te_dimension(ctx, ue)


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


@pytest.mark.parametrize("D", range(2, 10))
def test_selected_rows_meet_every_orbit(D):
    # the premise of te_dimension's row selection: the rows of the vertices
    # (2^i - 1)^b, i even, meet as many orbits as there are in all
    evens = [y for y in range(1 << D) if bin(y).count("1") % 2 == 0]
    for base in (0, _all_ones_even(D)) + ((0b101,) if D >= 3 else ()):
        rows = [((1 << i) - 1) ^ base for i in range(0, D + 1, 2)]
        triples = {(bin(x ^ base).count("1"), bin(y ^ base).count("1"),
                    bin((x ^ base) & (y ^ base)).count("1")) for x in rows for y in evens}
        assert len(triples) == te_dimension_formula(D)


def test_decompose_halved_examples():
    hd = decompose_halved(*_even_half(CubeContext(D=4)))
    assert hd.blocks == {(4, 0): 1, (2, 1): 3, (0, 0): 2}
    assert hd.labels_ok and hd.formula_ok and hd.dimension_ok
    assert hd.wedderburn_dimension == 11
    hd = decompose_halved(*_even_half(CubeContext(D=3)))
    assert hd.blocks == {(3, 0): 1, (1, 1): 2}
    assert hd.wedderburn_dimension == 5
    hd = decompose_halved(*_even_half(CubeContext(D=2)))
    assert hd.blocks == {(2, 0): 1}


def _ladder_summand(ue, n, parity):
    """The summand of the even half ue spanned by the F^2-ladder of the
    first top vector of the family L_n^(parity), with the four operators in
    the ladder basis, each column found by solving against the ladder."""
    theta = n if parity == 0 else n - 2
    b = SparseMatrix.from_columns(eigenspace(ue.H, Q(theta)), ue.dim)
    lam = SparseMatrix.identity(ue.dim).scale(Q(n * (n + 2), 2))
    w = b.apply(kernel_basis(vstack(ue.E2 * b, (ue.Lam - lam) * b))[0])
    chain = [w]
    for _ in range(ModuleLabel(n, parity).dim - 1):
        chain.append(ue.F2.apply(chain[-1]))
    ladder = SparseMatrix.from_columns(chain, ue.dim)
    ops = []
    for op in ue.operators():
        columns = [solve(ladder, op.apply(v)) for v in chain]
        assert all(x is not None for x in columns)  # the span is invariant
        ops.append(SparseMatrix.from_columns(columns, len(chain)))
    return UeRep(len(chain), *ops)


@pytest.mark.parametrize("D", range(2, 8))
def test_decompose_halved_labels_agree_with_classifying_each_summand(D):
    # oracle: restrict to each family's ladder and classify the summand,
    # the check that the intertwiner Phi replaces
    ctx, ue = _even_half(CubeContext(D=D))
    hd = decompose_halved(ctx, ue)
    assert hd.labels_ok
    for n, parity in hd.blocks:
        label, _ = classify_ue_irreducible(_ladder_summand(ue, n, parity))
        assert (label.n, label.parity) == (n, parity)


def test_decompose_halved_refuses_a_map_that_does_not_intertwine(monkeypatch):
    # without the factorial rescaling the ladder map fails F^2 on L_4^(0)
    monkeypatch.setattr(reps, "factorial", lambda k: 1)
    hd = decompose_halved(*_even_half(CubeContext(D=4)))
    assert not hd.labels_ok
    assert hd.formula_ok and hd.dimension_ok


def test_decompositions_need_the_vertex_basis():
    # conjugated by I + e_01 (inverse I - e_01), H has the entry
    # H_11 - H_00 at (0, 1), so the weight spaces are no longer coordinate
    # columns and both decompositions refuse the module
    ctx = CubeContext(D=4)
    rep = cube_rho(ctx)

    def conjugate(op):
        m = SparseMatrix.identity(op.rows) + SparseMatrix(op.rows, op.rows, {(0, 1): 1})
        mi = SparseMatrix.identity(op.rows) - SparseMatrix(op.rows, op.rows, {(0, 1): 1})
        return m * op * mi

    conj = SL2Rep(rep.dim, conjugate(rep.E), conjugate(rep.F), conjugate(rep.H))
    assert conj.H.get(0, 1) == -2
    with pytest.raises(ValueError, match="not diagonal"):
        decompose_standard(ctx, conj)
    ue = even_half(ctx, rep)
    conj_ue = UeRep(ue.dim, *(conjugate(op) for op in ue.operators()))
    assert conj_ue.H.get(0, 1) == -4
    with pytest.raises(ValueError, match="not diagonal"):
        decompose_halved(ctx, conj_ue)


def test_base_vertex_independence_small():
    # vertex transitivity: same dimensions and multiplicities at any even base
    reference = _even_half(CubeContext(D=4))
    ref_blocks = decompose_halved(*reference).blocks
    ref_dim = te_dimension(*reference)
    for base in (0b0011, 0b1111, 0b0101):
        h = _even_half(CubeContext(D=4, base=base))
        assert te_dimension(*h) == ref_dim
        assert decompose_halved(*h).blocks == ref_blocks


def test_run_cube_builds_one_cube_module_per_d(monkeypatch):
    builds = []
    real = terwilliger.adjacency

    def counted(ctx):
        builds.append(ctx.D)
        return real(ctx)

    monkeypatch.setattr(terwilliger, "adjacency", counted)
    assert cli.run_cube(2, 5, None)["ok"]
    assert builds == [2, 3, 4, 5]
