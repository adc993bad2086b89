from fractions import Fraction
from itertools import product
from random import Random

import pytest

from hahnsl2.linalg import (
    EchelonBasis,
    SparseMatrix,
    charpoly,
    eigenspace,
    invert,
    kernel_basis,
    rational_eigenvalues,
    restrict_to_subspace,
    rref,
    solve,
    span_closure,
    vstack,
)

F = Fraction


def test_rref_proportional_rows():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]])
    basis, rank = rref(m)
    assert rank == 1
    assert basis.rows[0] == {0: F(1), 1: F(2)}


def test_rref_identity_and_zero():
    basis, rank = rref(SparseMatrix.identity(3))
    assert rank == 3
    basis, rank = rref(SparseMatrix.zero(4, 4))
    assert rank == 0
    assert len(basis) == 0


def test_rref_row_equivalence_mutual_span():
    rng = Random(7)
    m = SparseMatrix.from_rows(
        [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
    )
    basis, rank = rref(m)
    # every original row is in the span of the basis
    for r in range(m.rows):
        assert basis.coordinates(m.row(r)) is not None
    # and every basis row is a combination of original rows
    orig, _ = rref(m)
    for row in basis.rows:
        assert orig.coordinates(row) is not None


def test_kernel_basis_counts():
    assert kernel_basis(SparseMatrix.identity(4)) == []
    assert len(kernel_basis(SparseMatrix.zero(2, 2))) == 2
    m = SparseMatrix.from_rows([[1, 1], [0, 0]])
    vecs = kernel_basis(m)
    assert len(vecs) == 1
    v = vecs[0]
    # spans (1, -1) up to scale
    assert v[0] * F(-1) == v[1] * F(1) or v == {0: F(-1), 1: F(1)}


def test_kernel_vectors_are_exact_kernel():
    rng = Random(3)
    m = SparseMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(6)] for _ in range(4)]
    )
    vecs = kernel_basis(m)
    _, rank = rref(m)
    assert len(vecs) + rank == m.cols
    for v in vecs:
        assert m.apply(v) == {}


def test_eigenspace_h_on_three_dim_ladder():
    h = SparseMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert len(eigenspace(h, F(0))) == 1
    assert eigenspace(h, F(1)) == []
    top = eigenspace(h, F(2))
    assert top == [{0: F(1)}]


def test_eigenspace_requires_square():
    with pytest.raises(ValueError):
        eigenspace(SparseMatrix.zero(2, 3), F(1))


def test_span_closure_identity_only():
    _, dim = span_closure([SparseMatrix.identity(5)])
    assert dim == 1


def _dense_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_span_closure_two_dim_ladder_is_full_algebra():
    # oracle: brute-force span of all words up to length 4 in the 2x2
    # matrices of the smallest ladder module, using dense elimination
    e = [[F(0), F(1)], [F(0), F(0)]]
    f = [[F(0), F(0)], [F(1), F(0)]]
    h = [[F(1), F(0)], [F(0), F(-1)]]
    ident = [[F(1), F(0)], [F(0), F(1)]]

    def mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]

    words = [ident]
    for length in range(1, 5):
        for combo in product((e, f, h), repeat=length):
            m = ident
            for g in combo:
                m = mul(m, g)
            words.append(m)
    flat = [[m[0][0], m[0][1], m[1][0], m[1][1]] for m in words]
    assert _dense_rank(flat) == 4

    gens = [SparseMatrix.from_rows(x) for x in (e, f, h)]
    _, dim = span_closure(gens)
    assert dim == 4


def test_span_closure_output_closed_under_generators():
    rng = Random(11)
    gens = [
        SparseMatrix.from_rows([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        for _ in range(2)
    ]
    basis, dim = span_closure(gens)
    # post-hoc certification: basis times generator stays in the span
    n = 3
    for row in basis.rows:
        m = SparseMatrix(n, n, {(i // n, i % n): c for i, c in row.items()})
        for g in gens:
            prod = m * g
            vec = {r * n + c: v for r, c, v in prod.items()}
            assert basis.coordinates(vec) is not None


def test_in_span_basics():
    basis = EchelonBasis()
    basis.insert({0: F(1), 2: F(2)})
    basis.insert({1: F(1)})
    assert basis.coordinates(dict(basis.rows[0])) == [F(1), F(0)]
    assert basis.coordinates({}) == [F(0), F(0)]
    assert basis.coordinates({3: F(1)}) is None


def test_floats_are_refused_at_the_matrix_boundary():
    for build in (
        lambda: SparseMatrix(1, 1, {(0, 0): 0.1}),
        lambda: SparseMatrix.from_rows([[0.5]]),
        lambda: SparseMatrix.from_columns([{0: 0.5}], 1),
        lambda: SparseMatrix.identity(2).scale(0.5),
        lambda: eigenspace(SparseMatrix.identity(2), 1.0),
    ):
        with pytest.raises(TypeError):
            build()
    assert SparseMatrix(1, 1, {(0, 0): "1/10"}).get(0, 0) == F(1, 10)


def test_echelon_insert_keeps_reduced_invariants():
    rng = Random(5)
    basis = EchelonBasis()
    for _ in range(12):
        basis.insert({i: F(rng.randint(-3, 3)) for i in range(6)})
    assert basis.pivots == sorted(basis.pivots)
    for p, row in zip(basis.pivots, basis.rows):
        assert row[p] == 1
        for q, other in zip(basis.pivots, basis.rows):
            if q != p:
                assert p not in other


def test_operations_are_reproducible():
    m = SparseMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    b1, r1 = rref(m)
    b2, r2 = rref(m)
    assert r1 == r2
    assert b1.rows == b2.rows and b1.pivots == b2.pivots


def test_vstack_values_and_column_mismatch():
    top = SparseMatrix.from_rows([[1, 0, F(1, 2)]])
    bottom = SparseMatrix.from_rows([[0, 0, 0], [-3, 2, 0]])
    stacked = vstack(top, bottom)
    assert stacked == SparseMatrix.from_rows([[1, 0, F(1, 2)], [0, 0, 0], [-3, 2, 0]])
    assert top == SparseMatrix.from_rows([[1, 0, F(1, 2)]])
    with pytest.raises(ValueError):
        vstack(top, SparseMatrix.zero(1, 2))


def test_solve_and_invert():
    m = SparseMatrix.from_rows([[2, 1], [1, 1]])
    x = solve(m, {0: F(3), 1: F(2)})
    assert m.apply(x) == {0: F(3), 1: F(2)}
    mi = invert(m)
    assert m * mi == SparseMatrix.identity(2)
    assert invert(SparseMatrix.from_rows([[1, 2], [2, 4]])) is None
    assert solve(SparseMatrix.from_rows([[1, 1], [1, 1]]), {0: F(1), 1: F(2)}) is None


def test_charpoly_and_rational_eigenvalues():
    m = SparseMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, -1]])
    # det(xI - M) = (x-2)^2 (x+1) = x^3 - 3x^2 + 4
    assert charpoly(m) == [F(4), F(0), F(-3), F(1)]
    assert rational_eigenvalues(m) == {F(2): 2, F(-1): 1}
    rot = SparseMatrix.from_rows([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        rational_eigenvalues(rot)


def test_rational_eigenvalues_edge_cases():
    assert rational_eigenvalues(SparseMatrix.zero(3, 3)) == {F(0): 3}
    m = SparseMatrix.from_rows([[F(1, 2), 0], [1, F(-3, 5)]])
    assert rational_eigenvalues(m) == {F(1, 2): 1, F(-3, 5): 1}


def test_restrict_to_subspace():
    m = SparseMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    sub = restrict_to_subspace(m, [{0: F(1)}, {2: F(1)}])
    assert sub == SparseMatrix.from_rows([[1, 0], [0, 3]])
    with pytest.raises(ValueError):
        restrict_to_subspace(SparseMatrix.from_rows([[0, 1], [1, 0]]), [{0: F(1)}])
