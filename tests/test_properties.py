"""Property tests.  Every run is derandomized and uses no example database,
so the suite draws the same examples each time."""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnsl2.linalg import EchelonBasis
from hahnsl2.usl2 import E, F, H, multiply, one, parse

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

COLS = 6
entries = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=3))
rows = st.lists(st.lists(entries, min_size=COLS, max_size=COLS), min_size=1, max_size=8)


@PROPERTY
@given(rows)
def test_echelon_basis_invariants_and_rank(dense_rows):
    basis = EchelonBasis()
    for row in dense_rows:
        basis.insert({i: c for i, c in enumerate(row) if c})
    assert all(p < q for p, q in zip(basis.pivots, basis.pivots[1:]))
    for p, row in zip(basis.pivots, basis.rows):
        assert min(row) == p and row[p] == 1
        assert all(p not in other for other in basis.rows if other is not row)
    assert len(basis) == sympy.Matrix(dense_rows).rank()


GENERATORS = {"E": E, "F": F, "H": H}
words = st.lists(st.tuples(st.sampled_from("EFH"), st.integers(1, 3)), min_size=1, max_size=5)


@PROPERTY
@given(words)
def test_parse_multiplies_factors_in_order(word):
    text = "*".join(g if n == 1 else f"{g}^{n}" for g, n in word)
    expected = one()
    for g, n in word:
        for _ in range(n):
            expected = multiply(expected, GENERATORS[g])
    assert parse(text) == expected

