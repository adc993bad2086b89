"""Property tests.  Every run is derandomized and uses no example database,
so the suite draws the same examples each time."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnsl2.freealg import FreePoly, fmultiply, ideal_membership
from hahnsl2.hahn import presentation
from hahnsl2.linalg import EchelonBasis
from hahnsl2.usl2 import E, F, H, USL2Element, multiply, one, render, rho, zero
from tests.conftest import assert_echelon_invariants, reference_ideal_membership
from tests.usl2_extra import parse, power

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

COLS = 6
rows = st.lists(st.lists(st.integers(-4, 4), min_size=COLS, max_size=COLS), min_size=1, max_size=8)
non_integers = st.one_of(st.fractions(-4, 4, max_denominator=3), st.floats(-4, 4)).filter(bool)


@PROPERTY
@given(rows, st.integers(0, COLS - 1), non_integers)
def test_echelon_basis_invariants_and_rank(dense_rows, col, bad):
    """The integer contract: primitive rows with a positive pivot entry,
    strictly increasing pivots that vanish in every other row, every
    inserted vector reducing to {}, explicit zero entries ignored, and an
    entry that is not an int refused by gcd."""
    vectors = [dict(enumerate(row)) for row in dense_rows]  # zeros stored
    basis, sparse = EchelonBasis(), EchelonBasis()
    for v in vectors:
        size = len(basis)
        assert basis.insert(v) == (len(basis) == size + 1)
        sparse.insert({i: x for i, x in v.items() if x})
    assert_echelon_invariants(basis)
    assert all(basis.reduce(v) == {} for v in vectors)
    assert len(basis) == sympy.Matrix(dense_rows).rank()
    assert (sparse.pivots, sparse._rows) == (basis.pivots, basis._rows)
    with pytest.raises(TypeError):
        basis.insert({col: bad})
    assert (sparse.pivots, sparse._rows) == (basis.pivots, basis._rows)


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


AB = ("A", "B")
coefficients = st.fractions(-4, 4, max_denominator=3)
nonzero = coefficients.filter(bool)
usl2_elements = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=4
).map(USL2Element)
free_polys = st.dictionaries(st.text(AB, max_size=3), coefficients, max_size=4).map(
    lambda terms: FreePoly(AB, terms)
)


@PROPERTY
@given(usl2_elements, usl2_elements, usl2_elements)
def test_multiply_is_associative(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@PROPERTY
@given(free_polys, free_polys, free_polys)
def test_fmultiply_is_associative(a, b, c):
    assert fmultiply(fmultiply(a, b), c) == fmultiply(a, fmultiply(b, c))


def _check_combination_laws(a, b, c):
    assert a + b - b == a
    assert a.scale(c).scale(1 / c) == a
    assert (a - a).is_zero()
    # equal elements built in different orders hash equal
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert hash(a.scale(c).scale(1 / c)) == hash(a)


@PROPERTY
@given(usl2_elements, usl2_elements, nonzero)
def test_usl2_combination_laws(a, b, c):
    _check_combination_laws(a, b, c)


@PROPERTY
@given(free_polys, free_polys, nonzero)
def test_free_poly_combination_laws(a, b, c):
    _check_combination_laws(a, b, c)


@PROPERTY
@given(usl2_elements)
def test_parse_inverts_render(a):
    assert parse(render(a)) == a


side_words = st.text(AB, max_size=2)
ideal_products = st.lists(
    st.tuples(nonzero, side_words, st.integers(0, 3), side_words), min_size=1, max_size=3
)


@PROPERTY
@given(ideal_products)
def test_certificates_replay_random_ideal_members(products):
    relators = list(presentation().relators)
    target = FreePoly(AB)
    for c, u, gi, v in products:
        left, right = FreePoly(AB, {u: 1}), FreePoly(AB, {v: 1})
        target = target + fmultiply(fmultiply(left, relators[gi]), right).scale(c)
    # every product has degree at most this bound, so the search must find one
    bound = 4 + max(len(u) + len(v) for _, u, _, v in products)
    cert = ideal_membership(target, relators, bound)
    assert cert is not None
    assert cert.replay() == target


@PROPERTY
@given(st.lists(free_polys, min_size=1, max_size=3), free_polys,
       st.lists(st.tuples(nonzero, st.text(AB, max_size=1), st.integers(0, 2),
                          st.text(AB, max_size=1)), max_size=2),
       st.integers(0, 5))
def test_search_matches_the_reference_on_random_generators(generators, noise, products, bound):
    """Skipping the candidates that extend a dependent one changes no
    certificate and no None: random generators of degree <= 3, and a target
    that is a random polynomial plus products u*g*v, so some are members."""
    target = noise
    for c, u, gi, v in products:
        left, right = FreePoly(AB, {u: 1}), FreePoly(AB, {v: 1})
        target = target + fmultiply(fmultiply(left, generators[gi % len(generators)]), right).scale(c)
    bound = max(bound, target.degree())
    assert ideal_membership(target, generators, bound) == reference_ideal_membership(
        target, generators, bound)


def _substitute_rho(a):
    # E -> F, F -> E, H -> -H, applied term by term with multiply
    out = zero()
    for (i, j, k), c in a.terms.items():
        out = out + multiply(multiply(power(F, i), power(E, j)), power(-H, k)).scale(c)
    return out


@PROPERTY
@given(usl2_elements)
def test_rho_is_the_substitution_homomorphism(a):
    assert rho(a) == _substitute_rho(a)
    assert rho(zero()) == zero()
