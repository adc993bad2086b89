from fractions import Fraction
from itertools import product
from random import Random
import sys

import pytest

from hahnsl2 import usl2
from hahnsl2.linalg import SparseMatrix
from hahnsl2.reps import ModuleLabel, build_L, evaluate
from hahnsl2.usl2 import E, F, H, casimir, commutator, monomial, multiply, one, render
from tests.conftest import assert_canonical, dense, random_usl2_element, ue_basis_recompose
from tests.usl2_extra import parse, power, ue_basis_decompose, ue_basis_element

Q = Fraction


def test_defining_relations():
    assert multiply(F, E) == monomial(1, 1, 0) - H
    assert multiply(H, E) == monomial(1, 0, 1) + E.scale(2)
    assert multiply(H, F) == monomial(0, 1, 1) - F.scale(2)
    assert multiply(one(), E + F) == E + F


def _dense_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _dense_eval(element, mats):
    # independent evaluator: dense matrix products straight from the term map
    n = len(mats["E"])
    out = [[Q(0)] * n for _ in range(n)]
    for (i, j, k), c in element.terms.items():
        m = [[Q(r == s) for s in range(n)] for r in range(n)]
        for _ in range(i):
            m = _dense_mul(m, mats["E"])
        for _ in range(j):
            m = _dense_mul(m, mats["F"])
        for _ in range(k):
            m = _dense_mul(m, mats["H"])
        for r in range(n):
            for s in range(n):
                out[r][s] += c * m[r][s]
    return out


# the three-dimensional ladder module, straight from the action formulas
L2_MATS = {
    "E": [[Q(0), Q(2), Q(0)], [Q(0), Q(0), Q(1)], [Q(0), Q(0), Q(0)]],
    "F": [[Q(0), Q(0), Q(0)], [Q(1), Q(0), Q(0)], [Q(0), Q(2), Q(0)]],
    "H": [[Q(2), Q(0), Q(0)], [Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(-2)]],
}


def test_f_times_e_squared_matches_matrix_oracle():
    # oracle first: F*E^2 and E^2*F - 2EH - 2E agree as matrices on the
    # three-dimensional module, so the PBW form below is the right answer
    lhs = _dense_mul(L2_MATS["F"], _dense_mul(L2_MATS["E"], L2_MATS["E"]))
    claimed = monomial(2, 1, 0) - monomial(1, 0, 1).scale(2) - E.scale(2)
    rhs = _dense_eval(claimed, L2_MATS)
    assert lhs == rhs
    assert multiply(F, monomial(2, 0, 0)) == claimed


def test_floats_are_refused():
    for build in (
        lambda: monomial(1, 0, 0, 0.1),
        lambda: usl2.USL2Element({(1, 0, 0): 0.1}),
        lambda: E.scale(0.5),
        lambda: 0.5 * E,
    ):
        with pytest.raises(TypeError):
            build()
    assert monomial(1, 0, 0, "1/10") == E.scale(Q(1, 10))


def test_exponents_are_checked_even_with_zero_coefficient():
    for m in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        for coeff in (1, 0):
            with pytest.raises(ValueError):
                usl2.USL2Element({m: coeff})


def test_exponents_must_be_ints():
    for exps in ((Q(1, 2), 0, 0), (2.0, 0, 0), (0, Q(1), 0), (0, 0, "1")):
        for coeff in (1, 0):
            with pytest.raises(TypeError):
                usl2.USL2Element({exps: coeff})
        with pytest.raises(TypeError):
            monomial(*exps)


def test_commutator_examples():
    e3 = monomial(3, 0, 0)
    assert commutator(H, e3) == e3.scale(6)
    x = monomial(1, 2, 1, Q(3, 2))
    assert commutator(x, x).is_zero()
    # [H^2, F^2] = -8(H+2)F^2
    h2 = multiply(H, H)
    f2 = monomial(0, 2, 0)
    assert commutator(h2, f2) == multiply(H + one().scale(2), f2).scale(-8)


def test_casimir():
    lam = casimir()
    assert lam == monomial(1, 1, 0).scale(2) + monomial(0, 0, 2).scale(Q(1, 2)) - H
    assert commutator(lam, E).is_zero()
    assert commutator(lam, F).is_zero()
    assert commutator(lam, H).is_zero()


def test_casimir_scalar_on_small_ladder():
    lam_mat = _dense_eval(casimir(), L2_MATS)
    assert lam_mat == [[Q(4), Q(0), Q(0)], [Q(0), Q(4), Q(0)], [Q(0), Q(0), Q(4)]]


def test_rho_basics(rand_usl2):
    assert usl2.rho(E) == F
    assert usl2.rho(casimir()) == casimir()
    rng = Random(99)
    for _ in range(30):
        a = rand_usl2(rng)
        b = rand_usl2(rng)
        assert usl2.rho(usl2.rho(a)) == a
        assert usl2.rho(multiply(a, b)) == multiply(usl2.rho(a), usl2.rho(b))
        # grading flip
        comps = usl2.degree_components(a)
        flipped = usl2.degree_components(usl2.rho(a))
        assert set(flipped) == {-d for d in comps}


def test_degree_components():
    x = monomial(2, 1, 1)
    assert usl2.degree_components(x) == {1: x}
    lam = casimir()
    assert usl2.degree_components(lam) == {0: lam}
    b_img = (
        monomial(2, 0, 0) + monomial(0, 2, 0) + monomial(1, 1, 0).scale(2)
    ).scale(Q(1, 4)) - H.scale(Q(1, 4)) - one().scale(Q(1, 4))
    comps = usl2.degree_components(b_img)
    assert set(comps) == {2, 0, -2}
    assert comps[2] == monomial(2, 0, 0).scale(Q(1, 4))
    assert comps[-2] == monomial(0, 2, 0).scale(Q(1, 4))
    # the middle component is (Lam - 1)/4 - H^2/8
    middle = (casimir() - one()).scale(Q(1, 4)) - monomial(0, 0, 2).scale(Q(1, 8))
    assert comps[0] == middle


def test_associativity_sample(rand_usl2):
    rng = Random(4242)
    for _ in range(60):
        a, b, c = (rand_usl2(rng, max_terms=3, max_exp=2) for _ in range(3))
        assert multiply(a, multiply(b, c)) == multiply(multiply(a, b), c)


def test_grading_multiplicative(rand_usl2):
    rng = Random(17)
    for _ in range(30):
        a = rand_usl2(rng, max_terms=2, max_exp=2)
        b = rand_usl2(rng, max_terms=2, max_exp=2)
        prod_comp = usl2.degree_components(multiply(a, b))
        for da, ca in usl2.degree_components(a).items():
            for db, cb in usl2.degree_components(b).items():
                part = multiply(ca, cb)
                if not part.is_zero():
                    assert all(usl2.degree(m) == da + db for m in part.terms)
        assert multiply(a, b) == sum(prod_comp.values(), usl2.zero())


def test_power_identity_suite_small():
    items = usl2.power_identity_suite(3)
    assert all(i.status == "pass" for i in items)
    # n = 1 instance of the product identity: EF = (2*Lam - H(H-2))/4
    lhs = multiply(E, F)
    rhs = (casimir().scale(2) - multiply(H, H - one().scale(2))).scale(Q(1, 4))
    assert lhs == rhs


@pytest.mark.parametrize("n_max, products", [(4, 77), (8, 141), (10, 173)])
def test_power_identity_suite_makes_linearly_many_products(monkeypatch, n_max, products):
    # 12 products for each n (four brackets, (H -+ n) times E^n and F^n,
    # E^n F^n and F^n E^n), 4 more for n >= 1 (two Casimir factors and one
    # factor on each running product) and one for H^2.  Rebuilding the
    # running products for every n would cost O(n^2).
    calls = []
    real = usl2.multiply

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(usl2, "multiply", counted)
    usl2.power_identity_suite(n_max)
    assert len(calls) == products == 16 * n_max + 13


def test_power_identity_suite_rejects_zero():
    with pytest.raises(ValueError):
        usl2.power_identity_suite(0)



def test_rho_property_suite():
    items = usl2.rho_property_suite()
    assert [i.name for i in items] == [
        "rho is a homomorphism",
        "rho is an involution",
        "rho flips the grading",
    ]
    assert all(i.status == "pass" for i in items)
    assert all(r.is_zero() for r in usl2.rho_relations())


def test_rho_is_a_grading_flipping_involutive_automorphism_on_seeded_samples():
    # what rho_property_suite proves from E, F and H, checked on 100 seeded
    # pairs
    rng = Random(74)
    for _ in range(100):
        a = random_usl2_element(rng, max_terms=3)
        b = random_usl2_element(rng, max_terms=3)
        rho_a = usl2.rho(a)
        assert usl2.rho(multiply(a, b)) == multiply(rho_a, usl2.rho(b))
        assert usl2.rho(rho_a) == a
        flipped = usl2.degree_components(rho_a)
        assert set(flipped) == {-d for d in usl2.degree_components(a)}
        for d, comp in usl2.degree_components(a).items():
            assert usl2.rho(comp) == flipped[-d]


def test_rho_property_suite_fails_when_rho_breaks_a_relation(monkeypatch):
    # a rho that sends H to -2H breaks [H, E] = 2E at the images, and all
    # three items rest on the relations
    real = usl2.rho

    def broken(a):
        return real(a).scale(2) if a == H else real(a)

    monkeypatch.setattr(usl2, "rho", broken)
    assert [i.status for i in usl2.rho_property_suite()] == ["fail"] * 3


def test_verify_ue_presentation():
    items = usl2.verify_ue_presentation()
    assert all(i.status == "pass" for i in items)
    assert len(items) == 7
    assert [i.name for i in items] == [f"even presentation: {r}" for r in usl2.EVEN_RELATIONS]


def test_even_relations_vanish_in_pbw_form_and_on_the_halves():
    residuals = usl2.even_relations(monomial(2, 0, 0), monomial(0, 2, 0), casimir(), H, one())
    assert len(residuals) == 7
    assert all(r.is_zero() for r in residuals)
    for n in range(9):
        for half in [ModuleLabel(n, p).build() for p in ((0, 1) if n else (0,))]:
            residuals = usl2.even_relations(*half, SparseMatrix.identity(half.dim))
            assert len(residuals) == 7
            assert all(r.is_zero() for r in residuals)
    # a wrong image of H breaks the two commutator relations with E^2 and F^2
    residuals = usl2.even_relations(monomial(2, 0, 0), monomial(0, 2, 0), casimir(), H.scale(2), one())
    assert not residuals[0].is_zero() and not residuals[1].is_zero()


def test_ue_basis_decompose_simple():
    h3 = monomial(0, 0, 3)
    coords = ue_basis_decompose(h3)
    assert coords == {(0, 0, 0, 3): Q(1)}
    lam2 = power(casimir(), 2)
    coords = ue_basis_decompose(lam2)
    assert coords == {(0, 0, 2, 0): Q(1)}


def test_ue_basis_decompose_e2f2():
    e2f2 = multiply(monomial(2, 0, 0), monomial(0, 2, 0))
    coords = ue_basis_decompose(e2f2)
    assert ue_basis_recompose(coords) == e2f2
    # compare against the expansion of the n=2 product identity
    lam = casimir()
    expected = multiply(
        lam.scale(2) - multiply(H, H - one().scale(2)),
        lam.scale(2) - multiply(H - one().scale(2), H - one().scale(4)),
    ).scale(Q(1, 16))
    assert e2f2 == expected


def test_ue_basis_decompose_random_even(rand_usl2):
    rng = Random(31)
    for _ in range(20):
        a = rand_usl2(rng)
        even_part = sum(
            (c for d, c in usl2.degree_components(a).items() if d % 2 == 0),
            usl2.zero(),
        )
        coords = ue_basis_decompose(even_part)
        assert ue_basis_recompose(coords) == even_part


def test_ue_basis_decompose_rejects_odd():
    with pytest.raises(ValueError):
        ue_basis_decompose(E)


def _oracle_times_h(terms):
    return {(i, j, k + 1): c for (i, j, k), c in terms.items()}


def _binomial_shift(k, shift):
    # (H + shift)^k as {power: coefficient}
    from math import comb

    return {t: Q(comb(k, t)) * Q(shift) ** (k - t) for t in range(k + 1)}


def _oracle_times_f(terms):
    # E^i F^j H^k * F = E^i F^(j+1) (H-2)^k
    out = {}
    for (i, j, k), c in terms.items():
        for t, w in _binomial_shift(k, -2).items():
            key = (i, j + 1, t)
            out[key] = out.get(key, Q(0)) + c * w
    return {m: c for m, c in out.items() if c}


def _oracle_times_e(terms):
    # E^i F^j H^k * E = E^(i+1) F^j (H+2)^k - j E^i F^(j-1) (H-j+1)(H+2)^k
    out = {}
    for (i, j, k), c in terms.items():
        shifted = _binomial_shift(k, 2)
        for t, w in shifted.items():
            key = (i + 1, j, t)
            out[key] = out.get(key, Q(0)) + c * w
        if j:
            # (H - j + 1)(H + 2)^k expanded in powers of H
            poly = {}
            for t, w in shifted.items():
                poly[t + 1] = poly.get(t + 1, Q(0)) + w
                poly[t] = poly.get(t, Q(0)) + w * Q(1 - j)
            for t, w in poly.items():
                key = (i, j - 1, t)
                out[key] = out.get(key, Q(0)) - c * Q(j) * w
    return {m: c for m, c in out.items() if c}


def test_multiply_against_ladder_recurrence_oracle(rand_usl2):
    # independent route to the normal form: peel the right factor one
    # generator at a time with the closed-form commutation identities
    from random import Random

    rng = Random(555)
    for _ in range(40):
        a = rand_usl2(rng, max_terms=3, max_exp=3)
        d, e, f = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
        terms = dict(a.terms)
        for _ in range(d):
            terms = _oracle_times_e(terms)
        for _ in range(e):
            terms = _oracle_times_f(terms)
        for _ in range(f):
            terms = _oracle_times_h(terms)
        assert multiply(a, monomial(d, e, f)) == usl2.USL2Element(terms)


def test_core_product_matches_the_right_multiplication_oracle_up_to_h_power_9():
    # F^j1 H^k1 times E, i2 times, then times F, j2 times, by the oracles'
    # rules; the ladder-module check below stops at exponent 4
    for j1, k1, i2, j2 in product(range(4), range(10), range(4), range(4)):
        terms = {(0, j1, k1): Q(1)}
        for _ in range(i2):
            terms = _oracle_times_e(terms)
        for _ in range(j2):
            terms = _oracle_times_f(terms)
        assert dict(usl2._core_product(j1, k1, i2, j2)) == terms


def test_core_product_matches_ladder_modules_up_to_exponent_4():
    # independent oracle: on each L_n the normal form of F^j1 H^k1 E^i2 F^j2
    # acts as the product of the four factor matrices
    for n in range(9):
        rep = build_L(n)
        powers = {}
        for name in "EFH":
            mats = [SparseMatrix.identity(rep.dim)]
            for _ in range(4):
                mats.append(mats[-1] * getattr(rep, name))
            powers[name] = mats
        for j1, k1, i2, j2 in product(range(5), repeat=4):
            word = powers["F"][j1] * powers["H"][k1] * powers["E"][i2] * powers["F"][j2]
            normal = usl2.USL2Element(dict(usl2._core_product(j1, k1, i2, j2)))
            assert evaluate(rep, normal) == [word], (n, j1, k1, i2, j2)


def test_core_product_extends_its_chain_one_step_at_a_time():
    usl2._core_product.cache_clear()
    usl2._f_chain.cache_clear()
    reached = []
    for j1 in (5, 6, 9, 3, 9):
        usl2._core_product(j1, 2, 1, 1)
        reached.append(len(usl2._f_chain(2, 1, 1)) - 1)
    assert reached == [5, 6, 9, 9, 9]
    assert usl2._core_product.cache_info().misses == 4


def test_products_need_no_recursion_at_any_f_power():
    # F^n E = E F^n - [E, F^n], and [E, F^n] = n F^(n-1) (H - n + 1); with
    # H on the left of E, F^n H E = F^n E (H + 2).  The second product, at
    # n = 2,000, is its own chain, filled from F^0 under the default
    # recursion limit.
    assert sys.getrecursionlimit() < 2000
    n = 600
    assert multiply(monomial(0, n, 0), E) == (
        monomial(1, n, 0) - monomial(0, n - 1, 1, n) + monomial(0, n - 1, 0, n * (n - 1)))
    n = 2000
    assert multiply(monomial(0, n, 1), E) == (
        monomial(1, n, 1) + monomial(1, n, 0, 2) - monomial(0, n - 1, 2, n)
        + monomial(0, n - 1, 1, n * (n - 1) - 2 * n) + monomial(0, n - 1, 0, 2 * n * (n - 1)))


def test_render_parse_round_trip(rand_usl2):
    assert render(usl2.zero()) == "0"
    assert parse("0").is_zero()
    assert render(casimir()) == "2*E*F + 1/2*H^2 - H"
    assert parse(render(casimir())) == casimir()
    rng = Random(8)
    for _ in range(40):
        a = rand_usl2(rng)
        assert parse(render(a)) == a


def test_parse_multiplies_factors_in_order():
    assert parse("F*E") == multiply(F, E)
    assert parse("H*E") == multiply(H, E)
    assert parse("-2*F*E^2") == multiply(F, power(E, 2)).scale(-2)
    for text in ("", "   "):
        with pytest.raises(ValueError):
            parse(text)


def test_parse_refuses_zero_denominator():
    for text in ("2/0*E", "E - 1/0", "0/0*F*H"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse(text)


# Reference oracles: the Fraction-only product and rho, kept independent of
# the integer accumulation in usl2.multiply and usl2.rho.
def _fraction_multiply(a, b):
    out = {}
    for (i1, j1, k1), c1 in a.terms.items():
        for (i2, j2, k2), c2 in b.terms.items():
            for (i, j, k), c in usl2._core_product(j1, k1, i2, j2):
                m = (i + i1, j, k + k2)
                out[m] = out.get(m, Q(0)) + c1 * c2 * c
    return usl2.USL2Element({m: c for m, c in out.items() if c})


def _fraction_rho(a):
    # E^i F^j H^k -> F^i E^j (-H)^k, through products of monomials
    out = {}
    for (i, j, k), c in a.terms.items():
        img = _fraction_multiply(monomial(0, i, 0), monomial(j, 0, 0))
        img = _fraction_multiply(img, monomial(0, 0, k, (-1) ** k))
        for m, v in img.terms.items():
            out[m] = out.get(m, Q(0)) + c * v
    return usl2.USL2Element({m: c for m, c in out.items() if c})


# scales that mix new denominators into random_usl2_element's 1..4
MIXED_SCALES = [Q(1, 6), Q(3, 4), Q(-5, 2), Q(7, 9), Q(-2, 3), Q(11, 10), Q(4), Q(-1, 5)]


def _assert_clean(x):
    assert all(type(c) is Fraction and c != 0 for c in x.terms.values()), x.terms
    assert_canonical(x)


def test_integer_product_and_rho_match_fraction_oracles(rand_usl2):
    rng = Random(2024)

    def mixed():
        return rand_usl2(rng) + rand_usl2(rng).scale(rng.choice(MIXED_SCALES))

    cases = [
        (E + F, E - F),  # the EF terms cancel inside the accumulator
        (E - F, E + F),
        (monomial(1, 0, 0, Q(2, 3)), monomial(0, 1, 0, Q(3, 2))),  # denominators cancel
        (casimir(), casimir().scale(Q(-1, 6))),
        (usl2.zero(), E + F),
        (E, usl2.zero()),
    ]
    cases += [(mixed(), mixed()) for _ in range(80)]
    for a, b in cases:
        ab = multiply(a, b)
        assert ab == _fraction_multiply(a, b), (a, b)
        _assert_clean(ab)
        for x in (a, b, ab):
            image = usl2.rho(x)
            assert image == _fraction_rho(x), x
            _assert_clean(image)
    assert multiply(E + F, E - F) == monomial(2, 0, 0) - H - monomial(0, 2, 0)


def _fraction_sum(a, b):
    out = dict(a.terms)
    for m, c in b.terms.items():
        out[m] = out.get(m, Q(0)) + c
    return {m: c for m, c in out.items() if c}


def _fraction_ue_basis_element(part, n, i, k):
    # E^(2n) Lam^i H^k (part 1), F^(2n) Lam^i H^k (part -1) or Lam^i H^k,
    # each product and the H shift taken term by term in Fractions
    out = one()
    for _ in range(i):
        out = _fraction_multiply(out, casimir())
    if part:
        out = _fraction_multiply(monomial(2 * n, 0, 0) if part == 1 else monomial(0, 2 * n, 0), out)
    return {(x, y, z + k): c for (x, y, z), c in out.terms.items()}


def test_sums_components_and_even_basis_match_fraction_oracles(rand_usl2):
    rng = Random(2025)
    for _ in range(80):
        a = rand_usl2(rng).scale(rng.choice(MIXED_SCALES))
        b = rand_usl2(rng).scale(rng.choice(MIXED_SCALES))
        s = rng.choice(MIXED_SCALES)
        assert (a + b).terms == _fraction_sum(a, b), (a, b)
        assert (a - b).terms == _fraction_sum(a, usl2.USL2Element({m: -c for m, c in b.terms.items()}))
        assert a.scale(s).terms == {m: s * c for m, c in a.terms.items()}
        assert (-a).terms == {m: -c for m, c in a.terms.items()}
        components = usl2.degree_components(a)
        assert sorted(components) == sorted({usl2.degree(m) for m in a.terms})
        for d, comp in components.items():
            assert comp.terms == {m: c for m, c in a.terms.items() if usl2.degree(m) == d}
            _assert_clean(comp)
        for x in (a + b, a - b, a.scale(s)):
            _assert_clean(x)
    for part, n, i, k in product((-1, 0, 1), range(3), range(4), range(3)):
        if (part == 0) != (n == 0):
            continue
        x = ue_basis_element(part, n, i, k)
        assert x.terms == _fraction_ue_basis_element(part, n, i, k), (part, n, i, k)
        _assert_clean(x)


def test_evaluate_matches_dense_fraction_oracle(rand_usl2):
    rep = build_L(2)
    rng = Random(2026)
    for _ in range(20):
        a = rand_usl2(rng, max_exp=2).scale(rng.choice(MIXED_SCALES))
        assert dense(evaluate(rep, a)[0]) == _dense_eval(a, L2_MATS), a


@pytest.mark.parametrize("seed", range(6))
def test_combination_storage_is_canonical(seed, rand_usl2):
    rng = Random(300 + seed)
    a = rand_usl2(rng).scale(rng.choice(MIXED_SCALES))
    b = rand_usl2(rng).scale(rng.choice(MIXED_SCALES))
    zero = usl2.zero()
    results = [a + b, a - b, a - a, -a, a.scale(rng.choice(MIXED_SCALES)), a.scale(0),
               multiply(a, b), multiply(a, zero), usl2.rho(a), usl2.rho(zero), power(a, 2),
               *usl2.degree_components(a).values()]
    for x in results:
        assert_canonical(x)
    for x in (a - a, a.scale(0), multiply(a, zero), usl2.rho(zero)):
        assert x.is_zero() and x._den == 1 and x == zero and hash(x) == hash(zero)
    # one element reached by different paths has one storage
    for x, y in [(a.scale(Q(1, 3)).scale(3), a), (a + b - b, a), (usl2.USL2Element(a.terms), a),
                 (a + a, a.scale(2)), (multiply(a, b).scale(Q(-2, 7)), multiply(a.scale(-2), b.scale(Q(1, 7))))]:
        assert x == y and hash(x) == hash(y)
        assert (x._num, x._den) == (y._num, y._den)
    # terms is a fresh view: mutating it leaves the element alone
    before = a.terms
    view = a.terms
    view[(9, 9, 9)] = Q(1)
    view.pop(next(iter(before)))
    assert a.terms == before and a == usl2.USL2Element(before)
    with pytest.raises(AttributeError):
        a.terms = {}
    for bad in (0.5, 2.0):
        with pytest.raises(TypeError):
            usl2.USL2Element({(1, 0, 0): bad})
        with pytest.raises(TypeError):
            a.scale(bad)


def test_int_coefficients_build_no_fraction(monkeypatch):
    from hahnsl2 import linalg

    calls = []
    real = linalg.as_fraction

    def counting(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(linalg, "as_fraction", counting)
    x = usl2.USL2Element({(1, 0, 0): 3, (0, 1, 0): 0, (0, 0, 2): -6})
    for y in (x, usl2.zero(), one(), monomial(2, 1, 0), monomial(2, 1, 0, 0)):
        assert_canonical(y)
    assert calls == []
    assert x._num == {(1, 0, 0): 3, (0, 0, 2): -6} and x._den == 1
    assert monomial(2, 1, 0, 0) == usl2.zero()
    # a Fraction, a str or a bool still goes through as_fraction, and a
    # mixture is cleared to one common denominator
    mixed = usl2.USL2Element({(1, 0, 0): 3, (0, 1, 0): Q(1, 2), (0, 0, 1): "-2/3", (1, 1, 0): True})
    assert len(calls) == 3
    assert mixed._num == {(1, 0, 0): 18, (0, 1, 0): 3, (0, 0, 1): -4, (1, 1, 0): 6} and mixed._den == 6
    assert mixed == usl2.USL2Element({m: Q(c) for m, c in mixed.terms.items()})
