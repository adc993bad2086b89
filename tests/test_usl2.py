from fractions import Fraction
from itertools import product
from random import Random

import pytest

from hahnsl2 import usl2
from hahnsl2.linalg import SparseMatrix
from hahnsl2.reps import build_L, evaluate
from hahnsl2.usl2 import E, F, H, casimir, commutator, monomial, multiply, one, parse, render

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


def test_is_even():
    assert usl2.is_even(monomial(2, 0, 0))
    assert not usl2.is_even(E)
    assert usl2.is_even(casimir())


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


def test_power_identity_suite_rejects_zero():
    with pytest.raises(ValueError):
        usl2.power_identity_suite(0)


def test_verify_ue_presentation():
    items = usl2.verify_ue_presentation()
    assert all(i.status == "pass" for i in items)
    assert len(items) == 7


def test_ue_basis_decompose_simple():
    h3 = monomial(0, 0, 3)
    coords = usl2.ue_basis_decompose(h3)
    assert coords == {(0, 0, 0, 3): Q(1)}
    lam2 = casimir() ** 2
    coords = usl2.ue_basis_decompose(lam2)
    assert coords == {(0, 0, 2, 0): Q(1)}


def test_ue_basis_decompose_e2f2():
    e2f2 = multiply(monomial(2, 0, 0), monomial(0, 2, 0))
    coords = usl2.ue_basis_decompose(e2f2)
    assert usl2.ue_basis_recompose(coords) == e2f2
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
        coords = usl2.ue_basis_decompose(even_part)
        assert usl2.ue_basis_recompose(coords) == even_part


def test_ue_basis_decompose_rejects_odd():
    with pytest.raises(ValueError):
        usl2.ue_basis_decompose(E)


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
            assert evaluate(normal, rep) == word, (n, j1, k1, i2, j2)


def test_render_parse_round_trip(rand_usl2):
    assert render(usl2.zero()) == "0"
    assert parse("0").is_zero()
    assert render(casimir()) == "2*E*F + 1/2*H^2 - H"
    assert parse(render(casimir())) == casimir()
    rng = Random(8)
    for _ in range(40):
        a = rand_usl2(rng)
        assert parse(render(a)) == a
