from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from hahnsl2 import usl2
from hahnsl2.freealg import (
    FreePoly,
    MembershipCertificate,
    fmultiply,
    ideal_membership,
    substitute,
)
from hahnsl2.hahn import (
    _identity_targets,
    _kernel_relation_targets,
    natural_images,
    presentation,
    tilde_rho,
)
from hahnsl2.linalg import SparseMatrix, commutator
from tests.conftest import assert_canonical, from_dense, random_free_poly, reference_ideal_membership
from tests.usl2_extra import power

Q = Fraction
AB = ("A", "B")


def gen(name):
    return FreePoly.gen(AB, name)


def test_fmultiply_basics():
    a, b = gen("A"), gen("B")
    assert fmultiply(a, b) == FreePoly(AB, {"AB": Q(1)})
    prod = fmultiply(a + b, a - b)
    assert prod == FreePoly(AB, {"AA": Q(1), "AB": Q(-1), "BA": Q(1), "BB": Q(-1)})
    p = FreePoly(AB, {"ABA": Q(2, 3), "": Q(1)})
    assert fmultiply(FreePoly.one(AB), p) == p
    assert fmultiply(p, FreePoly.one(AB)) == p


def test_alphabet_mismatch():
    with pytest.raises(ValueError):
        fmultiply(gen("A"), FreePoly.gen(("X", "Y"), "X"))
    with pytest.raises(ValueError):
        gen("A") + FreePoly.gen(("A", "C"), "A")
    with pytest.raises(ValueError):
        ideal_membership(gen("A"), [FreePoly.gen(("A", "C"), "A")], degree_bound=2)
    # the same terms over another alphabet are another polynomial
    assert gen("A") != FreePoly.gen(("A", "C"), "A")
    with pytest.raises(TypeError):
        gen("A") + usl2.H


def test_products_of_two_kinds_are_refused():
    # the product checks its operands as the sum does, both ways round
    a = presentation().A
    for x, y, message in ((a, usl2.H, "FreePoly with USL2Element"), (usl2.H, a, "USL2Element with FreePoly")):
        with pytest.raises(TypeError, match=f"cannot combine {message}"):
            x * y
        with pytest.raises(TypeError, match=f"cannot combine {message}"):
            x + y
    with pytest.raises(ValueError, match="different alphabets"):
        a * FreePoly.gen(("A", "C"), "A")


def test_words_are_checked_even_with_zero_coefficient():
    with pytest.raises(ValueError):
        FreePoly(AB, {"AC": 0})


def test_words_must_be_strings():
    for word in (("A", "B"), b"AB", 1):
        for coeff in (1, 0):
            with pytest.raises(TypeError):
                FreePoly(AB, {word: coeff})


def test_floats_are_refused():
    with pytest.raises(TypeError):
        FreePoly(AB, {"A": 0.1})
    with pytest.raises(TypeError):
        gen("A").scale(0.5)
    assert FreePoly(AB, {"A": "1/10"}) == gen("A").scale(Q(1, 10))


def test_substitute_into_usl2():
    # AB - BA with A -> H/4 and B -> the natural B-image lands on (E^2-F^2)/4
    from hahnsl2.hahn import natural_images

    p = commutator(gen("A"), gen("B"))
    img = substitute(p, natural_images(), usl2.one())
    assert img == (usl2.monomial(2, 0, 0) - usl2.monomial(0, 2, 0)).scale(Q(1, 4))


def test_substitute_unit_and_matrices():
    images = {"A": from_dense([[1, 0], [0, -1]]), "B": SparseMatrix.identity(2)}
    assert substitute(FreePoly.one(AB), images, SparseMatrix.identity(2)) == SparseMatrix.identity(2)
    sq = substitute(FreePoly(AB, {"AA": Q(1)}), images, SparseMatrix.identity(2))
    assert sq == SparseMatrix.identity(2)


def test_substitute_extends_the_longest_prefix_in_its_memo(monkeypatch):
    # the identity homomorphism of the free algebra, counted by fmultiply:
    # a word costs one product per prefix of length >= 2 not yet in the memo
    import hahnsl2.freealg as freealg

    products = []
    real = freealg.fmultiply

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(freealg, "fmultiply", counted)
    images, one, memo = {"A": gen("A"), "B": gen("B")}, FreePoly.one(AB), {}
    for words, cost in ((["ABA"], 2), (["ABAB", "AB"], 1), (["ABBA", "B", ""], 2), (["ABAB"], 0)):
        p = FreePoly(AB, {w: Q(k + 1, 3) for k, w in enumerate(words)})
        products.clear()
        assert substitute(p, images, one, memo) == p
        assert len(products) == cost, words
    assert memo == {w: FreePoly(AB, {w: Q(1)}) for w in ("AB", "ABA", "ABAB", "ABB", "ABBA")}


def test_substitute_missing_image():
    with pytest.raises(KeyError):
        substitute(gen("B"), {"A": usl2.H}, usl2.one())


def test_membership_single_generator_is_trivial_certificate():
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    cert = ideal_membership(g, [g], degree_bound=4)
    assert cert is not None
    assert list(cert.triples) == [(Q(1), "", 0, "")]
    assert cert.replay() == g


def test_membership_zero_target():
    g = gen("A")
    cert = ideal_membership(FreePoly(AB), [g], degree_bound=2)
    assert cert is not None and cert.triples == ()
    assert cert.replay().is_zero()


def test_membership_bound_too_small():
    g = gen("A")
    target = FreePoly(AB, {"AAA": Q(1)})
    with pytest.raises(ValueError):
        ideal_membership(target, [g], degree_bound=2)


def test_membership_positive_and_replay():
    # x = A*g*B + 2*g with g = AB - BA is a member by construction
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    a, b = gen("A"), gen("B")
    target = fmultiply(fmultiply(a, g), b) + g.scale(2)
    cert = ideal_membership(target, [g], degree_bound=6)
    assert cert is not None
    assert cert.replay() == target


def test_membership_coefficients_follow_generator_denominators():
    # the echelon columns hold each generator's integer numerators, so the
    # certificate must put every generator's denominator back
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    h = FreePoly(AB, {"A": Q(1), "BB": Q(1)})
    a, b = gen("A"), gen("B")
    target = fmultiply(fmultiply(a, g), b) + g.scale(2) + fmultiply(h, a).scale(Q(-1, 5))
    plain = ideal_membership(target, [g, h], degree_bound=6)
    scaled = ideal_membership(target, [g.scale(Q(2, 3)), h.scale(Q(-5, 7))], degree_bound=6)
    assert plain is not None and scaled is not None
    ratio = (Q(3, 2), Q(-7, 5))
    assert scaled.triples == tuple((c * ratio[gi], u, gi, v) for c, u, gi, v in plain.triples)
    assert scaled.replay() == plain.replay() == target


def test_certification_builds_no_matrix(monkeypatch):
    # the kept integer columns and the target's numerators go straight to
    # linalg.kernel_vectors; no SparseMatrix is built on the way
    def refused(*args, **kwargs):
        raise AssertionError("ideal_membership built a SparseMatrix")

    monkeypatch.setattr(SparseMatrix, "__init__", refused)
    monkeypatch.setattr(SparseMatrix, "_new", refused)
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    h = FreePoly(AB, {"A": Q(1), "BB": Q(1)})
    a, b = gen("A"), gen("B")
    target = fmultiply(fmultiply(a, g), b).scale(Q(3, 4)) + fmultiply(h, a).scale(Q(-1, 5))
    cert = ideal_membership(target, [g.scale(Q(2, 3)), h], degree_bound=6)
    assert cert is not None and cert.replay() == target


def test_membership_raises_when_certificate_does_not_replay(monkeypatch):
    # an explicit check, not an assert, so it also runs under python -O
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    monkeypatch.setattr(MembershipCertificate, "replay", lambda self: FreePoly(AB))
    with pytest.raises(ArithmeticError):
        ideal_membership(fmultiply(gen("A"), g), [g], degree_bound=3)


def test_membership_monotone_in_bound():
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    target = fmultiply(gen("A"), g)
    for bound in (3, 4, 6):
        cert = ideal_membership(target, [g], degree_bound=bound)
        assert cert is not None and cert.replay() == target


def test_non_member_up_to_bound_with_natural_oracle():
    # A cannot lie in the relator ideal: the natural map kills every relator
    # but sends A to H/4, which is nonzero
    from hahnsl2.hahn import natural, presentation

    pres = presentation()
    for rel in pres.relators:
        assert natural(rel).is_zero()
    assert not natural(pres.A).is_zero()
    assert ideal_membership(pres.A, list(pres.relators), degree_bound=6) is None


def test_random_members_certify_and_map_to_zero(rand_free_poly):
    # random elements of the relator ideal certify, replay exactly, and die
    # under any substitution killing the generators (the natural map here)
    from hahnsl2.hahn import natural, presentation

    pres = presentation()
    rng = Random(2023)
    for _ in range(6):
        target = FreePoly(AB)
        for _ in range(rng.randint(1, 2)):
            u = "".join(rng.choice(AB) for _ in range(rng.randint(0, 2)))
            v = "".join(rng.choice(AB) for _ in range(rng.randint(0, 2)))
            gi = rng.randrange(len(pres.relators))
            c = Q(rng.randint(-3, 3), rng.randint(1, 2))
            piece = fmultiply(
                fmultiply(FreePoly(AB, {u: Q(1)}), pres.relators[gi]),
                FreePoly(AB, {v: Q(1)}),
            ).scale(c)
            target = target + piece
        bound = max(target.degree(), 4) + 2
        cert = ideal_membership(target, list(pres.relators), degree_bound=bound)
        assert cert is not None
        assert cert.replay() == target
        assert natural(target).is_zero()


def test_certificate_json_shape():
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    cert = ideal_membership(fmultiply(gen("B"), g), [g], degree_bound=4)
    doc = cert.as_json_dict()
    assert doc["alphabet"] == "AB"
    for term in doc["terms"]:
        assert set(term) == {"coefficient", "left", "generator", "right"}
        Fraction(term["coefficient"])  # parses back exactly


def test_degree_and_str():
    p = FreePoly(AB, {"": Q(2), "AB": Q(-1)})
    assert p.degree() == 2
    assert FreePoly(AB).degree() == 0
    assert str(FreePoly(AB)) == "0"
    assert str(p) == "2 - AB"
    # length-lexicographic order, unit first; coefficient 1 is left out
    q = FreePoly(AB, {"BA": Q(1), "AB": Q(-2, 3), "": Q(-5, 2), "B": Q(1)})
    assert str(q) == "-5/2 + B - 2/3*AB + BA"
    assert repr(q) == "FreePoly(-5/2 + B - 2/3*AB + BA)"


# The search numbers its columns by a degree-first order on words, so each
# candidate u*g*v pivots on u*lead(g)*v.  A candidate is kept exactly when it
# is independent of the earlier ones, which no column order changes, so the
# certificates and the None results below are those of any other order.

def _hatted_residual():
    from hahnsl2.hahn import _identity_targets

    return dict(_identity_targets())["hatted-HE2-commutator"]


def test_membership_at_bound_30_equals_bound_8_without_a_table_of_words():
    # 2^31 words have length <= 30; the search must touch only those it meets
    from time import perf_counter

    from hahnsl2.hahn import presentation

    relators = list(presentation().relators)
    residual = _hatted_residual()
    at_8 = ideal_membership(residual, relators, 8)
    start = perf_counter()
    at_30 = ideal_membership(residual, relators, 30)
    assert perf_counter() - start < 1
    assert at_8 is not None and at_30 == at_8


def test_generator_above_the_bound_changes_nothing():
    from hahnsl2.hahn import presentation

    relators = list(presentation().relators)
    residual = _hatted_residual()
    high = FreePoly(AB, {"A" * 9: Q(1), "B": Q(2)})
    without = ideal_membership(residual, relators, 8)
    with_high = ideal_membership(residual, relators + [high], 8)
    assert with_high.triples == without.triples


# 3/2*ABAB - 2*AAB, the target the ideal-exhaust bench draws with seed 1
NONMEMBER = FreePoly(AB, {"ABAB": Q(3, 2), "AAB": Q(-2)})


def _counted_echelon(monkeypatch) -> Counter:
    """A Counter of the inserts, accepted inserts and eliminations made
    from here on in any EchelonBasis."""
    from hahnsl2 import linalg

    calls = Counter()
    insert, eliminate = linalg.EchelonBasis.insert, linalg._eliminate

    def counting_insert(self, v):
        accepted = insert(self, v)
        calls["insert"] += 1
        calls["accepted"] += accepted
        return accepted

    def counting_eliminate(w, row, p):
        calls["eliminate"] += 1
        return eliminate(w, row, p)

    monkeypatch.setattr(linalg.EchelonBasis, "insert", counting_insert)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    return calls


def test_seeded_nonmember_exhausts_bound_8(monkeypatch):
    from hahnsl2.hahn import natural

    # the natural map kills every relator but not the target
    assert not natural(NONMEMBER).is_zero()
    calls = _counted_echelon(monkeypatch)
    assert ideal_membership(NONMEMBER, list(presentation().relators), 8) is None
    # relator 2 = [beta, A] is -[alpha, B], relator 1: it is rejected as its
    # own first candidate, and its other 128 candidates are skipped; 48 more
    # extend a rejected candidate and are skipped too (388 inserts without)
    assert (calls["insert"], calls["accepted"]) == (340, 327)
    # 1,532 here; 1,789 skipping only generators, 2,238 skipping nothing;
    # numbering words by first appearance took 15,672
    assert calls["eliminate"] <= 1550


@pytest.mark.parametrize("bound", range(5, 10))
def test_the_search_skips_only_dependent_candidates(monkeypatch, bound):
    # the reference inserts every candidate; equal accepted counts mean
    # that every skipped candidate would have been rejected
    relators = list(presentation().relators)
    calls = _counted_echelon(monkeypatch)
    assert ideal_membership(NONMEMBER, relators, bound) is None
    ours = calls.copy()
    calls.clear()
    assert reference_ideal_membership(NONMEMBER, relators, bound) is None
    assert ours["accepted"] == calls["accepted"]
    assert ours["insert"] < calls["insert"]


def test_extensions_of_a_rejected_candidate_with_sides_are_skipped(monkeypatch):
    # Over [AB, A], A is kept at degree 1 and AB, AA at degree 2; then
    # (1, A, B) = AB is the first rejected candidate, with v = B, and (A, A, 1)
    # = AA the second, with u = A.  Neither generator is rejected as its own
    # first candidate, yet at degree 3 the seven candidates that extend one
    # of the two, such as (1, A, BA), (A, A, A) and (BA, A, 1), are skipped:
    # 15 inserts where the reference makes 22, and the same 11 accepted.
    a, b = gen("A"), gen("B")
    generators = [a * b, a]
    calls = _counted_echelon(monkeypatch)
    assert ideal_membership(b * b * b, generators, 3) is None
    ours = calls.copy()
    calls.clear()
    assert reference_ideal_membership(b * b * b, generators, 3) is None
    assert (ours["insert"], ours["accepted"]) == (15, 11)
    assert (calls["insert"], calls["accepted"]) == (22, 11)
    for target in (b * a * b, a * a * b - b * a, a * b * a + b * a * a):
        _assert_same_search(target, generators, 3)


def test_skipping_by_other_sub_candidates_would_change_the_search(monkeypatch):
    # Only u[1:]*g*v and u*g*v[:-1] pass a rejection on.  Skipping u*g*v when
    # u*g*v[1:] is dead would lose a candidate of the first search and change
    # its certificate; reading u[1:]*g*v with |v| + 1 would keep one fewer
    # candidate in the second.
    a, b, one = gen("A"), gen("B"), FreePoly.one(AB)
    cases = [
        ([-b.scale(3) - b * b, -b, one - b.scale(3) - (b * a * b).scale(3)],
         one + b * a * a * b * a, 5),
        ([(b * a).scale(-2), (a * b).scale(2), -(b * a)], b.scale(3), 3),
    ]
    calls = _counted_echelon(monkeypatch)
    for generators, target, bound in cases:
        calls.clear()
        got = ideal_membership(target, generators, bound)
        ours = calls["accepted"]
        calls.clear()
        assert got == reference_ideal_membership(target, generators, bound)
        assert ours == calls["accepted"]


def _assert_same_search(target, generators, bound):
    got = ideal_membership(target, generators, bound)
    assert got == reference_ideal_membership(target, generators, bound)
    return got


def test_search_matches_the_reference_on_the_verify_hahn_targets():
    # the skipped generators and the integer words change no certificate:
    # relator 2 is -(relator 1), so it is rejected as its own first candidate
    # and skipped over both generator lists
    pres = presentation()
    targets = [t for _, t in [*_identity_targets(), *_kernel_relation_targets()]]
    assert len(targets) == 18
    found = [sum(_assert_same_search(t, list(gens), 8) is not None for t in targets)
             for gens in (pres.relators, pres.kernel_generators)]
    assert found == [16, 18]


def test_search_matches_the_reference_on_seeded_targets():
    # seeded members u*g*v of the relator ideal, relator 2 (skipped) among
    # them, with and without a seeded random polynomial added
    relators = list(presentation().relators)
    rng = Random(33)
    found = 0
    for k in range(16):
        target = random_free_poly(rng) if k % 2 else FreePoly(AB)
        for _ in range(rng.randint(1, 2)):
            u, v = ("".join(rng.choice(AB) for _ in range(rng.randint(0, 1))) for _ in "uv")
            piece = fmultiply(fmultiply(FreePoly(AB, {u: Q(1)}), relators[rng.randrange(4)]),
                              FreePoly(AB, {v: Q(1)}))
            target = target + piece.scale(Q(rng.randint(1, 3), rng.randint(1, 2)))
        found += _assert_same_search(target, relators, 6) is not None
    assert 8 <= found < 16


def test_search_matches_the_reference_with_repeated_and_scaled_generators():
    g0, g1 = presentation().relators[:2]
    a, b = gen("A"), gen("B")
    low = [a * b + a, a * b, a]  # a is a combination of earlier generators
    cases = [
        ([g0, -g1, g1, g0.scale(3)], _hatted_residual(), 6),
        ([g0, -g1, g1, g0.scale(3)], NONMEMBER, 6),
        ([FreePoly(AB), g0, g1], _hatted_residual(), 6),
        (low, a, 1),
        (low, b * a - a * b + b * a * b, 3),
        (low + [a.scale(2)], a * a * a, 3),
    ]
    for generators, target, bound in cases:
        _assert_same_search(target, generators, bound)
    # but a comes first at total degree 1 and is kept, so it certifies a at
    # bound 1, where a*b + a and a*b have no candidate: skipping a generator
    # in the span of the ones listed before it would lose this certificate
    assert ideal_membership(a, low, 1).triples == ((Q(1), "", 2, ""),)


def test_search_matches_the_reference_over_a_one_letter_alphabet():
    # base = max(n, 2) = 2 while the words of each length number n^l = 1;
    # the last three generators are rejected as their own first candidates
    x = FreePoly.gen(("x",), "x")
    one = FreePoly.one(("x",))
    generators = [x * x - one, x * x * x * x - one, (x * x - one).scale(2), x * x * x - x]
    for target in (x * x * x * x * x - x, x * x * x - one, x * x - one, x):
        for bound in (5, 7):
            _assert_same_search(target, generators, bound)
    assert ideal_membership(x * x * x * x * x - x, generators, 5) is not None
    assert ideal_membership(x, generators, 7) is None


def test_ideal_membership_is_linear_in_its_target():
    # the search reduces the target's integer numerators, which a scale
    # changes only by a factor: the same candidates certify a scaled target,
    # with the scaled coefficients, and a nonmember stays one
    relators = list(presentation().relators)
    scale = Q(3, 7)
    certified = 0
    for name, residual in _identity_targets():
        if residual.is_zero():
            continue
        bound = max(residual.degree(), 4)
        cert = ideal_membership(residual, relators, bound)
        scaled = ideal_membership(residual.scale(scale), relators, bound)
        assert [t[1:] for t in scaled.triples] == [t[1:] for t in cert.triples], name
        assert [t[0] for t in scaled.triples] == [scale * t[0] for t in cert.triples], name
        certified += 1
    assert certified == 8
    for target in (NONMEMBER, NONMEMBER.scale(scale), NONMEMBER.scale(-7)):
        assert ideal_membership(target, relators, 8) is None


# scales that mix new denominators into random_free_poly's 1..3
MIXED_SCALES = [Q(1, 6), Q(3, 4), Q(-5, 2), Q(7, 9), Q(-2, 3), Q(11, 10), Q(4), Q(-1, 5)]


def _fraction_fmultiply(a, b):
    # reference oracle: the product term by term in Fractions
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out[w1 + w2] = out.get(w1 + w2, Q(0)) + c1 * c2
    return {w: c for w, c in out.items() if c}


def test_integer_paths_match_fraction_oracles(rand_free_poly):
    rng = Random(2027)
    images = natural_images()
    for _ in range(60):
        a = rand_free_poly(rng).scale(rng.choice(MIXED_SCALES))
        b = rand_free_poly(rng).scale(rng.choice(MIXED_SCALES))
        ab = fmultiply(a, b)
        assert ab.terms == _fraction_fmultiply(a, b), (a, b)
        ta, tb = a.terms, b.terms
        assert (a - b).terms == {w: x for w in ta.keys() | tb.keys() if (x := ta.get(w, 0) - tb.get(w, 0))}
        assert a - b == a + (-b)
        assert tilde_rho(a).terms == {w: c * (-1) ** w.count("A") for w, c in a.terms.items()}
        expected = usl2.zero()
        for w, c in a.terms.items():
            img = usl2.one()
            for s in w:
                img = usl2.multiply(img, images[s])
            expected = expected + usl2.USL2Element({m: c * x for m, x in img.terms.items()})
        assert substitute(a, images, usl2.one()) == expected, a
        for x in (ab, tilde_rho(a), a - b):
            assert all(type(c) is Fraction and c for c in x.terms.values())
            assert_canonical(x)


@pytest.mark.parametrize("seed", range(6))
def test_combination_storage_is_canonical(seed, rand_free_poly):
    rng = Random(400 + seed)
    a = rand_free_poly(rng).scale(rng.choice(MIXED_SCALES))
    b = rand_free_poly(rng).scale(rng.choice(MIXED_SCALES))
    zero = FreePoly(AB)
    results = [a + b, a - b, a - a, -a, a.scale(rng.choice(MIXED_SCALES)), a.scale(0),
               fmultiply(a, b), fmultiply(zero, b), tilde_rho(a), power(a, 2)]
    for x in results:
        assert_canonical(x)
        assert x.alphabet == AB
    for x in (a - a, a.scale(0), fmultiply(zero, b)):
        assert x.is_zero() and x._den == 1 and x == zero and hash(x) == hash(zero)
    for x, y in [(a.scale(Q(1, 3)).scale(3), a), (a + b - b, a), (FreePoly(AB, a.terms), a),
                 (a + a, a.scale(2)), (fmultiply(a, b).scale(Q(-2, 7)), fmultiply(a.scale(-2), b.scale(Q(1, 7))))]:
        assert x == y and hash(x) == hash(y)
        assert (x._num, x._den) == (y._num, y._den)
    # the same storage over another alphabet is another element
    assert FreePoly(("A", "B", "C"), a.terms) != a
    before = a.terms
    view = a.terms
    view["BBBBBB"] = Q(1)
    view.pop(next(iter(before)))
    assert a.terms == before and a == FreePoly(AB, before)
    with pytest.raises(AttributeError):
        a.terms = {}
    for bad in (0.5, 2.0):
        with pytest.raises(TypeError):
            FreePoly(AB, {"A": bad})
        with pytest.raises(TypeError):
            a.scale(bad)
