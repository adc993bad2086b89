from fractions import Fraction
from random import Random

import pytest

from hahnsl2 import usl2
from hahnsl2.freealg import (
    FreePoly,
    MembershipCertificate,
    fcommutator,
    fmultiply,
    ideal_membership,
    substitute,
)
from hahnsl2.linalg import SparseMatrix

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


def test_floats_are_refused():
    with pytest.raises(TypeError):
        FreePoly(AB, {"A": 0.1})
    with pytest.raises(TypeError):
        gen("A").scale(0.5)
    assert FreePoly(AB, {"A": "1/10"}) == gen("A").scale(Q(1, 10))


def test_substitute_into_usl2():
    # AB - BA with A -> H/4 and B -> the natural B-image lands on (E^2-F^2)/4
    from hahnsl2.hahn import natural_images

    p = fcommutator(gen("A"), gen("B"))
    img = substitute(p, natural_images(), usl2.one())
    assert img == (usl2.monomial(2, 0, 0) - usl2.monomial(0, 2, 0)).scale(Q(1, 4))


def test_substitute_unit_and_matrices():
    images = {"A": SparseMatrix.from_rows([[1, 0], [0, -1]]), "B": SparseMatrix.identity(2)}
    assert substitute(FreePoly.one(AB), images, SparseMatrix.identity(2)) == SparseMatrix.identity(2)
    sq = substitute(FreePoly(AB, {"AA": Q(1)}), images, SparseMatrix.identity(2))
    assert sq == SparseMatrix.identity(2)


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
    cert = ideal_membership(FreePoly.zero(AB), [g], degree_bound=2)
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


def test_membership_raises_when_certificate_does_not_replay(monkeypatch):
    # an explicit check, not an assert, so it also runs under python -O
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    monkeypatch.setattr(MembershipCertificate, "replay", lambda self: FreePoly.zero(AB))
    with pytest.raises(ArithmeticError):
        ideal_membership(fmultiply(gen("A"), g), [g], degree_bound=3)


def test_membership_monotone_in_bound():
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    target = fmultiply(gen("A"), g)
    for bound in (3, 4, 6):
        cert = ideal_membership(target, [g], degree_bound=bound)
        assert cert is not None and cert.replay() == target


def test_membership_default_bound_is_degree_plus_four():
    g = FreePoly(AB, {"AB": Q(1), "BA": Q(-1)})
    target = fmultiply(gen("A"), g)
    cert = ideal_membership(target, [g])
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
        target = FreePoly.zero(AB)
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
    assert FreePoly.zero(AB).degree() == 0
    assert str(FreePoly.zero(AB)) == "0"
    assert "AB" in str(p)
