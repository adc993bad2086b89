from fractions import Fraction
from random import Random

import pytest

from hahnsl2 import hahn, usl2
from hahnsl2.freealg import substitute
from hahnsl2.hahn import (
    natural,
    natural_images,
    presentation,
    tilde_rho,
    verify_hahn_identities,
    verify_image_gradings,
    verify_intertwining,
    verify_kernel_and_inverse,
    verify_natural_well_defined,
)
from hahnsl2.freealg import FreePoly
from hahnsl2.reporting import PASS, UNRESOLVED
from tests.conftest import all_pass, random_free_poly, ue_basis_recompose
from tests.usl2_extra import ue_basis_decompose

Q = Fraction


def test_natural_on_generators():
    pres = presentation()
    assert natural(pres.A) == usl2.H.scale(Q(1, 4))
    assert natural(pres.beta).is_zero()
    lam = usl2.casimir()
    assert natural(pres.alpha) == (lam - usl2.one()).scale(Q(1, 4))
    assert natural(pres.omega) == (lam.scale(2) - usl2.one().scale(3)).scale(Q(3, 16))
    assert natural(pres.C) == (usl2.monomial(2, 0, 0) - usl2.monomial(0, 2, 0)).scale(Q(1, 4))


def test_natural_image_is_even(rand_free_poly):
    rng = Random(606)
    for _ in range(40):
        p = rand_free_poly(rng)
        assert all(d % 2 == 0 for d in usl2.degree_components(natural(p)))


def test_natural_surjectivity_witnesses():
    pres = presentation()
    # every generator image decomposes in the even basis, and the hatted
    # preimages hit the four generators on the nose
    for p in (pres.A, pres.B, pres.C, pres.alpha, pres.omega):
        coords = ue_basis_decompose(natural(p))
        assert ue_basis_recompose(coords) == natural(p)
    assert natural(pres.e2_hat) == usl2.monomial(2, 0, 0)
    assert natural(pres.f2_hat) == usl2.monomial(0, 2, 0)
    assert natural(pres.lam_hat) == usl2.casimir()
    assert natural(pres.h_hat) == usl2.H


def test_tilde_rho_action():
    pres = presentation()
    assert tilde_rho(pres.C) == -pres.C
    assert tilde_rho(pres.alpha) == pres.alpha
    assert tilde_rho(pres.beta) == -pres.beta
    assert tilde_rho(pres.omega) == pres.omega
    assert tilde_rho(pres.e2_hat) == pres.f2_hat
    assert tilde_rho(pres.f2_hat) == pres.e2_hat
    assert tilde_rho(pres.lam_hat) == pres.lam_hat
    assert tilde_rho(pres.h_hat) == -pres.h_hat


def test_tilde_rho_involution(rand_free_poly):
    rng = Random(12)
    for _ in range(40):
        p = rand_free_poly(rng)
        assert tilde_rho(tilde_rho(p)) == p


def test_well_definedness_suite():
    items = verify_natural_well_defined()
    assert all_pass(items)
    # the commutator [C,A] image really is -(E^2+F^2)/4
    pres = presentation()
    img = usl2.commutator(natural(pres.C), natural(pres.A))
    expected = (usl2.monomial(2, 0, 0) + usl2.monomial(0, 2, 0)).scale(Q(-1, 4))
    assert img == expected


def test_image_gradings_suite():
    assert all_pass(verify_image_gradings())


def test_intertwining_suite():
    items = verify_intertwining()
    assert all_pass(items)
    assert items[-1].name == "intertwining on the whole free algebra"
    assert all(i.detail is None for i in items)


def test_intertwining_holds_on_seeded_polynomials():
    # what the last intertwining item proves from A, B and rho's relations,
    # checked on 25 seeded polynomials
    rng = Random(20230814)
    for _ in range(25):
        p = random_free_poly(rng)
        assert natural(tilde_rho(p)) == usl2.rho(natural(p))


def test_intertwining_on_the_free_algebra_rests_on_rho_being_a_homomorphism(monkeypatch):
    # a rho broken only at H itself (H -> -2H) breaks rho's relations but no
    # named item, since no named image is H: only the last item fails.  The
    # residuals are cached per process, so the cache is cleared on both
    # sides of the broken rho.
    real = usl2.rho
    usl2.rho_relations.cache_clear()
    monkeypatch.setattr(usl2, "rho", lambda a: real(a).scale(2) if a == usl2.H else real(a))
    try:
        assert [i.status for i in verify_intertwining()] == [PASS] * 7 + ["fail"]
    finally:
        usl2.rho_relations.cache_clear()


def test_hahn_identities_all_certify_at_default_bound():
    items = verify_hahn_identities(8)
    assert all_pass(items)
    by_name = {i.name: i for i in items}
    # identities whose residual cancels before any ideal work is needed
    for name in ("commutator-AC-expansion", "casimir-rewrite-BA2", "casimir-rewrite-A2B"):
        assert by_name[name].detail == "identically zero in the free algebra"
    # the rest must carry replayable certificates
    certified = [i for i in items if i.certificate is not None]
    assert {i.name for i in certified} >= {
        "hatted-E2F2-product",
        "hatted-F2E2-product",
        "omega-central-A",
        "omega-central-B",
    }
    targets = dict(_identity_target_map())
    for item in certified:
        assert item.certificate.replay() == targets[item.name]


def _identity_target_map():
    from hahnsl2.hahn import _identity_targets

    return _identity_targets()


def test_hahn_identities_low_bound_reports_unresolved():
    items = verify_hahn_identities(4)
    statuses = {i.name: i.status for i in items}
    # the free-algebra-trivial ones still pass, the degree-6 residuals cannot
    assert statuses["commutator-AC-expansion"] == PASS
    assert statuses["hatted-E2F2-product"] == "unresolved-at-bound"


def test_an_exhausted_search_stays_unresolved():
    # beta, of degree 3, is a kernel generator of its own: the relators alone
    # do not reach it by degree 5, so the search runs out its bound
    pres = presentation()
    item = hahn._certify("beta", pres.beta, list(pres.relators), 5)
    assert (item.status, item.bound, item.certificate) == (UNRESOLVED, 5, None)


def test_presentation_refuses_relators_of_another_degree(monkeypatch):
    monkeypatch.setattr(FreePoly, "degree", lambda p: 5)
    with pytest.raises(AssertionError, match="relator degrees changed"):
        hahn.HahnPresentation()


def test_kernel_and_inverse_suite():
    items = verify_kernel_and_inverse(8)
    assert all_pass(items)
    certs = [i.certificate for i in items if i.certificate is not None]
    assert len(certs) == 7
    pres = presentation()
    for cert in certs:
        # certificates here live in the full kernel-generator list
        assert cert.generators == pres.kernel_generators
        assert natural(cert.replay()).is_zero()


def test_relators_span_three_dimensions():
    # [alpha, B] = -[beta, A] in the free algebra, so a quarter of the
    # candidates of every membership search are dependent
    from hahnsl2.linalg import EchelonBasis

    relators = presentation().relators
    assert relators[1] == -relators[2]
    words = sorted({w for r in relators for w in r.terms})
    basis = EchelonBasis()
    for r in relators:
        basis.insert({words.index(w): x for w, x in r._num.items()})
    assert len(basis) == 3


def _prefixes(p):
    """The distinct prefixes of length >= 2 of the words of p."""
    return {w[:k] for w in p._num for k in range(2, len(w) + 1)}


def test_natural_makes_one_product_per_new_prefix(monkeypatch):
    # from an empty memo, a call costs one PBW product per prefix of length
    # >= 2 that no earlier call has formed, and a repeated call costs none
    natural_images()
    hahn._natural_memo.cache_clear()
    pres = presentation()
    products = []
    real = usl2.multiply

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(usl2, "multiply", counted)
    seen = set()
    for p in (pres.A, pres.B, pres.C, pres.alpha, pres.e2_hat, pres.beta, pres.omega, pres.one,
              pres.f2_hat, pres.lam_hat, pres.h_hat, pres.relators[0], pres.kernel_extra[1]):
        products.clear()
        natural(p)
        assert len(products) == len(_prefixes(p) - seen), p
        seen |= _prefixes(p)
        products.clear()
        natural(p)
        assert products == [], p
    assert set(hahn._natural_memo()) == seen


def test_warm_natural_memo_agrees_with_a_fresh_memo_and_plain_products(rand_free_poly):
    rng = Random(3131)
    polys = [rand_free_poly(rng) for _ in range(30)]
    for p in polys:
        natural(p)  # every word of every sample is now in the memo
    images = natural_images()
    for p in polys:
        plain = usl2.zero()
        for w, c in p.terms.items():
            img = usl2.one()
            for s in w:
                img = usl2.multiply(img, images[s])
            plain = plain + img.scale(c)
        assert natural(p) == substitute(p, images, usl2.one(), {}) == plain, p


def test_natural_memo_cache_clear_empties_it():
    natural(presentation().omega)
    assert hahn._natural_memo()
    hahn._natural_memo.cache_clear()
    assert hahn._natural_memo() == {}
    assert natural(presentation().omega) == (usl2.casimir().scale(2) - usl2.one().scale(3)).scale(Q(3, 16))


def test_natural_images_are_read_only():
    images = natural_images()
    with pytest.raises(TypeError):
        images["A"] = usl2.one()
    assert natural_images() is images
    assert dict(images) == {"A": usl2.H.scale(Q(1, 4)), "B": natural(presentation().B)}
