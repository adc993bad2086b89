"""The universal Hahn algebra presentation and its map into U(sl2).

The algebra is presented on the two generators A, B.  The remaining named
elements are abbreviations in the free algebra:

    C     = AB - BA
    alpha = [C, A] + 2A^2 + B
    beta  = [B, C] + 4BA + 2C
    Omega = 4ABA + B^2 - C^2 - 2*beta*A + 2(1 - alpha)B

and the imposed relations are that alpha and beta commute with A and B
(four relators).  Identities that hold in the quotient are verified here as
ideal-membership certificates over the free algebra; identities that already
hold freely are detected by exact cancellation.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import usl2
from .freealg import FreePoly, ideal_membership, substitute
from .linalg import commutator
from .reporting import PASS, UNRESOLVED, CheckItem, check

ALPHABET = ("A", "B")


class HahnPresentation:
    """The two-generator presentation with all derived elements expanded."""

    def __init__(self):
        one = FreePoly.one(ALPHABET)
        A = FreePoly.gen(ALPHABET, "A")
        B = FreePoly.gen(ALPHABET, "B")
        C = commutator(A, B)
        alpha = commutator(C, A) + (A * A).scale(2) + B
        beta = commutator(B, C) + (B * A).scale(4) + C.scale(2)
        omega = (
            (A * B * A).scale(4)
            + B * B
            - C * C
            - (beta * A).scale(2)
            + ((one - alpha) * B).scale(2)
        )
        self.one = one
        self.A = A
        self.B = B
        self.C = C
        self.alpha = alpha
        self.beta = beta
        self.omega = omega
        self.relators = (
            commutator(alpha, A),
            commutator(alpha, B),
            commutator(beta, A),
            commutator(beta, B),
        )
        if tuple(r.degree() for r in self.relators) != (4, 4, 4, 4):
            raise AssertionError("relator degrees changed; presentation is broken")
        # preimages of E^2, F^2, Lambda, H under the natural map
        self.e2_hat = (A * A).scale(4) + B.scale(2) + C.scale(2) - alpha.scale(2)
        self.f2_hat = (A * A).scale(4) + B.scale(2) - C.scale(2) - alpha.scale(2)
        self.lam_hat = one + alpha.scale(4)
        self.h_hat = A.scale(4)
        # the kernel of the natural map: relators plus these two
        self.kernel_extra = (beta, omega.scale(16) - alpha.scale(24) + one.scale(3))
        self.kernel_generators = self.relators + self.kernel_extra


@cache
def presentation() -> HahnPresentation:
    return HahnPresentation()


@cache
def natural_images() -> Mapping[str, usl2.USL2Element]:
    """The images of A and B, read-only: ``natural``'s memo relies on them
    staying fixed."""
    e2, f2, lam, h = usl2.EVEN_GENERATORS
    b_img = (e2 + f2 + lam - usl2.one()).scale(Fraction(1, 4)) - (h * h).scale(Fraction(1, 8))
    return MappingProxyType({"A": h.scale(Fraction(1, 4)), "B": b_img})


@cache
def _natural_memo() -> dict[str, usl2.USL2Element]:
    """Word -> image under ``natural``, shared by every call in the process;
    ``_natural_memo.cache_clear()`` empties it."""
    return {}


def natural(p: FreePoly) -> usl2.USL2Element:
    """The homomorphism into U(sl2) determined by A -> H/4 and B -> B-image.
    Each distinct word prefix costs one PBW product, once per process."""
    return substitute(p, natural_images(), usl2.one(), _natural_memo())


def tilde_rho(p: FreePoly) -> FreePoly:
    """The involution A -> -A, B -> B (sign = parity of A-count per word)."""
    return p._new({w: (-c if w.count("A") % 2 else c) for w, c in p._num.items()}, p._den)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def verify_natural_well_defined() -> list[CheckItem]:
    """The generator-level identities that make the natural map well defined."""
    pres = presentation()
    a_img = natural(pres.A)
    b_img = natural(pres.B)
    c_img = natural(pres.C)
    alpha_img = natural(pres.alpha)
    e2, f2, lam, h = usl2.EVEN_GENERATORS
    h3 = usl2.monomial(0, 0, 3)
    checks = [
        ("[A,B] image equals (E^2 - F^2)/4", commutator(a_img, b_img), (e2 - f2).scale(Fraction(1, 4))),
        ("[C,A] image equals -(E^2 + F^2)/4", commutator(c_img, a_img), (e2 + f2).scale(Fraction(-1, 4))),
        (
            "[C,A] + 2A^2 + B image equals (Lam - 1)/4",
            commutator(c_img, a_img) + usl2.multiply(a_img, a_img).scale(2) + b_img,
            (lam - usl2.one()).scale(Fraction(1, 4)),
        ),
        (
            "[B,C] + 4BA + 2C image vanishes",
            commutator(b_img, c_img) + usl2.multiply(b_img, a_img).scale(4) + c_img.scale(2),
            usl2.zero(),
        ),
        (
            "[B,C] image equals (1 - E^2 - F^2 - Lam)H/4 + H^3/8 + (F^2 - E^2)/2",
            commutator(b_img, c_img),
            usl2.multiply(usl2.one() - e2 - f2 - lam, h).scale(Fraction(1, 4))
            + h3.scale(Fraction(1, 8))
            + (f2 - e2).scale(Fraction(1, 2)),
        ),
        ("alpha image commutes with A image", commutator(alpha_img, a_img), usl2.zero()),
        ("alpha image commutes with B image", commutator(alpha_img, b_img), usl2.zero()),
        ("alpha image commutes with C image", commutator(alpha_img, c_img), usl2.zero()),
    ]
    items = [check(name, lhs == rhs) for name, lhs, rhs in checks]
    for idx, rel in enumerate(pres.relators):
        items.append(check(f"relator {idx} maps to zero", natural(rel).is_zero()))
    return items


def verify_image_gradings() -> list[CheckItem]:
    """Degrees and exact values of the graded pieces of the generator images."""
    pres = presentation()
    e2, f2, lam, h = usl2.EVEN_GENERATORS
    h2 = usl2.monomial(0, 0, 2)
    quarter = Fraction(1, 4)

    expected = {
        "A": {0: h.scale(quarter)},
        "B": {
            2: e2.scale(quarter),
            0: (lam - usl2.one()).scale(quarter) - h2.scale(Fraction(1, 8)),
            -2: f2.scale(quarter),
        },
        "C": {2: e2.scale(quarter), -2: f2.scale(-quarter)},
        "alpha": {0: (lam - usl2.one()).scale(quarter)},
    }
    elements = {"A": pres.A, "B": pres.B, "C": pres.C, "alpha": pres.alpha}
    items = []
    for name, want in expected.items():
        got = usl2.degree_components(natural(elements[name]))
        ok = set(got) == set(want) and all(got[d] == want[d] for d in want)
        items.append(check(f"{name} image has graded components {sorted(want, reverse=True)}", ok))
    omega_img = natural(pres.omega)
    omega_expected = (lam.scale(2) - usl2.one().scale(3)).scale(Fraction(3, 16))
    comps = usl2.degree_components(omega_img)
    items.append(
        check(
            "Omega image is even with only degree 0 surviving",
            set(comps) <= {0},
        )
    )
    items.append(
        check(
            "Omega image equals (3/16)(2*Lam - 3)",
            omega_img == omega_expected,
            detail=usl2.render(omega_img),
        )
    )
    return items


def verify_intertwining() -> list[CheckItem]:
    """natural(tilde_rho(p)) == rho(natural(p)) on the named elements, and
    so on the whole free algebra.

    Both sides are algebra maps from the free algebra: ``natural`` is
    ``substitute``, and ``tilde_rho`` multiplies each word by a sign taken
    from its count of A's, which is multiplicative; rho is one when its
    three relation residuals vanish (``usl2.rho_relations``, recomputed here
    so that this suite stands alone).  Two algebra maps that agree on A and
    B agree everywhere.
    """
    pres = presentation()
    named = [
        ("A", pres.A),
        ("B", pres.B),
        ("C", pres.C),
        ("alpha", pres.alpha),
        ("beta", pres.beta),
        ("Omega", pres.omega),
        ("1", pres.one),
    ]
    agree = {name: natural(tilde_rho(p)) == usl2.rho(natural(p)) for name, p in named}
    items = [check(f"intertwining on {name}", ok) for name, ok in agree.items()]
    rho_hom = all(r.is_zero() for r in usl2.rho_relations())
    items.append(check("intertwining on the whole free algebra", agree["A"] and agree["B"] and rho_hom))
    return items


def _identity_targets() -> list[tuple[str, FreePoly]]:
    """Residuals (lhs - rhs) of the in-quotient identities, over {A, B}."""
    pres = presentation()
    one, A, B, C = pres.one, pres.A, pres.B, pres.C
    alpha, beta, omega = pres.alpha, pres.beta, pres.omega
    A2 = A * A
    half = Fraction(1, 2)

    omega_core = (omega - B * B + C * C).scale(half) + beta * A
    he2, hf2, e2f2, f2e2 = _hatted_relations(pres)[:4]
    targets = [
        (
            "commutator-AC-expansion",
            commutator(A, C) - (A2.scale(2) + B - alpha),
        ),
        (
            "commutator-A2C-expansion",
            commutator(A2, C) - ((A2 * A).scale(4) + (A * B).scale(2) - (alpha * A).scale(2) - C),
        ),
        (
            "double-commutator-ACC-expansion",
            commutator(commutator(A, C), C) - ((A2 * A).scale(8) - (alpha * A).scale(4) + beta),
        ),
        (
            "casimir-rewrite-BA2",
            omega_core - ((B * A2).scale(2) + (C * A).scale(2) + (one - alpha) * B),
        ),
        (
            "casimir-rewrite-A2B",
            omega_core - (A2 * B + B * A2 - A2.scale(2) - alpha * B + alpha),
        ),
        ("hatted-HE2-commutator", he2),
        ("hatted-HF2-commutator", hf2),
        ("hatted-E2F2-product", e2f2 - _hatted_kernel_term(pres, -1)),
        ("hatted-F2E2-product", f2e2 - _hatted_kernel_term(pres, 1)),
        ("omega-central-A", commutator(omega, A)),
        ("omega-central-B", commutator(omega, B)),
    ]
    return targets


def _hatted_relations(pres: HahnPresentation) -> list[FreePoly]:
    """The residuals of the seven even-presentation relations in hatted form."""
    return usl2.even_relations(pres.e2_hat, pres.f2_hat, pres.lam_hat, pres.h_hat, pres.one)


def _hatted_kernel_term(pres: HahnPresentation, sign: int) -> FreePoly:
    """The kernel-ideal element that the hatted E2F2 (sign -1) or F2E2
    (sign +1) identity subtracts from its quadratic relation residual."""
    return (pres.kernel_extra[1].scale(4)
            + (pres.beta * (pres.A.scale(2) + pres.one.scale(sign))).scale(64))


def verify_hahn_identities(degree_bound: int) -> list[CheckItem]:
    """Certify each in-quotient identity in the relator ideal.

    Residuals that cancel identically in the free algebra short-circuit; the
    rest get an item carrying its ideal-membership certificate or an
    unresolved-at-bound item.
    """
    relators = list(presentation().relators)
    return [
        _certify(name, residual, relators, degree_bound) for name, residual in _identity_targets()
    ]


def _certify(name: str, residual: FreePoly, generators: list[FreePoly], bound: int) -> CheckItem:
    if residual.is_zero():
        return CheckItem(name=name, status=PASS, detail="identically zero in the free algebra")
    if residual.degree() > bound:
        return CheckItem(
            name=name,
            status=UNRESOLVED,
            bound=bound,
            detail=f"residual degree {residual.degree()} exceeds the bound",
        )
    cert = ideal_membership(residual, generators, bound)
    if cert is None:
        return CheckItem(name=name, status=UNRESOLVED, bound=bound)
    return CheckItem(name=name, status=PASS, bound=bound, certificate=cert)


def verify_kernel_and_inverse(degree_bound: int) -> list[CheckItem]:
    """Kernel generators map to zero; hatted elements invert the generators;
    the even-presentation relations hold modulo the kernel ideal."""
    pres = presentation()
    items = [
        check("beta maps to zero", natural(pres.beta).is_zero()),
        check("16*Omega - 24*alpha + 3 maps to zero", natural(pres.kernel_extra[1]).is_zero()),
    ]

    quarter = Fraction(1, 4)
    inverse_checks = [
        ("A recovered as H_hat/4", pres.A - pres.h_hat.scale(quarter)),
        (
            "B recovered as (E2_hat + F2_hat)/4 - H_hat^2/8 + (Lam_hat - 1)/4",
            pres.B
            - (
                (pres.e2_hat + pres.f2_hat).scale(quarter)
                - (pres.h_hat * pres.h_hat).scale(Fraction(1, 8))
                + (pres.lam_hat - pres.one).scale(quarter)
            ),
        ),
        ("C recovered as (E2_hat - F2_hat)/4", pres.C - (pres.e2_hat - pres.f2_hat).scale(quarter)),
    ]
    for name, residual in inverse_checks:
        zero = residual.is_zero()
        items.append(check(name, zero, "identically zero in the free algebra" if zero else None))

    # hatted preimages map onto the four even-subalgebra generators
    hat_names = ("E2_hat maps to E^2", "F2_hat maps to F^2", "Lam_hat maps to the Casimir", "H_hat maps to H")
    hats = (pres.e2_hat, pres.f2_hat, pres.lam_hat, pres.h_hat)
    for name, p, want in zip(hat_names, hats, usl2.EVEN_GENERATORS):
        items.append(check(name, natural(p) == want))

    # even-presentation relations with hatted elements, modulo the kernel ideal
    gens = list(pres.kernel_generators)
    for name, residual in _kernel_relation_targets():
        items.append(_certify(name, residual, gens, degree_bound))
    return items


_KERNEL_RELATION_NAMES = (
    "hatted-H-E2-relation-mod-kernel",
    "hatted-H-F2-relation-mod-kernel",
    "hatted-E2F2-relation-mod-kernel",
    "hatted-F2E2-relation-mod-kernel",
    "hatted-casimir-E2-commute-mod-kernel",
    "hatted-casimir-F2-commute-mod-kernel",
    "hatted-casimir-H-commute-mod-kernel",
)


def _kernel_relation_targets() -> list[tuple[str, FreePoly]]:
    """Residuals of the even-presentation relations in hatted form."""
    return list(zip(_KERNEL_RELATION_NAMES, _hatted_relations(presentation())))
