"""The enveloping algebra of sl2 in exact PBW normal form.

Elements are finite rational combinations of ordered monomials E^i F^j H^k.
From [H,E] = 2E, [H,F] = -2F and [F,E^i] = -i E^(i-1) (H + i - 1), left
multiplication by a power of H or by F has a closed form.  H E = E (H + 2)
and H F = F (H - 2), so H^k passes E^i F^j in one step, as a binomial:

    H^k E^i F^j = E^i F^j (H + 2(i - j))^k,
    F E^i F^j H^k = E^i F^(j+1) H^k - i E^(i-1) F^j H^(k+1)
                    - i(i - 1 - 2j) E^(i-1) F^j H^k.

A product of two monomials needs only these two rules, the F rule applied
once for each factor of F: its leading E powers and trailing H powers are
already in place.  The PBW theorem makes the normal form unique, and
elements only ever exist in normal form, so every identity check in the
package is a plain equality of term maps.

The rules have integer coefficients, so ``multiply`` works fraction-free
on the storage of ``linalg.Combination``: integer numerators over one
common denominator.  The numerators of the operands are multiplied
and summed as plain ints in one map, over the product of the denominators,
and the result is reduced once.  No ``Fraction`` is built on that path; the
coefficients become nonzero ``Fraction``s only when read through ``terms``.

The even subalgebra is generated by E^2, F^2, the Casimir Lam and H, written
once, as ``EVEN_GENERATORS``: ``hahn`` and ``reps`` read them there.  Its
seven defining relations are written once, in ``even_relations``, as
residuals that need only +, -, * and ``scale``: ``verify_ue_presentation``
evaluates them in PBW form, ``reps.UeRep`` on matrices and ``hahn`` on the
hatted free polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import comb

from .freealg import FreePoly, substitute
from .linalg import Combination, commutator, render_terms
from .reporting import CheckItem, check

# PBW monomial (i, j, k) stands for E^i F^j H^k.
Monomial = tuple[int, int, int]


@cache
def _f_chain(k1: int, i2: int, j2: int) -> list[tuple[tuple[Monomial, int], ...]]:
    """The normal forms of F^j H^k1 E^i2 F^j2 for j = 0, 1, ..., as far as
    ``_core_product`` has asked; ``_f_chain.cache_clear()`` empties it."""
    s = 2 * (i2 - j2)  # H^k1 E^i2 F^j2 = E^i2 F^j2 (H + s)^k1
    return [tuple(((i2, j2, m), comb(k1, m) * s ** (k1 - m)) for m in range(0 if s else k1, k1 + 1))]


@lru_cache(maxsize=None)
def _core_product(j1: int, k1: int, i2: int, j2: int) -> tuple[tuple[Monomial, int], ...]:
    # Normal form of F^j1 H^k1 E^i2 F^j2; leading E powers and trailing H
    # powers of a full monomial product commute past nothing, so they are
    # re-attached by the caller.  The coefficients are integers.  The chain
    # of (k1, i2, j2) grows one F rule step at a time, in a loop, up to j1,
    # so a miss costs one step when j1 - 1 was reached before.
    chain = _f_chain(k1, i2, j2)
    while len(chain) <= j1:
        out: dict[Monomial, int] = {}
        for (i, j, k), c in chain[-1]:
            out[i, j + 1, k] = out.get((i, j + 1, k), 0) + c
            if i:
                out[i - 1, j, k + 1] = out.get((i - 1, j, k + 1), 0) - i * c
                out[i - 1, j, k] = out.get((i - 1, j, k), 0) - i * (i - 1 - 2 * j) * c
        chain.append(tuple(sorted((m, c) for m, c in out.items() if c)))
    return chain[j1]


class USL2Element(Combination):
    """A PBW-normal-form element: map from (i, j, k) to a nonzero rational."""

    __slots__ = ()

    def _key(self, m) -> Monomial:
        i, j, k = m
        if any(type(e) is not int for e in m):
            raise TypeError(f"non-integer exponent in monomial {m}")
        if i < 0 or j < 0 or k < 0:
            raise ValueError(f"negative exponent in monomial {m}")
        return (i, j, k)

    def _product(self, other: "USL2Element") -> "USL2Element":
        return multiply(self, other)

    def __str__(self) -> str:
        return render(self)


def zero() -> USL2Element:
    return USL2Element()


def one() -> USL2Element:
    return USL2Element({(0, 0, 0): 1})


def monomial(i: int, j: int, k: int, coeff=1) -> USL2Element:
    return USL2Element({(i, j, k): coeff})


E = monomial(1, 0, 0)
F = monomial(0, 1, 0)
H = monomial(0, 0, 1)


def multiply(a: USL2Element, b: USL2Element) -> USL2Element:
    """Product in PBW normal form.

    The integer numerators of a and b over their denominators da and db are
    multiplied with the integer coefficients of ``_core_product``, so the sum
    is one map of ints over da*db."""
    acc: dict[Monomial, int] = {}
    nb = b._num.items()
    for (i1, j1, k1), c1 in a._num.items():
        for (i2, j2, k2), c2 in nb:
            c12 = c1 * c2
            for (i, j, k), c in _core_product(j1, k1, i2, j2):
                m = (i + i1, j, k + k2)
                acc[m] = acc.get(m, 0) + c12 * c
    return a._new({m: n for m, n in acc.items() if n}, a._den * b._den)


def casimir() -> USL2Element:
    # EF + FE + H^2/2, normalized: FE = EF - H
    return USL2Element({
        (1, 1, 0): Fraction(2),
        (0, 0, 2): Fraction(1, 2),
        (0, 0, 1): Fraction(-1),
    })


# The generators of the even subalgebra, in the order of ``even_relations``'
# arguments and of ``reps.UeRep``'s fields.
EVEN_GENERATORS = (monomial(2, 0, 0), monomial(0, 2, 0), casimir(), H)


# The images of the swap sigma, which ``rho`` extends to the algebra.
SIGMA = {"E": F, "F": E, "H": -H}


@cache
def _rho_memo() -> dict[str, USL2Element]:
    """Word -> image under ``rho``, shared by every call in the process;
    ``_rho_memo.cache_clear()`` empties it."""
    return {}


def rho(a: USL2Element) -> USL2Element:
    """The involutive automorphism swapping E and F and negating H: each
    monomial E^i F^j H^k is the word "E"*i + "F"*j + "H"*k, sent through
    ``freealg.substitute`` with the images ``SIGMA``, as ``reps.evaluate``
    sends it to matrices.  So rho(E^i F^j H^k) = rho(E)^i rho(F)^j rho(H)^k
    holds by construction, and each distinct word prefix costs one PBW
    product, once per process."""
    words = FreePoly("EFH")._new({"E" * i + "F" * j + "H" * k: c for (i, j, k), c in a._num.items()}, a._den)
    return substitute(words, SIGMA, one(), _rho_memo())


def degree(m: Monomial) -> int:
    return m[0] - m[1]


def degree_components(a: USL2Element) -> dict[int, USL2Element]:
    """Split into graded pieces by degree(E^i F^j H^k) = i - j."""
    out: dict[int, dict[Monomial, int]] = {}
    for m, c in a._num.items():
        out.setdefault(degree(m), {})[m] = c
    return {d: a._new(t, a._den) for d, t in sorted(out.items())}


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def power_identity_suite(n_max: int) -> list[CheckItem]:
    """Exact checks of the six commutator/product power identities up to n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    two_lam = casimir().scale(2)
    h2 = multiply(H, H)
    # E^n F^n and F^n E^n as products of quadratic Casimir factors, each
    # product kept from n - 1 and extended by the factor i = n
    prod_ef = prod_fe = one()
    items: list[CheckItem] = []
    for n in range(0, n_max + 1):
        en = monomial(n, 0, 0)
        fn = monomial(0, n, 0)
        items.append(check(f"[H, E^{n}] == {2 * n}*E^{n}", commutator(H, en) == en.scale(2 * n)))
        items.append(check(f"[H, F^{n}] == {-2 * n}*F^{n}", commutator(H, fn) == fn.scale(-2 * n)))
        items.append(check(
            f"[H^2, E^{n}] == 4*{n}*(H - {n})*E^{n}",
            commutator(h2, en) == multiply(H - one().scale(n), en).scale(4 * n),
        ))
        items.append(check(
            f"[H^2, F^{n}] == -4*{n}*(H + {n})*F^{n}",
            commutator(h2, fn) == multiply(H + one().scale(n), fn).scale(-4 * n),
        ))
        if n:
            f_ef = (two_lam - multiply(H - one().scale(2 * n - 2), H - one().scale(2 * n))).scale(Fraction(1, 4))
            f_fe = (two_lam - multiply(H + one().scale(2 * n - 2), H + one().scale(2 * n))).scale(Fraction(1, 4))
            prod_ef = multiply(prod_ef, f_ef)
            prod_fe = multiply(prod_fe, f_fe)
        items.append(check(f"E^{n}*F^{n} == prod_(i=1..{n}) (2*Lam - (H-2i+2)(H-2i))/4",
                           multiply(en, fn) == prod_ef))
        items.append(check(f"F^{n}*E^{n} == prod_(i=1..{n}) (2*Lam - (H+2i-2)(H+2i))/4",
                           multiply(fn, en) == prod_fe))
    return items


@cache
def rho_relations() -> tuple[USL2Element, ...]:
    """The residuals (lhs - rhs) of the three defining relations [H, E] = 2E,
    [H, F] = -2F and [E, F] = H at rho(E), rho(F) and rho(H).  Cached: they
    are computed once per process; ``rho_relations.cache_clear()`` empties
    it."""
    e, f, h = rho(E), rho(F), rho(H)
    return (commutator(h, e) - e.scale(2), commutator(h, f) + f.scale(2), commutator(e, f) - h)


def rho_property_suite() -> list[CheckItem]:
    """rho is an automorphism, an involution and flips the grading, proved on
    the generators E, F and H.

    ``rho`` sends E^i F^j H^k to sigma(E)^i sigma(F)^j sigma(H)^k for the
    swap sigma: E -> F, F -> E, H -> -H, by construction, since it is
    ``substitute`` of sigma's images.  The PBW monomials are a basis, so
    rho is the algebra map induced by sigma exactly when sigma respects the
    three defining relations (``rho_relations``).  Given that, rho o rho is
    an algebra map that fixes the generators E, F and H, so it is the
    identity.  A homogeneous x of degree d satisfies [H, x] = 2d*x, and these
    eigenspaces of [H, -] are the graded pieces; applying rho gives
    [rho(H), rho(x)] = 2d*rho(x), so with rho(H) = -H the image rho(x) has
    degree -d.
    """
    hom = all(r.is_zero() for r in rho_relations())
    return [
        check("rho is a homomorphism", hom),
        check("rho is an involution", hom and all(rho(rho(g)) == g for g in (E, F, H))),
        check("rho flips the grading", hom and rho(H) == -H),
    ]


# The defining relations of the even subalgebra, in the order of the
# residuals ``even_relations`` returns.
EVEN_RELATIONS = (
    "[H, E^2] == 4*E^2",
    "[H, F^2] == -4*F^2",
    "16*E^2*F^2 == (H^2 - 2H - 2*Lam)(H^2 - 6H - 2*Lam + 8)",
    "16*F^2*E^2 == (H^2 + 2H - 2*Lam)(H^2 + 6H - 2*Lam + 8)",
    "Lam*E^2 == E^2*Lam",
    "Lam*F^2 == F^2*Lam",
    "Lam*H == H*Lam",
)


def even_relations(e2, f2, lam, h, one) -> list:
    """The residuals (lhs - rhs) of the seven ``EVEN_RELATIONS`` at the given
    images of E^2, F^2, Lam and H; ``one`` is the unit.

    Only +, -, * and ``scale`` are used, the brackets through
    ``linalg.commutator``, so the images may be PBW elements, free
    polynomials or matrices: all seven residuals vanish exactly when the
    images satisfy the even presentation.
    """
    h2 = h * h
    two_lam = lam.scale(2)
    return [
        commutator(h, e2) - e2.scale(4),
        commutator(h, f2) + f2.scale(4),
        (e2 * f2).scale(16) - (h2 - h.scale(2) - two_lam) * (h2 - h.scale(6) - two_lam + one.scale(8)),
        (f2 * e2).scale(16) - (h2 + h.scale(2) - two_lam) * (h2 + h.scale(6) - two_lam + one.scale(8)),
        commutator(lam, e2),
        commutator(lam, f2),
        commutator(lam, h),
    ]


def verify_ue_presentation() -> list[CheckItem]:
    """The defining relations of the even subalgebra, as PBW identities.

    The items are named ``even presentation: <relation>``: the first two
    relations are also power identities at n = 2.
    """
    residuals = even_relations(*EVEN_GENERATORS, one())
    return [
        check(f"even presentation: {name}", r.is_zero()) for name, r in zip(EVEN_RELATIONS, residuals)
    ]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_monomial(m: Monomial) -> str:
    i, j, k = m
    pieces = []
    for letter, e in (("E", i), ("F", j), ("H", k)):
        if e == 1:
            pieces.append(letter)
        elif e > 1:
            pieces.append(f"{letter}^{e}")
    return "*".join(pieces) if pieces else "1"


def render(a: USL2Element) -> str:
    """Canonical text form: terms sorted by (i, j, k) descending."""
    terms = a.terms
    return render_terms((_render_monomial(m), terms[m]) for m in sorted(terms, reverse=True))
