"""The enveloping algebra of sl2 in exact PBW normal form.

Elements are finite rational combinations of ordered monomials E^i F^j H^k.
From [H,E] = 2E, [H,F] = -2F and [F,E^i] = -i E^(i-1) (H + i - 1), left
multiplication of a normal-form monomial by H or F has a closed form:

    H E^i F^j H^k = E^i F^j H^(k+1) + 2(i - j) E^i F^j H^k,
    F E^i F^j H^k = E^i F^(j+1) H^k - i E^(i-1) F^j H^(k+1)
                    - i(i - 1 - 2j) E^(i-1) F^j H^k.

A product of two monomials needs only these two rules: its leading E powers
and trailing H powers are already in place.  The PBW theorem makes the normal
form unique, and elements only ever exist in normal form, so every identity
check in the package is a plain equality of term maps.

The rules have integer coefficients, so ``multiply`` and ``rho`` work
fraction-free, as ``linalg`` does: each operand is cleared once to integer
numerators over its common denominator, the numerators are multiplied and
summed as plain ints in one map, and each surviving term becomes one
``Fraction`` over the product of the denominators.  ``Fraction`` lives only
at that edge, and every coefficient handed out is a nonzero ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random
import re

from .linalg import Combination, _clear, render_terms
from .reporting import FAIL, PASS, CheckItem

# PBW monomial (i, j, k) stands for E^i F^j H^k.
Monomial = tuple[int, int, int]


def _times_generator(letter: str, terms: dict[Monomial, int]) -> dict[Monomial, int]:
    """Left-multiply a normal-form term map by H or F."""
    out: dict[Monomial, int] = {}

    def put(m: Monomial, c: int) -> None:
        n = out.get(m, 0) + c
        if n:
            out[m] = n
        else:
            out.pop(m, None)

    for (i, j, k), c in terms.items():
        if letter == "H":
            put((i, j, k + 1), c)
            put((i, j, k), 2 * (i - j) * c)
        else:
            put((i, j + 1, k), c)
            if i:
                put((i - 1, j, k + 1), -i * c)
                put((i - 1, j, k), -i * (i - 1 - 2 * j) * c)
    return out


@lru_cache(maxsize=None)
def _core_product(j1: int, k1: int, i2: int, j2: int) -> tuple[tuple[Monomial, int], ...]:
    # Normal form of F^j1 H^k1 E^i2 F^j2; leading E powers and trailing H
    # powers of a full monomial product commute past nothing, so they are
    # re-attached by the caller.  The coefficients are integers.
    terms = {(i2, j2, 0): 1}
    for _ in range(k1):
        terms = _times_generator("H", terms)
    for _ in range(j1):
        terms = _times_generator("F", terms)
    return tuple(sorted(terms.items()))


class USL2Element(Combination):
    """A PBW-normal-form element: map from (i, j, k) to a nonzero Fraction."""

    __slots__ = ()
    UNIT = (0, 0, 0)

    def _key(self, m) -> Monomial:
        i, j, k = m
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


def random_element(rng: Random, max_terms: int = 4, max_exp: int = 3) -> USL2Element:
    """A seeded random element with 1..max_terms monomials of bounded exponents."""
    out = zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + monomial(*mono, coeff)
    return out


def multiply(a: USL2Element, b: USL2Element) -> USL2Element:
    """Product in PBW normal form.

    The integer numerators of a and b over their common denominators da and
    db are multiplied with the integer coefficients of ``_core_product``, so
    the sum is one map of ints over da*db."""
    na, da = _clear(a.terms)
    nb, db = _clear(b.terms)
    acc: dict[Monomial, int] = {}
    for (i1, j1, k1), c1 in na.items():
        for (i2, j2, k2), c2 in nb.items():
            c12 = c1 * c2
            for (i, j, k), c in _core_product(j1, k1, i2, j2):
                m = (i + i1, j, k + k2)
                acc[m] = acc.get(m, 0) + c12 * c
    den = da * db
    return a._like({m: Fraction(n, den) for m, n in acc.items() if n})


def commutator(a: USL2Element, b: USL2Element) -> USL2Element:
    return multiply(a, b) - multiply(b, a)


def casimir() -> USL2Element:
    # EF + FE + H^2/2, normalized: FE = EF - H
    return USL2Element({
        (1, 1, 0): Fraction(2),
        (0, 0, 2): Fraction(1, 2),
        (0, 0, 1): Fraction(-1),
    })


def rho(a: USL2Element) -> USL2Element:
    """The involutive automorphism swapping E and F and negating H."""
    num, den = _clear(a.terms)
    acc: dict[Monomial, int] = {}
    for (i, j, k), c in num.items():
        # image of E^i F^j H^k is F^i E^j (-H)^k; F^i E^j is _core_product(i, 0, j, 0)
        if k % 2:
            c = -c
        for (x, y, z), v in _core_product(i, 0, j, 0):
            m = (x, y, z + k)
            acc[m] = acc.get(m, 0) + c * v
    return a._like({m: Fraction(n, den) for m, n in acc.items() if n})


def degree(m: Monomial) -> int:
    return m[0] - m[1]


def degree_components(a: USL2Element) -> dict[int, USL2Element]:
    """Split into graded pieces by degree(E^i F^j H^k) = i - j."""
    out: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in a.terms.items():
        out.setdefault(degree(m), {})[m] = c
    return {d: a._like(t) for d, t in sorted(out.items())}


def is_even(a: USL2Element) -> bool:
    return all(degree(m) % 2 == 0 for m in a.terms)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def power_identity_suite(n_max: int) -> list[CheckItem]:
    """Exact checks of the six commutator/product power identities up to n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lam = casimir()
    items: list[CheckItem] = []

    def record(name: str, lhs: USL2Element, rhs: USL2Element):
        items.append(CheckItem(name=name, status=PASS if lhs == rhs else FAIL))

    for n in range(0, n_max + 1):
        en = monomial(n, 0, 0)
        fn = monomial(0, n, 0)
        record(f"[H, E^{n}] == {2 * n}*E^{n}", commutator(H, en), en.scale(2 * n))
        record(f"[H, F^{n}] == {-2 * n}*F^{n}", commutator(H, fn), fn.scale(-2 * n))
        h2 = multiply(H, H)
        record(
            f"[H^2, E^{n}] == 4*{n}*(H - {n})*E^{n}",
            commutator(h2, en),
            multiply(H - one().scale(n), en).scale(4 * n),
        )
        record(
            f"[H^2, F^{n}] == -4*{n}*(H + {n})*F^{n}",
            commutator(h2, fn),
            multiply(H + one().scale(n), fn).scale(-4 * n),
        )
        # E^n F^n and F^n E^n as products of quadratic Casimir factors
        prod_ef = one()
        prod_fe = one()
        for i in range(1, n + 1):
            f_ef = (lam.scale(2) - multiply(H - one().scale(2 * i - 2), H - one().scale(2 * i))).scale(Fraction(1, 4))
            f_fe = (lam.scale(2) - multiply(H + one().scale(2 * i - 2), H + one().scale(2 * i))).scale(Fraction(1, 4))
            prod_ef = multiply(prod_ef, f_ef)
            prod_fe = multiply(prod_fe, f_fe)
        record(f"E^{n}*F^{n} == prod_(i=1..{n}) (2*Lam - (H-2i+2)(H-2i))/4",
               multiply(en, fn), prod_ef)
        record(f"F^{n}*E^{n} == prod_(i=1..{n}) (2*Lam - (H+2i-2)(H+2i))/4",
               multiply(fn, en), prod_fe)
    return items


def verify_ue_presentation() -> list[CheckItem]:
    """The five defining relations of the even subalgebra, as PBW identities."""
    lam = casimir()
    e2 = monomial(2, 0, 0)
    f2 = monomial(0, 2, 0)
    h2 = multiply(H, H)
    two_lam = lam.scale(2)
    checks = [
        ("[H, E^2] == 4*E^2", commutator(H, e2), e2.scale(4)),
        ("[H, F^2] == -4*F^2", commutator(H, f2), f2.scale(-4)),
        (
            "16*E^2*F^2 == (H^2 - 2H - 2*Lam)(H^2 - 6H - 2*Lam + 8)",
            multiply(e2, f2).scale(16),
            multiply(h2 - H.scale(2) - two_lam, h2 - H.scale(6) - two_lam + one().scale(8)),
        ),
        (
            "16*F^2*E^2 == (H^2 + 2H - 2*Lam)(H^2 + 6H - 2*Lam + 8)",
            multiply(f2, e2).scale(16),
            multiply(h2 + H.scale(2) - two_lam, h2 + H.scale(6) - two_lam + one().scale(8)),
        ),
        ("Lam*E^2 == E^2*Lam", multiply(lam, e2), multiply(e2, lam)),
        ("Lam*F^2 == F^2*Lam", multiply(lam, f2), multiply(f2, lam)),
        ("Lam*H == H*Lam", multiply(lam, H), multiply(H, lam)),
    ]
    return [CheckItem(name=n, status=PASS if a == b else FAIL) for n, a, b in checks]


# ---------------------------------------------------------------------------
# basis of the even subalgebra
# ---------------------------------------------------------------------------

# Coordinates of an even element in the basis
#   E^{2n} Lam^i H^k  (part +1, n >= 1),
#   Lam^i H^k         (part 0, n = 0),
#   F^{2n} Lam^i H^k  (part -1, n >= 1),
# keyed by (part, n, i, k).
UeBasisKey = tuple[int, int, int, int]


@lru_cache(maxsize=None)
def _lam_power(i: int) -> USL2Element:
    return casimir() ** i


def ue_basis_element(part: int, n: int, i: int, k: int) -> USL2Element:
    if part not in (-1, 0, 1):
        raise ValueError("part must be -1, 0 or 1")
    if part == 0 and n != 0:
        raise ValueError("the central part has n = 0")
    if part != 0 and n < 1:
        raise ValueError("E/F parts need n >= 1")
    lam_i = _lam_power(i)
    if part == 1:
        out = multiply(monomial(2 * n, 0, 0), lam_i)
    elif part == -1:
        out = multiply(monomial(0, 2 * n, 0), lam_i)
    else:
        out = lam_i
    return out._like({(x, y, z + k): c for (x, y, z), c in out.terms.items()})


def ue_basis_decompose(a: USL2Element) -> dict[UeBasisKey, Fraction]:
    """Exact coordinates of an even element in the even-subalgebra basis.

    Works one graded component at a time.  Within the degree-2n component the
    basis element with Casimir power i has leading PBW term
    2^i E^(2n+i) F^i H^k (all other terms carry a smaller F exponent), so
    eliminating the largest F exponent first makes the system triangular.
    """
    if not is_even(a):
        raise ValueError("ue_basis_decompose requires an even element")
    coords: dict[UeBasisKey, Fraction] = {}
    for d, comp in degree_components(a).items():
        part = 0 if d == 0 else (1 if d > 0 else -1)
        n = abs(d) // 2
        remaining = comp
        while not remaining.is_zero():
            excess = max(min(i, j) for (i, j, _k) in remaining.terms)
            batch = [(m, c) for m, c in remaining.terms.items() if min(m[0], m[1]) == excess]
            for (i, j, k), c in batch:
                coord = c / Fraction(2) ** excess
                coords[(part, n, excess, k)] = coord
                remaining = remaining - ue_basis_element(part, n, excess, k).scale(coord)
    return {k: v for k, v in coords.items() if v}


def ue_basis_recompose(coords: dict[UeBasisKey, Fraction]) -> USL2Element:
    out = zero()
    for (part, n, i, k), c in coords.items():
        out = out + ue_basis_element(part, n, i, k).scale(c)
    return out


# ---------------------------------------------------------------------------
# rendering and parsing
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
    return render_terms((_render_monomial(m), a.terms[m]) for m in sorted(a.terms, reverse=True))


_GENERATORS = {"E": E, "F": F, "H": H}
_TERM_RE = re.compile(
    r"^\s*(?P<coeff>[0-9]+(?:/[0-9]+)?)?\s*\*?\s*(?P<mono>(?:[EFH](?:\^[0-9]+)?\s*\*?\s*)*)$"
)


def parse(text: str) -> USL2Element:
    """Parse the render() format back into an element.  The factors of a term
    are multiplied in the order written, so ``F*E`` parses to E*F - H."""
    text = text.strip()
    if not text:
        raise ValueError("cannot parse empty text")
    if text == "0":
        return zero()
    chunks = re.split(r"(?=[+-])", text.replace(" ", ""))
    out = zero()
    for chunk in chunks:
        if not chunk:
            continue
        sign = Fraction(1)
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (not m.group("coeff") and not m.group("mono") and chunk != "1"):
            raise ValueError(f"cannot parse term {chunk!r}")
        try:
            coeff = Fraction(m.group("coeff") or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r}") from None
        term = monomial(0, 0, 0, sign * coeff)
        for letter, power in re.findall(r"([EFH])(?:\^([0-9]+))?", m.group("mono") or ""):
            term = multiply(term, _GENERATORS[letter] ** (int(power) if power else 1))
        out = out + term
    return out
