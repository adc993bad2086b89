"""Test oracles over U(sl2) that the package itself never calls.

``parse`` reads the ``usl2.render`` text back, for the render round trip.
``ue_basis_decompose`` gives the exact coordinates of an even element in
the basis of the even subalgebra, so a test can show that an element (the
image of the natural map, say) lies in it.  ``power`` raises a U(sl2)
element or a free polynomial to a power, which no computation in the
package does.
"""

from fractions import Fraction
from functools import lru_cache
import re

from hahnsl2.freealg import FreePoly
from hahnsl2.usl2 import (
    E,
    F,
    H,
    USL2Element,
    casimir,
    degree_components,
    monomial,
    multiply,
    one,
    zero,
)

# Coordinates of an even element in the basis
#   E^{2n} Lam^i H^k  (part +1, n >= 1),
#   Lam^i H^k         (part 0, n = 0),
#   F^{2n} Lam^i H^k  (part -1, n >= 1),
# keyed by (part, n, i, k).
UeBasisKey = tuple[int, int, int, int]


def power(a, n: int):
    """a multiplied by itself n times, the unit for n = 0; a is a U(sl2)
    element or a free polynomial."""
    out = one() if isinstance(a, USL2Element) else FreePoly(a.alphabet, {"": 1})
    for _ in range(n):
        out = out * a
    return out


@lru_cache(maxsize=None)
def _lam_power(i: int) -> USL2Element:
    return power(casimir(), i)


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
    return out._new({(x, y, z + k): c for (x, y, z), c in out._num.items()}, out._den)


def ue_basis_decompose(a: USL2Element) -> dict[UeBasisKey, Fraction]:
    """Exact coordinates of an even element in the even-subalgebra basis.

    Works one graded component at a time.  Within the degree-2n component the
    basis element with Casimir power i has leading PBW term
    2^i E^(2n+i) F^i H^k (all other terms carry a smaller F exponent), so
    eliminating the largest F exponent first makes the system triangular.
    """
    components = degree_components(a)
    if any(d % 2 for d in components):
        raise ValueError("ue_basis_decompose requires an even element")
    coords: dict[UeBasisKey, Fraction] = {}
    for d, comp in components.items():
        part = 0 if d == 0 else (1 if d > 0 else -1)
        n = abs(d) // 2
        remaining = comp
        while not remaining.is_zero():
            excess = max(min(i, j) for (i, j, _k) in remaining._num)
            den = remaining._den << excess
            batch = [(m, c) for m, c in remaining._num.items() if min(m[0], m[1]) == excess]
            for (i, j, k), c in batch:
                coord = Fraction(c, den)
                coords[(part, n, excess, k)] = coord
                remaining = remaining - ue_basis_element(part, n, excess, k).scale(coord)
    return {k: v for k, v in coords.items() if v}


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
        for letter, exponent in re.findall(r"([EFH])(?:\^([0-9]+))?", m.group("mono") or ""):
            term = multiply(term, power(_GENERATORS[letter], int(exponent) if exponent else 1))
        out = out + term
    return out
