"""Free noncommutative polynomials and degree-bounded ideal membership.

Words are plain strings over a declared alphabet of single-character
generator names; the empty word is the unit.  Ideal membership in a
two-sided ideal is decided positively only: the search enumerates products
left*generator*right of bounded degree and row-reduces their coefficient
vectors, so a returned certificate is an exact, replayable linear
combination, while "not found up to the bound" proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Optional

from .linalg import EchelonBasis, SparseMatrix, Vector, as_fraction, solve

Word = str


class FreePoly:
    """Finite rational combination of words over a fixed alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms: dict[Word, Fraction] | None = None):
        alphabet = tuple(alphabet)
        for s in alphabet:
            if len(s) != 1:
                raise ValueError("generator names must be single characters")
        self.alphabet = alphabet
        cleaned: dict[Word, Fraction] = {}
        if terms:
            allowed = set(alphabet)
            for w, c in terms.items():
                if not set(w) <= allowed:
                    raise ValueError(f"word {w!r} uses symbols outside the alphabet")
                c = as_fraction(c)
                if c:
                    cleaned[w] = c
        self.terms = cleaned

    @staticmethod
    def _raw(alphabet: tuple[str, ...], terms: dict[Word, Fraction]) -> "FreePoly":
        p = FreePoly.__new__(FreePoly)
        p.alphabet = alphabet
        p.terms = terms
        return p

    @staticmethod
    def zero(alphabet) -> "FreePoly":
        return FreePoly(alphabet)

    @staticmethod
    def one(alphabet) -> "FreePoly":
        return FreePoly(alphabet, {"": Fraction(1)})

    @staticmethod
    def gen(alphabet, name: str) -> "FreePoly":
        if name not in alphabet:
            raise ValueError(f"{name!r} is not in the alphabet")
        return FreePoly(alphabet, {name: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max word length among terms (0 for the zero polynomial)."""
        return max((len(w) for w in self.terms), default=0)

    def _check_alphabet(self, other: "FreePoly") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other: "FreePoly") -> "FreePoly":
        self._check_alphabet(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            n = out.get(w, 0) + c
            if n:
                out[w] = n
            else:
                del out[w]
        return FreePoly._raw(self.alphabet, out)

    def __neg__(self) -> "FreePoly":
        return FreePoly._raw(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self + (-other)

    def scale(self, c) -> "FreePoly":
        c = as_fraction(c)
        if not c:
            return FreePoly._raw(self.alphabet, {})
        return FreePoly._raw(self.alphabet, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FreePoly):
            return fmultiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "FreePoly":
        if n < 0:
            raise ValueError("negative power")
        acc = FreePoly.one(self.alphabet)
        for _ in range(n):
            acc = fmultiply(acc, self)
        return acc

    def __repr__(self) -> str:
        return f"FreePoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            body = w if w else "1"
            sign = "-" if c < 0 else "+"
            c = abs(c)
            parts.append((sign, body if c == 1 and w else f"{c}*{body}" if w else str(c)))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def fmultiply(a: FreePoly, b: FreePoly) -> FreePoly:
    """Concatenation-bilinear product."""
    a._check_alphabet(b)
    out: dict[Word, Fraction] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            w = w1 + w2
            n = out.get(w, 0) + c1 * c2
            if n:
                out[w] = n
            else:
                del out[w]
    return FreePoly._raw(a.alphabet, out)


def fcommutator(a: FreePoly, b: FreePoly) -> FreePoly:
    return fmultiply(a, b) - fmultiply(b, a)


def substitute(p: FreePoly, images: dict, one):
    """Apply the homomorphic extension of generator -> image to p.

    ``one`` is the unit of the target algebra; targets only need +, * and
    scalar multiplication by Fraction.
    """
    missing = [g for g in p.alphabet if g not in images]
    if missing:
        raise KeyError(f"missing images for generators {missing}")
    acc = None
    for w, c in sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0])):
        val = one
        for s in w:
            val = val * images[s]
        val = val * c
        acc = val if acc is None else acc + val
    if acc is None:
        return one * 0
    return acc


# ---------------------------------------------------------------------------
# ideal membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipCertificate:
    """Expression of a target as sum of coeff * left * generator * right.

    ``triples`` entries are (coefficient, left word, generator index,
    right word); replaying them through fmultiply must reproduce the target
    exactly, which ``replay`` recomputes from scratch.
    """

    alphabet: tuple[str, ...]
    generators: tuple[FreePoly, ...]
    triples: tuple[tuple[Fraction, Word, int, Word], ...]

    def replay(self) -> FreePoly:
        acc = FreePoly.zero(self.alphabet)
        for coeff, left, gi, right in self.triples:
            lw = FreePoly(self.alphabet, {left: Fraction(1)})
            rw = FreePoly(self.alphabet, {right: Fraction(1)})
            acc = acc + fmultiply(fmultiply(lw, self.generators[gi]), rw).scale(coeff)
        return acc

    def as_json_dict(self) -> dict:
        return {
            "alphabet": "".join(self.alphabet),
            "terms": [
                {
                    "coefficient": str(coeff),
                    "left": left,
                    "generator": gi,
                    "right": right,
                }
                for coeff, left, gi, right in self.triples
            ],
        }


def _words_of_length(alphabet: tuple[str, ...], length: int) -> list[Word]:
    return ["".join(t) for t in iter_product(alphabet, repeat=length)]


def ideal_membership(
    target: FreePoly,
    generators: list[FreePoly],
    degree_bound: Optional[int] = None,
) -> Optional[MembershipCertificate]:
    """Search for a membership certificate with all products of bounded degree.

    Candidates left*g*right are enumerated by total degree, then by generator
    index, then length-lexicographically in (left, right).  Their word
    coefficient vectors go into one echelon basis, which keeps the candidates
    that enlarge its span, and the target is reduced against it after each
    one.  Once the target reduces to zero, a single solve over the kept
    candidates gives the certificate; they are linearly independent, so its
    coefficients are unique.  Returns None when the bound is exhausted (which
    proves nothing).  The bound defaults to degree(target) + 4.
    """
    if not generators:
        raise ValueError("no ideal generators given")
    for g in generators:
        target._check_alphabet(g)
    if degree_bound is None:
        degree_bound = target.degree() + 4
    if degree_bound < target.degree():
        raise ValueError("degree bound is smaller than the degree of the target")
    if target.is_zero():
        return MembershipCertificate(target.alphabet, tuple(generators), ())

    alphabet = target.alphabet
    word_index: dict[Word, int] = {}

    def vec_of(terms: dict[Word, Fraction]) -> Vector:
        return {word_index.setdefault(w, len(word_index)): c for w, c in terms.items()}

    basis = EchelonBasis()
    accepted: list[tuple[Word, int, Word]] = []
    columns: list[Vector] = []
    target_vec = vec_of(target.terms)
    residual = target_vec  # running reduction of the target

    gen_degrees = [g.degree() for g in generators]
    min_total = min(gen_degrees)
    for total in range(min_total, degree_bound + 1):
        for gi, g in enumerate(generators):
            side = total - gen_degrees[gi]
            if side < 0:
                continue
            for lu in range(side + 1):
                for u in _words_of_length(alphabet, lu):
                    for v in _words_of_length(alphabet, side - lu):
                        vec = vec_of({u + w + v: c for w, c in g.terms.items()})
                        if not basis.insert(vec):
                            continue  # dependent on earlier candidates
                        accepted.append((u, gi, v))
                        columns.append(vec)
                        residual = basis.reduce(residual)
                        if residual:
                            continue
                        matrix = SparseMatrix.from_columns(columns, len(word_index))
                        coeffs = solve(matrix, target_vec)
                        triples = tuple((coeffs[t], *accepted[t]) for t in sorted(coeffs))
                        cert = MembershipCertificate(alphabet, tuple(generators), triples)
                        if cert.replay() != target:
                            raise ArithmeticError("certificate does not replay to the target")
                        return cert
    return None
