"""Free noncommutative polynomials and degree-bounded ideal membership.

Words are plain strings over a declared alphabet of single-character
generator names; the empty word is the unit.  A polynomial is a
``linalg.Combination``, stored as integer numerators per word over one
common denominator.  ``fmultiply`` multiplies numerators and denominators as
plain ints, ``substitute`` forms the image of each distinct word prefix once
and divides by the denominator once, and the ideal search reads each
generator's numerators once; coefficients become ``Fraction``s only when
read through ``terms``.

Ideal membership in a two-sided ideal is decided positively only: the
search row-reduces the coefficient vectors of products left*generator*right
of bounded degree and reads a certificate off the one linear dependency
(``linalg.kernel_vectors``) of the kept vectors and the target's, an exact,
replayable linear combination, while "not found up to the bound" proves
nothing.  It counts words as integers, and it never builds a candidate
that extends a rejected one, which would be rejected too (the simplest
syzygy criterion of F5: Faugere, ISSAC 2002).  The columns are words in a
degree-first order (longest first, then lexicographic), the column order of
an F4 Macaulay matrix (Faugere, J. Pure Appl. Algebra 139, 1999): each
product pivots on its leading word, so the echelon rows stay sparse and
small.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .linalg import Combination, EchelonBasis, IntVector, kernel_vectors, render_terms

Word = str


class FreePoly(Combination):
    """Finite rational combination of words over a fixed alphabet."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet, terms: dict[Word, Fraction] | None = None):
        alphabet = tuple(alphabet)
        for s in alphabet:
            if len(s) != 1:
                raise ValueError("generator names must be single characters")
        self.alphabet = alphabet
        super().__init__(terms)

    def _key(self, w: Word) -> Word:
        if type(w) is not str:
            raise TypeError(f"word {w!r} is not a string")
        if not set(w) <= set(self.alphabet):
            raise ValueError(f"word {w!r} uses symbols outside the alphabet")
        return w

    def _product(self, other: "FreePoly") -> "FreePoly":
        return fmultiply(self, other)

    def _space(self) -> tuple[str, ...]:
        return self.alphabet

    def _new(self, num: dict[Word, int], den: int) -> "FreePoly":
        out = super()._new(num, den)
        out.alphabet = self.alphabet
        return out

    @staticmethod
    def one(alphabet) -> "FreePoly":
        return FreePoly(alphabet, {"": Fraction(1)})

    @staticmethod
    def gen(alphabet, name: str) -> "FreePoly":
        if name not in alphabet:
            raise ValueError(f"{name!r} is not in the alphabet")
        return FreePoly(alphabet, {name: Fraction(1)})

    def degree(self) -> int:
        """Max word length among terms (0 for the zero polynomial)."""
        return max((len(w) for w in self._num), default=0)

    def __str__(self) -> str:
        """Terms in length-lexicographic order of their words."""
        terms = self.terms
        words = sorted(terms, key=lambda w: (len(w), w))
        return render_terms((w or "1", terms[w]) for w in words)


def fmultiply(a: FreePoly, b: FreePoly) -> FreePoly:
    """Concatenation-bilinear product, on the integer numerators of a and b
    over the product of their denominators."""
    a._require_same_space(b)
    out: dict[Word, int] = {}
    nb = b._num.items()
    for w1, c1 in a._num.items():
        for w2, c2 in nb:
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return a._new({w: n for w, n in out.items() if n}, a._den * b._den)


def substitute(p: FreePoly, images, one, memo: dict | None = None):
    """Apply the homomorphic extension of generator -> image to p.

    ``one`` is the unit of the target algebra; targets only need +, * and
    scalar multiplication by int and Fraction.  ``memo`` maps words to their
    images; a word's image is the image of the word without its last letter
    times the image of that letter, so each distinct prefix of length l >= 2
    costs one product, once per memo, and the unit is used only for the
    empty word.  A caller whose images stay fixed may keep one memo across
    calls; without one, a fresh memo serves this call alone.  Each word's
    image is scaled by its integer numerator, and the sum is divided by p's
    denominator once.
    """
    missing = [g for g in p.alphabet if g not in images]
    if missing:
        raise KeyError(f"missing images for generators {missing}")
    if memo is None:
        memo = {}
    acc = None
    for w, c in sorted(p._num.items(), key=lambda t: (len(t[0]), t[0])):
        val = _word_image(w, images, memo) * c if w else one * c
        acc = val if acc is None else acc + val
    if acc is None:
        return one * 0
    return acc if p._den == 1 else acc * Fraction(1, p._den)


def _word_image(w: Word, images, memo: dict):
    """The image of a nonempty word: extend its longest prefix in ``memo``
    (or its first letter's image) one letter at a time, recording each new
    prefix of length >= 2."""
    k = len(w)
    while k > 1 and w[:k] not in memo:
        k -= 1
    val = memo[w[:k]] if k > 1 else images[w[0]]
    for i in range(k, len(w)):
        val = val * images[w[i]]
        memo[w[:i + 1]] = val
    return val


# ---------------------------------------------------------------------------
# ideal membership
# ---------------------------------------------------------------------------

class MembershipCertificate(NamedTuple):
    """Expression of a target as sum of coeff * left * generator * right.

    ``triples`` entries are (coefficient, left word, generator index,
    right word); replaying them through fmultiply must reproduce the target
    exactly, which ``replay`` recomputes from scratch.
    """

    alphabet: tuple[str, ...]
    generators: tuple[FreePoly, ...]
    triples: tuple[tuple[Fraction, Word, int, Word], ...]

    def replay(self) -> FreePoly:
        acc = FreePoly(self.alphabet)
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


def ideal_membership(
    target: FreePoly,
    generators: list[FreePoly],
    degree_bound: int,
) -> Optional[MembershipCertificate]:
    """Search for a membership certificate with all products of bounded degree.

    Candidates left*g*right are enumerated by total degree, then by generator
    index, then length-lexicographically in (left, right).  Their word
    coefficient vectors go into one echelon basis, which keeps the candidates
    that enlarge its span, and the target is reduced against it after each
    one.  Once the target reduces to zero, the certificate is read off the
    kernel vector of [kept candidates | target] (``kernel_vectors``): the
    kept candidates are linearly independent, so the target's column is the
    one free column and the coefficients are unique.  Returns None when the
    bound is exhausted (which proves nothing).

    A rejected candidate u*g*v is dead: it is a combination of earlier
    candidates u_k*g_k*v_k.  A candidate is also dead, and is skipped without
    building its vector, when u[1:]*g*v or u*g*v[:-1] is dead: then each
    a*u*g*v*b is the combination of the a*u_k*g_k*v_k*b, and a common prefix
    or suffix keeps the order (total degree, generator index, |u|, then u
    and v as numbers), so all of them come earlier.  By induction every dead
    candidate would have been rejected, so the kept candidates, the stop
    point and the certificate are those of the search that skips nothing.  A
    generator rejected as its own first candidate takes all its later
    candidates with it.  Columns come from words alone, and no column order
    changes which candidates are kept.
    """
    if not generators:
        raise ValueError("no ideal generators given")
    for g in generators:
        target._require_same_space(g)
    if degree_bound < target.degree():
        raise ValueError("degree bound is smaller than the degree of the target")
    if target.is_zero():
        return MembershipCertificate(target.alphabet, tuple(generators), ())

    alphabet = target.alphabet
    # The word of length l with base-b digits x is at column top - b^(l+1) + x:
    # longer words first, words of one length in lexicographic order, all of
    # length <= degree_bound in [0, top), and over n letters x = 0 ... n^l - 1.
    base = max(len(alphabet), 2)
    digit = {s: i for i, s in enumerate(alphabet)}
    top = base ** (degree_bound + 1)

    def value(w: Word) -> int:
        x = 0
        for s in w:
            x = x * base + digit[s]
        return x

    def word(x: int, length: int) -> Word:
        return "".join(alphabet[x // base ** k % base] for k in reversed(range(length)))

    gen_degrees = [g.degree() for g in generators]
    gen_terms = [[(len(w), value(w), x) for w, x in g._num.items()] for g in generators]
    basis = EchelonBasis()
    dead: set[tuple[int, int, int, int, int]] = set()  # (gi, |u|, x_u, |v|, x_v)
    accepted: list[tuple] = []  # ((x_u, |u|), generator index, (x_v, |v|))
    columns: list[IntVector] = []
    # The residual (the target reduced so far) and a candidate's column hold
    # integer numerators: den times the coefficient vector, on the same line.
    residual = goal = {top - base ** (len(w) + 1) + value(w): x for w, x in target._num.items()}
    for total in range(min(gen_degrees), degree_bound + 1):
        for gi, terms in enumerate(gen_terms):
            side = total - gen_degrees[gi]
            for lu in range(side + 1):
                lv = side - lu
                # u*w*v is at top - b^(lu+|w|+lv+1) + x_u b^(|w|+lv) + x_w b^lv + x_v
                placed = [(top - base ** (lu + lw + lv + 1) + xw * base ** lv,
                           base ** (lw + lv), x) for lw, xw, x in terms]
                tail = base ** (lu - 1) if lu else 0
                for xu in range(len(alphabet) ** lu):
                    row = [(at + xu * step, x) for at, step, x in placed]
                    for xv in range(len(alphabet) ** lv):
                        # u[1:] is xu % b^(lu-1) and v[:-1] is xv // b
                        if ((lu and (gi, lu - 1, xu % tail, lv, xv) in dead)
                                or (lv and (gi, lu, xu, lv - 1, xv // base) in dead)):
                            dead.add((gi, lu, xu, lv, xv))
                            continue  # extends a dependent candidate
                        vec = {at + xv: x for at, x in row}
                        if not basis.insert(vec):
                            dead.add((gi, lu, xu, lv, xv))
                            continue  # dependent on earlier candidates
                        accepted.append(((xu, lu), gi, (xv, lv)))
                        columns.append(vec)
                        residual = basis.reduce(residual)
                        if residual:
                            continue
                        # column t is its generator's den times its
                        # candidate, goal the target's den times the target,
                        # and x[t] columns[t] sum to -x[goal] goal
                        x = kernel_vectors([*columns, goal])[len(columns)]
                        scale = x.pop(len(columns)) * target._den
                        triples = tuple(
                            (Fraction(-x[t] * generators[h]._den, scale), word(*u), h, word(*v))
                            for t, (u, h, v) in enumerate(accepted) if t in x)
                        cert = MembershipCertificate(alphabet, tuple(generators), triples)
                        if cert.replay() != target:
                            raise ArithmeticError("certificate does not replay to the target")
                        return cert
    return None
