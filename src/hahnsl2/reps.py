"""Finite-dimensional modules: the ladder family, its even/odd halves,
irreducibility testing, and the classification of the even-subalgebra
irreducibles.

All matrices act on column vectors; basis vectors are indexed 0..dim-1 in
decreasing H-eigenvalue order, matching the ladder conventions
E v_i = (n-i+1) v_{i-1}, F v_i = (i+1) v_{i+1}, H v_i = (n-2i) v_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import usl2
from .linalg import (
    SparseMatrix,
    eigenspace,
    invert,
    rational_eigenvalues,
    restrict_to_subspace,
    span_closure,
)
from .reporting import PASS, FAIL, CheckItem

Vector = dict[int, Fraction]


def _dense_rows_as_strings(m: SparseMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in m.to_dense()]


@dataclass(frozen=True)
class SL2Rep:
    """Matrices for E, F, H satisfying the defining relations exactly."""

    dim: int
    E: SparseMatrix
    F: SparseMatrix
    H: SparseMatrix

    def __post_init__(self):
        for m in (self.E, self.F, self.H):
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("operator size does not match dim")
        comm = lambda a, b: a * b - b * a
        if comm(self.H, self.E) != self.E.scale(2):
            raise ValueError("[H,E] = 2E fails")
        if comm(self.H, self.F) != self.F.scale(-2):
            raise ValueError("[H,F] = -2F fails")
        if comm(self.E, self.F) != self.H:
            raise ValueError("[E,F] = H fails")

    def as_json_dict(self) -> dict:
        return {
            "dimension": self.dim,
            "E": _dense_rows_as_strings(self.E),
            "F": _dense_rows_as_strings(self.F),
            "H": _dense_rows_as_strings(self.H),
        }


@dataclass(frozen=True)
class UeRep:
    """Matrices for E^2, F^2, the Casimir and H satisfying the even
    presentation exactly (checked at construction)."""

    dim: int
    E2: SparseMatrix
    F2: SparseMatrix
    Lam: SparseMatrix
    H: SparseMatrix

    def __post_init__(self):
        n = self.dim
        for m in (self.E2, self.F2, self.Lam, self.H):
            if m.rows != n or m.cols != n:
                raise ValueError("operator size does not match dim")
        comm = lambda a, b: a * b - b * a
        ident = SparseMatrix.identity(n)
        h2 = self.H * self.H
        two_lam = self.Lam.scale(2)
        if comm(self.H, self.E2) != self.E2.scale(4):
            raise ValueError("[H,E^2] = 4E^2 fails")
        if comm(self.H, self.F2) != self.F2.scale(-4):
            raise ValueError("[H,F^2] = -4F^2 fails")
        if (self.E2 * self.F2).scale(16) != (h2 - self.H.scale(2) - two_lam) * (
            h2 - self.H.scale(6) - two_lam + ident.scale(8)
        ):
            raise ValueError("quadratic relation for E^2 F^2 fails")
        if (self.F2 * self.E2).scale(16) != (h2 + self.H.scale(2) - two_lam) * (
            h2 + self.H.scale(6) - two_lam + ident.scale(8)
        ):
            raise ValueError("quadratic relation for F^2 E^2 fails")
        for other in (self.E2, self.F2, self.H):
            if comm(self.Lam, other) != SparseMatrix.zero(n, n):
                raise ValueError("Casimir does not commute")

    def operators(self) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix, SparseMatrix]:
        return (self.E2, self.F2, self.Lam, self.H)

    def as_json_dict(self) -> dict:
        return {
            "dimension": self.dim,
            "E2": _dense_rows_as_strings(self.E2),
            "F2": _dense_rows_as_strings(self.F2),
            "Casimir": _dense_rows_as_strings(self.Lam),
            "H": _dense_rows_as_strings(self.H),
        }


@dataclass(frozen=True)
class IsoSignature:
    dim: int
    casimir_scalar: Fraction
    h_spectrum: tuple[Fraction, ...]  # sorted, with multiplicity


@dataclass(frozen=True)
class ModuleLabel:
    """Family label L_n^(parity); d = dim - 1 is the ladder length."""

    n: int
    parity: int
    d: int

    def __str__(self) -> str:
        return f"L_{self.n}^({self.parity})"


def build_L(n: int) -> SL2Rep:
    """The (n+1)-dimensional irreducible module in the ladder basis."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    dim = n + 1
    e = SparseMatrix(dim, dim, {(i - 1, i): Fraction(n - i + 1) for i in range(1, dim)})
    f = SparseMatrix(dim, dim, {(i + 1, i): Fraction(i + 1) for i in range(dim - 1)})
    h = SparseMatrix(dim, dim, {(i, i): Fraction(n - 2 * i) for i in range(dim)})
    return SL2Rep(dim=dim, E=e, F=f, H=h)


def evaluate(a: usl2.USL2Element, rep: SL2Rep) -> SparseMatrix:
    """Homomorphic evaluation of a PBW element on a module."""
    dim = rep.dim
    pow_cache: dict[tuple[str, int], SparseMatrix] = {}

    def power(name: str, mat: SparseMatrix, k: int) -> SparseMatrix:
        key = (name, k)
        if key not in pow_cache:
            if k == 0:
                pow_cache[key] = SparseMatrix.identity(dim)
            else:
                pow_cache[key] = power(name, mat, k - 1) * mat
        return pow_cache[key]

    out = SparseMatrix.zero(dim, dim)
    for (i, j, k), c in a.terms.items():
        m = power("E", rep.E, i) * power("F", rep.F, j) * power("H", rep.H, k)
        out = out + m.scale(c)
    return out


def build_L0(n: int) -> UeRep:
    """Even half of the ladder module: basis u_i = v_{2i}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    dim = n // 2 + 1
    e2 = SparseMatrix(
        dim, dim, {(i - 1, i): Fraction((n - 2 * i + 1) * (n - 2 * i + 2)) for i in range(1, dim)}
    )
    f2 = SparseMatrix(
        dim, dim, {(i + 1, i): Fraction((2 * i + 1) * (2 * i + 2)) for i in range(dim - 1)}
    )
    h = SparseMatrix(dim, dim, {(i, i): Fraction(n - 4 * i) for i in range(dim)})
    lam = SparseMatrix.identity(dim).scale(Fraction(n * (n + 2), 2))
    return UeRep(dim=dim, E2=e2, F2=f2, Lam=lam, H=h)


def build_L1(n: int) -> UeRep:
    """Odd half of the ladder module: basis u_i = v_{2i+1}; needs n >= 1."""
    if n < 1:
        raise ValueError("the odd half exists only for n >= 1")
    dim = (n - 1) // 2 + 1
    e2 = SparseMatrix(
        dim, dim, {(i - 1, i): Fraction((n - 2 * i) * (n - 2 * i + 1)) for i in range(1, dim)}
    )
    f2 = SparseMatrix(
        dim, dim, {(i + 1, i): Fraction((2 * i + 2) * (2 * i + 3)) for i in range(dim - 1)}
    )
    h = SparseMatrix(dim, dim, {(i, i): Fraction(n - 4 * i - 2) for i in range(dim)})
    lam = SparseMatrix.identity(dim).scale(Fraction(n * (n + 2), 2))
    return UeRep(dim=dim, E2=e2, F2=f2, Lam=lam, H=h)


def ue_restriction(rep: SL2Rep, basis: list[Vector]) -> UeRep:
    """The even-subalgebra action on the span of basis, which must be invariant."""
    e2 = restrict_to_subspace(rep.E * rep.E, basis)
    f2 = restrict_to_subspace(rep.F * rep.F, basis)
    lam = restrict_to_subspace(evaluate(usl2.casimir(), rep), basis)
    h = restrict_to_subspace(rep.H, basis)
    return UeRep(dim=len(basis), E2=e2, F2=f2, Lam=lam, H=h)


def restrict_even(rep: SL2Rep, n: int):
    """Split the ladder module into its two even-subalgebra blocks.

    Eigenvectors of H are grouped by eigenvalue congruent to n mod 4
    (parity 0) versus n-2 mod 4 (parity 1) and ordered by decreasing
    eigenvalue; returns (parity0, parity1) with parity1 None when n = 0.
    """
    if rep.dim != n + 1:
        raise ValueError("rep does not look like the ladder module of weight n")
    basis0: list[Vector] = []
    basis1: list[Vector] = []
    for i in range(n // 2 + 1):
        basis0.extend(eigenspace(rep.H, Fraction(n - 4 * i)))
    for i in range((n - 1) // 2 + 1):
        basis1.extend(eigenspace(rep.H, Fraction(n - 4 * i - 2)))
    block0 = ue_restriction(rep, basis0)
    block1 = ue_restriction(rep, basis1) if basis1 else None
    return block0, block1


def is_irreducible(rep: UeRep) -> bool:
    """Burnside test: the four operators generate the full matrix algebra."""
    if rep.dim < 1:
        raise ValueError("empty module")
    _, dim = span_closure(list(rep.operators()))
    return dim == rep.dim * rep.dim


def casimir_scalar(rep: UeRep) -> Fraction:
    """The scalar by which the Casimir acts; error when it is not scalar."""
    lam = rep.Lam
    c = lam.get(0, 0)
    if lam != SparseMatrix.identity(rep.dim).scale(c):
        raise ValueError("Casimir does not act as a scalar")
    return c


def signature(rep: UeRep) -> IsoSignature:
    """Isomorphism-separating data: dimension, Casimir scalar, H-spectrum."""
    c = casimir_scalar(rep)
    eigs = rational_eigenvalues(rep.H)
    spectrum: list[Fraction] = []
    for val, mult in eigs.items():
        spectrum.extend([val] * mult)
    return IsoSignature(dim=rep.dim, casimir_scalar=c, h_spectrum=tuple(sorted(spectrum)))


def classify_ue_irreducible(rep: UeRep) -> tuple[ModuleLabel, SparseMatrix]:
    """Identify an irreducible module within the four ladder families.

    Returns the family label and an explicit change-of-basis matrix P with
    P * op_input = op_target * P for all four operators, where the target is
    the corresponding built module.  Follows the highest-eigenvalue vector
    w, the chain w_i = (F^2)^i w and the factorial rescaling to the target
    ladder basis.
    """
    lam = casimir_scalar(rep)
    d = rep.dim - 1
    eigs = rational_eigenvalues(rep.H)
    theta = None
    for val in sorted(eigs, reverse=True):
        if val + 4 not in eigs:
            theta = val
            break
    if theta is None:
        raise ValueError("no H-eigenvalue theta with theta + 4 outside the spectrum")

    top_match = []  # which of the two Casimir equations hold at theta
    if lam == theta * (theta + 2) / 2:
        top_match.append(1)
    if lam == 4 + theta * (theta + 6) / 2:
        top_match.append(2)
    bottom = theta - 4 * d
    bottom_match = []
    if lam == bottom * (bottom - 2) / 2:
        bottom_match.append(1)
    if lam == 4 + bottom * (bottom - 6) / 2:
        bottom_match.append(2)

    cases = []
    for t in top_match:
        for b in bottom_match:
            if (t, b) == (1, 1) and theta == 2 * d:
                cases.append((ModuleLabel(n=2 * d, parity=0, d=d), 0))
            elif (t, b) == (1, 2) and theta == 2 * d + 1:
                cases.append((ModuleLabel(n=2 * d + 1, parity=0, d=d), 0))
            elif (t, b) == (2, 1) and theta == 2 * d - 1:
                cases.append((ModuleLabel(n=2 * d + 1, parity=1, d=d), 1))
            elif (t, b) == (2, 2) and theta == 2 * d:
                cases.append((ModuleLabel(n=2 * d + 2, parity=1, d=d), 1))
    if len(cases) != 1:
        raise ValueError(f"input does not satisfy the presentation (cases: {cases})")
    label, parity = cases[0]

    vecs = eigenspace(rep.H, theta)
    if not vecs:
        raise ValueError("lost the theta eigenvector")
    w = vecs[0]
    chain: list[Vector] = [w]
    for _ in range(d):
        chain.append(rep.F2.apply(chain[-1]))
    if any(not v for v in chain) or rep.F2.apply(chain[-1]):
        raise ValueError("ladder chain does not close after d steps")

    # The isomorphism sends w_i to (2i)! u_i (even family) or (2i+1)! u_i
    # (odd family), so its matrix is diag(s_i) * W^{-1} with W = [w_0..w_d].
    w_mat = SparseMatrix.from_columns(chain, rep.dim)
    w_inv = invert(w_mat)
    if w_inv is None:
        raise ValueError("chain vectors are not a basis")
    scale_rows = SparseMatrix(
        rep.dim,
        rep.dim,
        {(i, i): _ladder_scale(i, parity) for i in range(rep.dim)},
    )
    p = scale_rows * w_inv
    target = build_L0(label.n) if parity == 0 else build_L1(label.n)
    pairs = list(zip(rep.operators(), target.operators()))
    for op_in, op_tgt in pairs:
        if p * op_in != op_tgt * p:
            raise ValueError("constructed map fails to intertwine the operators")
    return label, p


def _ladder_scale(i: int, parity: int) -> Fraction:
    # (2i)! for the even family, (2i+1)! for the odd family
    out = 1
    top = 2 * i if parity == 0 else 2 * i + 1
    for t in range(2, top + 1):
        out *= t
    return Fraction(out)


@lru_cache(maxsize=None)
def _natural_image_matrices(n: int) -> tuple[SparseMatrix, SparseMatrix, SparseMatrix]:
    from .hahn import natural, presentation

    rep = build_L(n)
    pres = presentation()
    return (
        evaluate(natural(pres.A), rep),
        evaluate(natural(pres.B), rep),
        evaluate(natural(pres.C), rep),
    )


def verify_module_family(n_max: int) -> list[CheckItem]:
    """Construction, restriction, irreducibility, signature separation and
    classification round-trips for the ladder modules up to n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    items: list[CheckItem] = []
    sigs: list[IsoSignature] = []
    for n in range(n_max + 1):
        rep = build_L(n)
        lam_mat = evaluate(usl2.casimir(), rep)
        scalar_ok = lam_mat == SparseMatrix.identity(rep.dim).scale(Fraction(n * (n + 2), 2))
        items.append(
            CheckItem(
                name=f"Casimir acts on L_{n} as {Fraction(n * (n + 2), 2)}",
                status=PASS if scalar_ok else FAIL,
            )
        )
        block0, block1 = restrict_even(rep, n)
        built0 = build_L0(n)
        match = block0.operators() == built0.operators()
        blocks = [(0, block0, built0)]
        if n >= 1:
            built1 = build_L1(n)
            match = match and block1 is not None and block1.operators() == built1.operators()
            blocks.append((1, block1, built1))
        items.append(
            CheckItem(
                name=f"restriction of L_{n} matches the built halves entrywise",
                status=PASS if match else FAIL,
            )
        )
        ok_irr = True
        ok_label = True
        for parity, block, built in blocks:
            if not is_irreducible(built):
                ok_irr = False
            label, _ = classify_ue_irreducible(built)
            if (label.n, label.parity) != (n, parity):
                ok_label = False
            sigs.append(signature(built))
        items.append(
            CheckItem(
                name=f"halves of L_{n} are irreducible (full matrix algebra)",
                status=PASS if ok_irr else FAIL,
            )
        )
        items.append(
            CheckItem(
                name=f"halves of L_{n} classify back to their own labels",
                status=PASS if ok_label else FAIL,
            )
        )
    distinct = len(set(sigs)) == len(sigs)
    items.append(
        CheckItem(
            name=f"all module signatures up to n={n_max} are pairwise distinct",
            status=PASS if distinct else FAIL,
        )
    )
    return items


def verify_pullback_splitting(n_max: int) -> list[CheckItem]:
    """Pull each ladder module back along the natural map and check it splits
    into two non-isomorphic irreducible blocks (or stays irreducible at n=0)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    items: list[CheckItem] = []
    for n in range(n_max + 1):
        rep = build_L(n)
        a_mat, b_mat, c_mat = _natural_image_matrices(n)
        even_idx = [i for i in range(n + 1) if i % 2 == 0]
        odd_idx = [i for i in range(n + 1) if i % 2 == 1]

        def off_block_zero(m: SparseMatrix) -> bool:
            even = set(even_idx)
            return all((r in even) == (c in even) for r, c, _ in m.items())

        invariant = all(off_block_zero(m) for m in (a_mat, b_mat, c_mat))
        if n == 0:
            _, dim = span_closure([a_mat, b_mat, c_mat])
            items.append(
                CheckItem(
                    name="pullback of L_0 is irreducible",
                    status=PASS if dim == 1 else FAIL,
                )
            )
            continue
        items.append(
            CheckItem(
                name=f"L_{n}: parity blocks are invariant under the pullback action",
                status=PASS if invariant else FAIL,
            )
        )
        ok_blocks = True
        for name, idx in (("even", even_idx), ("odd", odd_idx)):
            cols = [{i: Fraction(1)} for i in idx]
            ops = [restrict_to_subspace(m, cols) for m in (a_mat, b_mat, c_mat)]
            _, dim = span_closure(ops)
            if dim != len(idx) ** 2:
                ok_blocks = False
        items.append(
            CheckItem(
                name=f"L_{n}: both blocks are irreducible under the pullback action",
                status=PASS if ok_blocks else FAIL,
            )
        )
        block0, block1 = restrict_even(rep, n)
        distinct = signature(block0) != signature(block1)
        items.append(
            CheckItem(
                name=f"L_{n}: the two blocks have distinct signatures",
                status=PASS if distinct else FAIL,
            )
        )
    return items
