"""Verdict oracles that share no code with the package under test.

Everything here is recomputed with the benchmark's own arithmetic: free
polynomials are plain ``{word: Fraction}`` dicts, matrices are dense lists of
lists, and the closed forms come from ``math.comb``.  The checks are:

* every ideal-membership certificate in a ``verify-all`` report is replayed
  against the identity's residual, rebuilt here from the Hahn presentation;
* every cube dimension and multiplicity is compared with its closed form;
* the ``ideal-exhaust`` target is proven to lie outside the relator ideal by
  a finite-dimensional module on which the relators vanish and it does not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

Poly = dict[str, Fraction]


# ---------------------------------------------------------------------------
# free algebra over {A, B}
# ---------------------------------------------------------------------------

def padd(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for w, c in p.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def pscale(p: Poly, c) -> Poly:
    c = Fraction(c)
    return {w: c * x for w, x in p.items() if c}


def pmul(*polys: Poly) -> Poly:
    out: Poly = {"": Fraction(1)}
    for q in polys:
        acc: Poly = {}
        for w1, c1 in out.items():
            for w2, c2 in q.items():
                acc[w1 + w2] = acc.get(w1 + w2, 0) + c1 * c2
        out = {w: c for w, c in acc.items() if c}
    return out


def pcomm(p: Poly, q: Poly) -> Poly:
    return padd(pmul(p, q), pscale(pmul(q, p), -1))


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pscale(q, -1))


class Hahn:
    """The universal Hahn algebra presentation on A, B, with derived elements."""

    def __init__(self):
        one, A, B = {"": Fraction(1)}, {"A": Fraction(1)}, {"B": Fraction(1)}
        C = pcomm(A, B)
        alpha = padd(pcomm(C, A), pscale(pmul(A, A), 2), B)
        beta = padd(pcomm(B, C), pscale(pmul(B, A), 4), pscale(C, 2))
        omega = padd(
            pscale(pmul(A, B, A), 4),
            pmul(B, B),
            pscale(pmul(C, C), -1),
            pscale(pmul(beta, A), -2),
            pscale(pmul(psub(one, alpha), B), 2),
        )
        self.one, self.A, self.B, self.C = one, A, B, C
        self.alpha, self.beta, self.omega = alpha, beta, omega
        self.relators = [pcomm(alpha, A), pcomm(alpha, B), pcomm(beta, A), pcomm(beta, B)]
        self.e2 = padd(pscale(pmul(A, A), 4), pscale(B, 2), pscale(C, 2), pscale(alpha, -2))
        self.f2 = padd(pscale(pmul(A, A), 4), pscale(B, 2), pscale(C, -2), pscale(alpha, -2))
        self.lam = padd(one, pscale(alpha, 4))
        self.h = pscale(A, 4)
        self.kernel_combo = padd(pscale(omega, 16), pscale(alpha, -24), pscale(one, 3))
        self.kernel_generators = self.relators + [beta, self.kernel_combo]

    def _quadratic(self, h: Poly, lam: Poly, sign: int) -> Poly:
        """(h^2 + 2sh - 2lam)(h^2 + 6sh - 2lam + 8) for s = sign."""
        h2 = pmul(h, h)
        return pmul(
            padd(h2, pscale(h, 2 * sign), pscale(lam, -2)),
            padd(h2, pscale(h, 6 * sign), pscale(lam, -2), pscale(self.one, 8)),
        )

    def residuals(self) -> dict[str, tuple[Poly, list[Poly]]]:
        """Residual (lhs - rhs) of every certified identity, with its generators."""
        one, A, B, C = self.one, self.A, self.B, self.C
        alpha, beta, omega = self.alpha, self.beta, self.omega
        e2, f2, lam, h = self.e2, self.f2, self.lam, self.h
        A2 = pmul(A, A)
        omega_core = padd(pscale(padd(omega, pscale(pmul(B, B), -1), pmul(C, C)), Fraction(1, 2)),
                          pmul(beta, A))

        def hatted_product(sign: int) -> Poly:
            first, second = (f2, e2) if sign > 0 else (e2, f2)
            lhs = psub(pscale(pmul(first, second), 16), self._quadratic(h, lam, sign))
            combo = padd(pscale(self.kernel_combo, 4),
                         pscale(pmul(beta, padd(pscale(A, 2), pscale(one, sign))), 64))
            return psub(lhs, combo)

        in_quotient = {
            "commutator-AC-expansion": psub(pcomm(A, C), padd(pscale(A2, 2), B, pscale(alpha, -1))),
            "commutator-A2C-expansion": psub(pcomm(A2, C), padd(
                pscale(pmul(A2, A), 4), pscale(pmul(A, B), 2), pscale(pmul(alpha, A), -2),
                pscale(C, -1))),
            "double-commutator-ACC-expansion": psub(pcomm(pcomm(A, C), C), padd(
                pscale(pmul(A2, A), 8), pscale(pmul(alpha, A), -4), beta)),
            "casimir-rewrite-BA2": psub(omega_core, padd(
                pscale(pmul(B, A2), 2), pscale(pmul(C, A), 2), pmul(psub(one, alpha), B))),
            "casimir-rewrite-A2B": psub(omega_core, padd(
                pmul(A2, B), pmul(B, A2), pscale(A2, -2), pscale(pmul(alpha, B), -1), alpha)),
            "hatted-HE2-commutator": psub(pcomm(h, e2), pscale(e2, 4)),
            "hatted-HF2-commutator": padd(pcomm(h, f2), pscale(f2, 4)),
            "hatted-E2F2-product": hatted_product(-1),
            "hatted-F2E2-product": hatted_product(+1),
            "omega-central-A": pcomm(omega, A),
            "omega-central-B": pcomm(omega, B),
        }
        mod_kernel = {
            "hatted-H-E2-relation-mod-kernel": psub(pcomm(h, e2), pscale(e2, 4)),
            "hatted-H-F2-relation-mod-kernel": padd(pcomm(h, f2), pscale(f2, 4)),
            "hatted-E2F2-relation-mod-kernel": psub(pscale(pmul(e2, f2), 16),
                                                    self._quadratic(h, lam, -1)),
            "hatted-F2E2-relation-mod-kernel": psub(pscale(pmul(f2, e2), 16),
                                                    self._quadratic(h, lam, +1)),
            "hatted-casimir-E2-commute-mod-kernel": pcomm(lam, e2),
            "hatted-casimir-F2-commute-mod-kernel": pcomm(lam, f2),
            "hatted-casimir-H-commute-mod-kernel": pcomm(lam, h),
        }
        out = {name: (r, self.relators) for name, r in in_quotient.items()}
        out.update({name: (r, self.kernel_generators) for name, r in mod_kernel.items()})
        return out


def replay(cert: dict, generators: list[Poly], bound: int) -> Poly | None:
    """Sum of coefficient * left * generator * right, or None when a product
    exceeds the degree bound or names an unknown generator."""
    out: Poly = {}
    for term in cert["terms"]:
        gi = term["generator"]
        if not 0 <= gi < len(generators):
            return None
        g = generators[gi]
        left, right = term["left"], term["right"]
        if len(left) + max(map(len, g), default=0) + len(right) > bound:
            return None
        c = Fraction(term["coefficient"])
        for w, x in g.items():
            key = left + w + right
            out[key] = out.get(key, 0) + c * x
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# ladder modules, for the non-membership proof
# ---------------------------------------------------------------------------

Matrix = list[list[Fraction]]


def _mat(n: int, entries: dict[tuple[int, int], int]) -> Matrix:
    m = [[Fraction(0)] * n for _ in range(n)]
    for (r, c), v in entries.items():
        m[r][c] = Fraction(v)
    return m


def _mmul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _mlin(*pairs: tuple[Fraction, Matrix]) -> Matrix:
    n = len(pairs[0][1])
    return [[sum((c * m[i][j] for c, m in pairs), Fraction(0)) for j in range(n)]
            for i in range(n)]


def _evaluate(p: Poly, images: dict[str, Matrix], n: int) -> Matrix:
    ident = _mat(n, {(i, i): 1 for i in range(n)})
    pairs = []
    for w, c in p.items():
        m = ident
        for s in w:
            m = _mmul(m, images[s])
        pairs.append((c, m))
    return _mlin(*pairs) if pairs else _mat(n, {})


def natural_images_on_ladder(n: int) -> dict[str, Matrix]:
    """Images of A = H/4 and B = (E^2 + F^2 + Lam - 1)/4 - H^2/8 on the
    (n+1)-dimensional ladder module, with Lam = 2EF + H^2/2 - H."""
    d = n + 1
    E = _mat(d, {(i - 1, i): n - i + 1 for i in range(1, d)})
    F = _mat(d, {(i + 1, i): i + 1 for i in range(d - 1)})
    H = _mat(d, {(i, i): n - 2 * i for i in range(d)})
    ident = _mat(d, {(i, i): 1 for i in range(d)})
    if _mlin((Fraction(1), _mmul(E, F)), (Fraction(-1), _mmul(F, E))) != H:
        raise AssertionError("ladder module fails [E, F] = H")
    H2 = _mmul(H, H)
    lam = _mlin((Fraction(2), _mmul(E, F)), (Fraction(1, 2), H2), (Fraction(-1), H))
    q = Fraction(1, 4)
    B = _mlin((q, _mmul(E, E)), (q, _mmul(F, F)), (q, lam), (-q, ident), (Fraction(-1, 8), H2))
    return {"A": _mlin((q, H)), "B": B}


def nonmember_witness(target: Poly, hahn: Hahn, n_max: int = 8) -> int | None:
    """Smallest n such that the relators vanish on the ladder module L_n and
    the target does not; that proves the target is outside the relator ideal."""
    for n in range(1, n_max + 1):
        images = natural_images_on_ladder(n)
        zero = _mat(n + 1, {})
        if any(_evaluate(r, images, n + 1) != zero for r in hahn.relators):
            raise AssertionError(f"relators do not vanish on L_{n}")
        if _evaluate(target, images, n + 1) != zero:
            return n
    return None


# ---------------------------------------------------------------------------
# closed forms for the cubes
# ---------------------------------------------------------------------------

def standard_multiplicities(D: int) -> dict[int, int]:
    """n -> multiplicity of the (n+1)-dimensional summand of the D-cube module."""
    out = {}
    for k in range(D // 2 + 1):
        m = Fraction(D - 2 * k + 1, D - k + 1) * comb(D, k)
        out[D - 2 * k] = int(m)
    return out


def halved_blocks(D: int) -> dict[str, int]:
    """Blocks of the even-weight half: L_n^(k mod 2) for n = D - 2k, where an
    odd block needs n >= 1, with the standard multiplicity of n."""
    std = standard_multiplicities(D)
    blocks = {}
    for k in range(D // 2 + 1):
        n = D - 2 * k
        if k % 2 == 0 or n >= 1:
            blocks[f"L_{n}^({k % 2})"] = std[n]
    return blocks


def te_dimension(D: int) -> int:
    return comb(D // 2 + 3, 3) + comb((D + 1) // 2 + 1, 3)


# ---------------------------------------------------------------------------
# verdict checks
# ---------------------------------------------------------------------------

_D_ITEM = re.compile(r"^D=(\d+): (standard|halved|Terwilliger)")


def expected_items(config: dict) -> int:
    """Number of items verify-all reports for its configuration."""
    usl2 = 6 * (config["n_max"] + 1) + 10
    hahn = 53
    n = config["repr_n_max"]
    repr_ = 4 * (n + 1) + 1 + 1 + 3 * n
    cube = 3 * (config["d_max"] - config["d_min"] + 1)
    return usl2 + hahn + repr_ + cube


def _cube_failures(report: dict, base_vertex: str | None) -> dict[str, str]:
    """Item name -> reason, for cube items whose figures disagree with the closed forms."""
    per_d = {entry["D"]: entry for entry in report.get("per_d", [])}
    bad = {}
    for item in report["items"]:
        m = _D_ITEM.match(item["identity"])
        if not m:
            continue
        D, kind = int(m.group(1)), m.group(2)
        entry = per_d.get(D)
        if entry is None:
            bad[item["identity"]] = "no per_d entry"
        elif base_vertex is not None and entry["base_vertex"] != base_vertex:
            bad[item["identity"]] = "base vertex not echoed"
        elif kind == "standard":
            got = {n: mult for n, mult in entry["standard_decomposition"]}
            if got != standard_multiplicities(D):
                bad[item["identity"]] = "standard multiplicities differ from the closed form"
        elif kind == "halved":
            if dict(entry["halved_decomposition"]) != halved_blocks(D):
                bad[item["identity"]] = "halved blocks differ from the closed form"
        elif entry["te_dimension"] != te_dimension(D) or entry["formula_value"] != te_dimension(D):
            bad[item["identity"]] = "te_dimension differs from the closed form"
    return bad


def _hahn_failures(report: dict, hahn: Hahn) -> dict[str, str]:
    residuals = hahn.residuals()
    certs = report.get("certificates", {})
    bad = {}
    for item in report["items"]:
        name = item["identity"]
        if name not in residuals:
            continue
        residual, generators = residuals[name]
        ref = item.get("certificate-reference")
        if ref is None:
            if residual:
                bad[name] = "no certificate for a nonzero residual"
        elif ref not in certs:
            bad[name] = "certificate missing"
        elif replay(certs[ref], generators, item.get("bound", 0)) != residual:
            bad[name] = "certificate does not replay to the residual"
    return bad


def _item_verdicts(report: dict, extra_failures: dict[str, str]) -> list[str]:
    failures = []
    for item in report["items"]:
        if item["status"] != "pass":
            failures.append(f"{item['identity']}: status {item['status']}")
        elif item["identity"] in extra_failures:
            failures.append(f"{item['identity']}: {extra_failures[item['identity']]}")
    return failures


def check_report(kind: str, text: str, params: dict, hahn: Hahn) -> tuple[int, int, list[str]]:
    """Verdicts attempted in one report, how many are wrong or missing, and why."""
    expected = params["verdicts"]
    try:
        return _check(kind, json.loads(text), params, hahn)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return expected, expected, [f"malformed report: {exc!r}"]


def _check(kind: str, report: dict, params: dict, hahn: Hahn) -> tuple[int, int, list[str]]:
    expected = params["verdicts"]
    if kind == "ideal":
        cert = report.get("certificate")
        if cert is None:
            return 1, 0, []
        got = replay(cert, hahn.relators, params["bound"])
        target = {w: Fraction(c) for w, c in params["target"].items()}
        why = "replays to the target" if got == target else "does not replay"
        return 1, 1, [f"certificate for a proven non-member ({why})"]
    if report.get("command") == "verify-all":
        subs = report["reports"]
        reasons = []
        for name in sorted(subs):
            sub = subs[name]
            extra = _hahn_failures(sub, hahn) if name == "verify-hahn" else {}
            extra.update(_cube_failures(sub, None))
            reasons += _item_verdicts(sub, extra)
        total = sum(len(s["items"]) for s in subs.values())
    else:
        reasons = _item_verdicts(report, _cube_failures(report, params["base_vertex"]))
        total = len(report["items"])
    missing = max(0, expected - total)
    failed = len(reasons) + missing
    if missing:
        reasons.append(f"{missing} verdicts missing")
    return max(total, expected), failed, reasons
