"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line; run `pytest tests/test_acceptance.py -s`
to see them live.  All arithmetic is exact, so the tolerances are zero; the
asserted runtime ceilings are part of the criteria.
"""

import time
from fractions import Fraction
from random import Random

from hahnsl2 import hahn, reps, terwilliger, usl2
from hahnsl2.linalg import SparseMatrix
from tests.conftest import all_pass, random_free_poly, random_usl2_element, span_closure

Q = Fraction


def _report(number: int, label: str, ok: bool, elapsed: float, limit: float) -> None:
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} [{verdict}] {label} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_power_identities():
    t0 = time.perf_counter()
    items = usl2.power_identity_suite(8)
    elapsed = time.perf_counter() - t0
    _report(1, "six power-identity families exact for n <= 8", all_pass(items), elapsed, 10.0)


def test_criterion_2_even_presentation_relations():
    t0 = time.perf_counter()
    items = usl2.verify_ue_presentation()
    elapsed = time.perf_counter() - t0
    _report(2, "even-subalgebra presentation relations exact", all_pass(items), elapsed, 1.0)


def test_criterion_3_natural_map_facts():
    t0 = time.perf_counter()
    ok = all_pass(hahn.verify_natural_well_defined())
    pres = hahn.presentation()
    lam = usl2.casimir()
    ok = ok and hahn.natural(pres.beta).is_zero()
    ok = ok and hahn.natural(pres.alpha) == (lam - usl2.one()).scale(Q(1, 4))
    ok = ok and hahn.natural(pres.omega) == (lam.scale(2) - usl2.one().scale(3)).scale(Q(3, 16))
    combo = pres.omega.scale(16) - pres.alpha.scale(24) + pres.one.scale(3)
    ok = ok and hahn.natural(combo).is_zero()
    elapsed = time.perf_counter() - t0
    _report(3, "natural map well defined with exact image facts", ok, elapsed, 5.0)


def test_criterion_4_ideal_membership_certificates():
    t0 = time.perf_counter()
    items = hahn.verify_hahn_identities(8)
    ok = all_pass(items)
    targets = dict(hahn._identity_targets())
    for item in items:
        if item.certificate is not None:
            ok = ok and item.certificate.replay() == targets[item.name]
    kitems = hahn.verify_kernel_and_inverse(8)
    ok = ok and all_pass(kitems)
    ktargets = dict(hahn._kernel_relation_targets())
    for item in kitems:
        if item.certificate is not None:
            replayed = item.certificate.replay()
            ok = ok and replayed == ktargets[item.name]
            ok = ok and hahn.natural(replayed).is_zero()
    elapsed = time.perf_counter() - t0
    _report(4, "all quotient identities certified at bound 8 and replayed", ok, elapsed, 300.0)


def _is_pullback_item(item) -> bool:
    return item.name.startswith(("L_", "pullback"))


def test_criterion_5_module_facts():
    t0 = time.perf_counter()
    items = [i for i in reps.verify_ladder_modules(12) if not _is_pullback_item(i)]
    ok = len(items) == 53 and all_pass(items)
    # classification round-trip across all four families for d <= 5
    for d in range(6):
        for n, parity in ((2 * d, 0), (2 * d + 1, 0), (2 * d + 1, 1), (2 * d + 2, 1)):
            label = reps.classify_ue_irreducible(reps.ModuleLabel(n, parity).build())
            ok = ok and (label.n, label.parity, label.dim - 1) == (n, parity, d)
    # every half is irreducible by its weight graph, and by Burnside: its
    # operators span the full matrix algebra
    for n in range(13):
        for half in [reps.ModuleLabel(n, p).build() for p in ((0, 1) if n else (0,))]:
            ok = ok and reps.is_irreducible(half)
            ok = ok and span_closure(SparseMatrix.identity(half.dim), half)[1] == half.dim ** 2
    elapsed = time.perf_counter() - t0
    _report(5, "module family facts and classification round-trip (n <= 12)", ok, elapsed, 120.0)


def test_criterion_6_pullback_splitting():
    t0 = time.perf_counter()
    items = [i for i in reps.verify_ladder_modules(12) if _is_pullback_item(i)]
    ok = len(items) == 37 and all_pass(items)
    elapsed = time.perf_counter() - t0
    _report(6, "pullback modules split into two distinct irreducibles (n <= 12)", ok, elapsed, 60.0)


def test_criterion_7_hypercube_decomposition():
    t0 = time.perf_counter()
    ok = True
    for D in range(2, 11):
        sd = terwilliger.decompose_standard(terwilliger.CubeAlgebra(D))
        ok = ok and sd.formula_ok and sd.dimension_ok
        total = sum(m * (n + 1) for n, m in sd.multiplicities.items())
        ok = ok and total == 2**D
    elapsed = time.perf_counter() - t0
    _report(7, "hypercube multiplicities match the closed form (D <= 10)", ok, elapsed, 120.0)


def test_criterion_8_halved_cube_structure():
    # the closed form gives 4, 5, 11, 14, 24, 30, 45 for D = 2..8
    t0 = time.perf_counter()
    ok = True
    small_elapsed = None
    for D in range(2, 9):
        cube = terwilliger.CubeAlgebra(D)
        dim = terwilliger.te_dimension(cube)
        hd = terwilliger.decompose_halved(cube)
        formula = terwilliger.te_dimension_formula(D)
        ok = ok and dim == formula == hd.wedderburn_dimension
        ok = ok and hd.labels_ok and hd.formula_ok and hd.dimension_ok
        if D == 6:
            small_elapsed = time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    ok = ok and small_elapsed is not None and small_elapsed < 30.0
    print(f"  (D <= 6 portion: {small_elapsed:.2f}s, limit 30s)")
    _report(8, "halved-cube algebra dimension matches formula and Wedderburn sum (D <= 8)", ok, elapsed, 600.0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    failures = 0

    rng = Random(101)
    for _ in range(1000):
        a = random_usl2_element(rng, max_terms=3, max_exp=2)
        b = random_usl2_element(rng, max_terms=3, max_exp=2)
        c = random_usl2_element(rng, max_terms=3, max_exp=2)
        if usl2.multiply(a, usl2.multiply(b, c)) != usl2.multiply(usl2.multiply(a, b), c):
            failures += 1

    rng = Random(202)
    for _ in range(500):
        a = random_usl2_element(rng, max_terms=3, max_exp=2)
        b = random_usl2_element(rng, max_terms=3, max_exp=2)
        if usl2.rho(usl2.multiply(a, b)) != usl2.multiply(usl2.rho(a), usl2.rho(b)):
            failures += 1
        if usl2.rho(usl2.rho(a)) != a:
            failures += 1

    rng = Random(303)
    for _ in range(500):
        p = random_free_poly(rng)
        if any(d % 2 for d in usl2.degree_components(hahn.natural(p))):
            failures += 1

    rng = Random(404)
    ladders = [reps.build_L(n) for n in range(7)]
    for _ in range(100):
        a = random_usl2_element(rng, max_terms=3, max_exp=2)
        b = random_usl2_element(rng, max_terms=3, max_exp=2)
        ab = usl2.multiply(a, b)
        for rep in ladders:
            ab_mat, a_mat, b_mat = reps.evaluate(rep, ab, a, b)
            if ab_mat != a_mat * b_mat:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(9, "seeded property suites (assoc 1000, rho 500, evenness 500, oracle 200)", failures == 0, elapsed, 600.0)
