from fractions import Fraction
from random import Random
import re

import pytest

from hahnsl2 import reps, usl2
from hahnsl2.linalg import SparseMatrix, diagonal, kernel_basis, restrict_to_subspace
from hahnsl2.reporting import check
from hahnsl2.reps import (
    ModuleLabel,
    SL2Rep,
    UeRep,
    build_L,
    classify_ue_irreducible,
    evaluate,
    is_irreducible,
    verify_ladder_modules,
)
from hahnsl2.terwilliger import CubeAlgebra
from tests.conftest import all_pass, dense, from_dense, invert, span_closure
from tests.cube_oracle import ladder_embedding

Q = Fraction


def test_build_L_small():
    rep = build_L(1)
    assert rep.E == from_dense([[0, 1], [0, 0]])
    assert rep.F == from_dense([[0, 0], [1, 0]])
    assert rep.H == from_dense([[1, 0], [0, -1]])
    rep0 = build_L(0)
    assert rep0.E.is_zero() and rep0.F.is_zero() and rep0.H.is_zero()
    assert build_L(2).H == from_dense([[2, 0, 0], [0, 0, 0], [0, 0, -2]])


def test_defining_relations_certified_at_construction():
    bad_h = from_dense([[1, 0], [0, 1]])
    good = build_L(1)
    with pytest.raises(ValueError):
        type(good)(E=good.E, F=good.F, H=bad_h)


def test_modules_refuse_operators_of_two_sizes():
    # the size of a module is read off H, so every operator must match it
    one, two = build_L(1), build_L(2)
    with pytest.raises(ValueError, match="square and of one size"):
        SL2Rep(E=one.E, F=one.F, H=two.H)
    half = ModuleLabel(4, 0).build()
    with pytest.raises(ValueError, match="square and of one size"):
        UeRep(half.E2, half.F2, half.Lam, ModuleLabel(2, 0).build().H)



def test_sl2_rep_is_a_plain_value():
    # no cache hides in the record: its fields are the module
    assert SL2Rep._fields == ("E", "F", "H")
    assert not hasattr(build_L(2), "__dict__")


def test_records_are_immutable_and_checked_when_built():
    rep = build_L(1)
    for record, field in ((check("x", True), "status"), (rep, "H"), (ModuleLabel(4, 0), "n")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    for n, parity in ((0, 1), (3, 2)):
        with pytest.raises(ValueError, match="no ladder family"):
            ModuleLabel(n, parity)
        with pytest.raises(ValueError, match="no ladder family"):
            ModuleLabel(4, 0)._replace(n=n, parity=parity)
    with pytest.raises(ValueError, match=r"\[H,E\] = 2E fails"):
        rep._replace(H=rep.H.scale(2))
    assert ModuleLabel(4, 0).build() is ModuleLabel(n=4, parity=0).build()


def test_evaluate_casimir_scalar():
    for n in range(7):
        rep = build_L(n)
        lam, = evaluate(rep, usl2.casimir())
        assert lam == SparseMatrix.identity(n + 1).scale(Q(n * (n + 2), 2))


def test_evaluate_unit_and_nilpotency():
    rep = build_L(3)
    assert evaluate(rep, usl2.one()) == [SparseMatrix.identity(4)]
    for n in range(5):
        rep = build_L(n)
        # oracle: dense power of the raw ladder matrix
        e_rows = dense(rep.E)

        def mul(a, b):
            m = len(a)
            return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]

        power = [[Q(i == j) for j in range(n + 1)] for i in range(n + 1)]
        for _ in range(n + 1):
            power = mul(power, e_rows)
        assert all(all(v == 0 for v in row) for row in power)
        assert evaluate(rep, usl2.monomial(n + 1, 0, 0))[0].is_zero()


def test_evaluate_is_multiplicative(rand_usl2):
    from random import Random

    rng = Random(1234)
    for _ in range(25):
        a = rand_usl2(rng, max_terms=3, max_exp=2)
        b = rand_usl2(rng, max_terms=3, max_exp=2)
        for n in (0, 1, 2, 3):
            rep = build_L(n)
            ab, = evaluate(rep, usl2.multiply(a, b))
            assert ab == evaluate(rep, a)[0] * evaluate(rep, b)[0]


def test_evaluate_multiplies_no_identity_factors(monkeypatch):
    # the Casimir is 2EF - H + H^2/2 in PBW form: E*F and H*H are the only
    # products that carry information
    rep = CubeAlgebra(5).rep
    products = []
    real = SparseMatrix.matmul

    def counted(a, b):
        products.append((a.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(SparseMatrix, "matmul", counted)
    lam, = evaluate(rep, usl2.casimir())
    assert len(products) == 2
    monkeypatch.undo()
    assert lam == rep.E * rep.F + rep.F * rep.E + (rep.H * rep.H).scale(Q(1, 2))


def test_evaluate_goes_through_substitute(monkeypatch, rand_usl2):
    # one homomorphic evaluator: reps.evaluate is a substitute call
    calls = []
    real = reps.substitute

    def counted(p, images, one, memo):
        calls.append(p)
        return real(p, images, one, memo)

    monkeypatch.setattr(reps, "substitute", counted)
    rep = build_L(3)
    a = rand_usl2(Random(5), max_exp=2)
    got, = evaluate(rep, a)
    assert len(calls) == 1
    assert sorted(calls[0].terms) == sorted("E" * i + "F" * j + "H" * k for i, j, k in a.terms)
    want = SparseMatrix(4, 4)
    for (i, j, k), c in a.terms.items():
        m = SparseMatrix.identity(4)
        for g in [rep.E] * i + [rep.F] * j + [rep.H] * k:
            m = m * g
        want = want + m.scale(c)
    assert got == want


def test_build_L0_L1_examples():
    rep = ModuleLabel(4, 0).build()
    assert rep.H == from_dense([[4, 0, 0], [0, 0, 0], [0, 0, -4]])
    assert rep.dim == 3
    rep = ModuleLabel(2, 1).build()
    assert rep.dim == 1
    assert rep.H.is_zero() and rep.E2.is_zero() and rep.F2.is_zero()
    assert rep.Lam == SparseMatrix.identity(1).scale(4)
    rep = ModuleLabel(0, 0).build()
    assert rep.dim == 1
    assert rep.E2.is_zero() and rep.F2.is_zero() and rep.H.is_zero() and rep.Lam.is_zero()
    with pytest.raises(ValueError):
        ModuleLabel(0, 1).build()


def test_built_modules_store_what_the_public_constructor_stores():
    # the integer rows of build and build_L against the checked constructor
    # on their Fraction entries: no zero stored (H vanishes at n = 2m), and
    # the same canonical numerators and denominator
    def rebuilt(op):
        return SparseMatrix(op.rows, op.cols, {(r, c): v for r, c, v in op.items()})

    for n in range(9):
        modules = [build_L(n)] + [ModuleLabel(n, p).build() for p in ((0, 1) if n else (0,))]
        for rep in modules:
            for op in rep:
                assert op == rebuilt(op)
                assert all(op._num.values())


def test_evaluate_shares_one_memo_across_its_elements(monkeypatch):
    # the Casimir twice, then E^2 and F^2: E*F and H*H are formed once, and
    # then E*E and F*F; each matrix is the one a call of its own gives
    rep = build_L(4)
    elements = (usl2.casimir(), usl2.casimir(), *usl2.EVEN_GENERATORS[:2])
    alone = [evaluate(rep, a)[0] for a in elements]
    products = []
    real = SparseMatrix.matmul

    def counted(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(SparseMatrix, "matmul", counted)
    together = evaluate(rep, *elements)
    assert products == [(rep.E, rep.F), (rep.H, rep.H), (rep.E, rep.E), (rep.F, rep.F)]
    assert together == alone
    assert evaluate(rep) == []


def _even_blocks(rep: SL2Rep) -> list[UeRep]:
    # the repr suite's split of L_n under the even subalgebra
    even = evaluate(rep, *usl2.EVEN_GENERATORS)
    return [UeRep(*restrict_to_subspace(even, range(p, rep.dim, 2))) for p in (0, 1) if p < rep.dim]


def test_restrict_even_matches_built_blocks():
    for n in range(13):
        blocks = _even_blocks(build_L(n))
        assert blocks == [ModuleLabel(n, p).build() for p in range(min(n, 1) + 1)]


def test_restrict_even_block_dims():
    assert [b.dim for b in _even_blocks(build_L(3))] == [2, 2]


def test_restrict_even_needs_the_ladder_basis():
    # conjugated by I + e_01, H has the entry n - 2 - n = -2 at (0, 1), so
    # the odd ladder vector v_1 is no longer sent into the odd block
    rep = build_L(3)
    m = from_dense([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    mi = invert(m)
    conj = SL2Rep(E=m * rep.E * mi, F=m * rep.F * mi, H=m * rep.H * mi)
    assert conj.H.get(0, 1) == -2
    with pytest.raises(ValueError, match="not invariant"):
        _even_blocks(conj)


def _direct_sum(a: UeRep, b: UeRep) -> UeRep:
    n = a.dim + b.dim

    def block(x, y):
        entries = {(r, c): v for r, c, v in x.items()}
        entries.update({(a.dim + r, a.dim + c): v for r, c, v in y.items()})
        return SparseMatrix(n, n, entries)

    return UeRep(
        E2=block(a.E2, b.E2),
        F2=block(a.F2, b.F2),
        Lam=block(a.Lam, b.Lam),
        H=block(a.H, b.H),
    )


def test_is_irreducible_and_direct_sum():
    assert is_irreducible(ModuleLabel(6, 0).build())
    assert is_irreducible(ModuleLabel(5, 1).build())
    assert not is_irreducible(_direct_sum(ModuleLabel(2, 0).build(), ModuleLabel(2, 1).build()))
    # Scalar Casimir (12 on both summands) but a two-dimensional E^2 kernel:
    # not a single ladder, so classification refuses it.
    doubled = _direct_sum(ModuleLabel(4, 0).build(), ModuleLabel(4, 0).build())
    assert not is_irreducible(doubled)
    with pytest.raises(ValueError):
        classify_ue_irreducible(doubled)
    for empty in ([], [SparseMatrix(0, 0)]):
        with pytest.raises(ValueError, match="empty module"):
            is_irreducible(empty)
    # oracle: Burnside, the operators span the full matrix algebra
    mixed = _direct_sum(ModuleLabel(2, 0).build(), ModuleLabel(2, 1).build())
    for rep in (ModuleLabel(6, 0).build(), ModuleLabel(5, 1).build(), mixed, doubled):
        assert is_irreducible(rep) == (span_closure(SparseMatrix.identity(rep.dim), rep)[1] == rep.dim ** 2)


def test_is_irreducible_needs_paths_both_ways():
    # the edge 0 -> 1 alone: the span of e_1 is invariant, and Burnside
    # closes to the lower triangular matrices, 3 < 4 dimensions
    ops = [from_dense([[1, 0], [0, 2]]), from_dense([[0, 0], [1, 0]])]
    assert not is_irreducible(ops)
    assert span_closure(SparseMatrix.identity(2), ops)[1] == 3


def test_is_irreducible_refuses_a_graph_it_cannot_decide():
    # strongly connected, but no operator is diagonal with distinct entries
    swap = from_dense([[0, 1], [1, 0]])
    for ops in ([swap], [SparseMatrix.identity(2), swap]):
        with pytest.raises(ValueError, match="diagonal with distinct entries"):
            is_irreducible(ops)
    # rightly so: both leave the line through (1, 1) invariant
    assert span_closure(SparseMatrix.identity(2), [SparseMatrix.identity(2), swap])[1] == 2
    with pytest.raises(ValueError, match="one size"):
        is_irreducible([swap, SparseMatrix.identity(3)])


def test_is_irreducible_agrees_with_burnside_on_every_ladder_module(monkeypatch):
    # every module the repr suite tests: the built halves, both pullback
    # parity blocks for each n, and the L_0 pullback
    modules = []
    real = reps.is_irreducible

    def recorded(ops):
        modules.append(ops)
        return real(ops)

    monkeypatch.setattr(reps, "is_irreducible", recorded)
    assert all_pass(verify_ladder_modules(12))
    assert len(modules) == 2 * (1 + 2 * 12)
    for ops in modules:
        assert real(ops) and span_closure(SparseMatrix.identity(ops[0].rows), ops)[1] == ops[0].rows ** 2


def test_ue_rep_names_the_first_failing_relation():
    e2, f2, lam, h = ModuleLabel(4, 0).build()
    ident = SparseMatrix.identity(3)
    # diag(12, 12, 24) takes the other root of the E^2 F^2 relation at u_2,
    # so only the F^2 E^2 relation and the commutations can catch it
    non_scalar = lam + SparseMatrix(3, 3, {(2, 2): Q(12)})
    for ops, relation in (
        ((e2.scale(2), f2, lam, h), "16*E^2*F^2 =="),
        ((e2, f2, lam, h + ident), "16*E^2*F^2 =="),
        ((f2, e2, lam, h), "[H, E^2] == 4*E^2"),
        ((e2, f2, non_scalar, h), "16*F^2*E^2 =="),
    ):
        with pytest.raises(ValueError, match=re.escape(f"even relation fails: {relation}")):
            UeRep(*ops)


def test_ue_rep_checks_each_value_once_and_never_records_a_failure(monkeypatch):
    good = ModuleLabel(4, 0).build()
    e2, f2, lam, h = good
    calls = []
    real = usl2.even_relations

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(usl2, "even_relations", counted)
    reps._check_even_presentation.cache_clear()
    assert UeRep(*good) == good and len(calls) == 1
    # an equal value built from new matrices makes no even_relations call
    copy = [SparseMatrix(m.rows, m.cols, m.terms) for m in good]
    assert UeRep(*copy) == good and len(calls) == 1
    # a perturbed value is checked, fails, and fails again
    for attempt in (2, 3):
        with pytest.raises(ValueError, match=re.escape("even relation fails: 16*E^2*F^2 ==")):
            UeRep(e2.scale(2), f2, lam, h)
        assert len(calls) == attempt


def _signature(label):
    return label.dim, label.casimir, label.h_spectrum


def test_signature_examples():
    # the signature of a half is its classified label, read here as its
    # dimension, Casimir scalar and H-spectrum
    label = classify_ue_irreducible(ModuleLabel(4, 0).build())
    assert _signature(label) == (3, Q(12), (4, 0, -4))
    label = classify_ue_irreducible(ModuleLabel(4, 1).build())
    assert _signature(label) == (2, Q(12), (2, -2))
    label = classify_ue_irreducible(ModuleLabel(0, 0).build())
    assert _signature(label) == (1, Q(0), (0,))


def test_signatures_pairwise_distinct_up_to_12():
    # distinct labels have distinct dimension, Casimir and H-spectrum, so the
    # repr suite may compare labels where it states that signatures differ
    labels = [classify_ue_irreducible(ModuleLabel(n, 0).build()) for n in range(13)]
    labels += [classify_ue_irreducible(ModuleLabel(n, 1).build()) for n in range(1, 13)]
    assert len(set(labels)) == len(labels)
    assert len({_signature(label) for label in labels}) == len(labels)


def test_classification_examples():
    label = classify_ue_irreducible(ModuleLabel(5, 1).build())
    assert (label.n, label.parity, label.dim - 1) == (5, 1, 2)
    assert str(label) == "L_5^(1)"
    label = classify_ue_irreducible(ModuleLabel(4, 0).build())
    assert (label.n, label.parity, label.dim - 1) == (4, 0, 2)
    label = classify_ue_irreducible(ModuleLabel(0, 0).build())
    assert (label.n, label.parity, label.dim - 1) == (0, 0, 0)


def test_classification_round_trip_all_families():
    for d in range(6):
        for n, parity in ((2 * d, 0), (2 * d + 1, 0), (2 * d + 1, 1), (2 * d + 2, 1)):
            rep = ModuleLabel(n, parity).build()
            assert rep.dim == d + 1
            label = classify_ue_irreducible(rep)
            assert (label.n, label.parity) == (n, parity)
            # oracle: the ladder map along the top vector intertwines all
            # four operators exactly
            p = ladder_embedding(rep, kernel_basis(rep.E2), label)
            assert p is not None
            target = ModuleLabel(n, parity).build()
            for op_in, op_tgt in zip(rep, target):
                assert op_in * p == p * op_tgt


def _random_invertible(rng: Random, dim: int) -> tuple[SparseMatrix, SparseMatrix]:
    while True:
        m = from_dense([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        mi = invert(m)
        if mi is not None:
            return m, mi


def test_classification_of_conjugated_module():
    # Every family with d <= 4, each under three seeded integer changes of
    # basis, so H, E^2 and F^2 are in general not diagonal or bidiagonal.
    rng = Random(4)
    for d in range(5):
        for n, parity in ((2 * d, 0), (2 * d + 1, 0), (2 * d + 1, 1), (2 * d + 2, 1)):
            base = ModuleLabel(n, parity).build()
            for _ in range(3):
                m, mi = _random_invertible(rng, base.dim)
                conj = UeRep(*(m * op * mi for op in base))
                label = classify_ue_irreducible(conj)
                assert (label.n, label.parity) == (n, parity)
                # oracle: an isomorphism from the built half, so the label
                # read off the invariants names the right family
                p = ladder_embedding(conj, kernel_basis(conj.E2), label)
                assert p is not None
                for op_in, op_tgt in zip(conj, base):
                    assert op_in * p == p * op_tgt
                assert label == classify_ue_irreducible(base)


def test_ladder_embedding_of_a_built_half_along_its_top_vector_is_the_identity():
    # (F^2)^i u_0 = (2i + p)! u_i on the built half L_n^(p)
    for label in (ModuleLabel(6, 0), ModuleLabel(7, 1)):
        rep = label.build()
        u0, u1 = (SparseMatrix(rep.dim, 1, {(i, 0): 1}) for i in range(2))
        assert ladder_embedding(rep, u0, label) == SparseMatrix.identity(rep.dim)
        assert ladder_embedding(rep, u1, label) is None
        assert ladder_embedding(rep, SparseMatrix(rep.dim, 1), label) is None


def test_classification_refuses_a_module_that_fits_no_family(monkeypatch):
    # with every family's top weight moved off the module's, no family of
    # the module's size fits L_4^(0): top weight 4, Casimir 12, d = 2
    rep = ModuleLabel(4, 0).build()
    monkeypatch.setattr(ModuleLabel, "top_weight", property(lambda label: label.n + 1))
    with pytest.raises(ValueError, match=re.escape("top eigenvalue 4 and the Casimir fit no family with d = 2")):
        classify_ue_irreducible(rep)


def test_classification_rejects_a_two_dimensional_kernel_of_e2():
    # both summands one-dimensional, so E^2 = 0: its kernel is the whole
    # module, and the top vector is refused before the Casimir is compared
    mixed = _direct_sum(ModuleLabel(1, 0).build(), ModuleLabel(2, 1).build())
    with pytest.raises(ValueError, match="not one-dimensional"):
        classify_ue_irreducible(mixed)



def test_module_label_facts_match_the_built_module():
    for n in range(21):
        for parity in range(min(n, 1) + 1):
            label = ModuleLabel(n, parity)
            rep = label.build()
            weights = diagonal(rep.H)
            assert rep.dim == label.dim == len(weights)
            assert max(weights) == label.top_weight
            assert tuple(weights) == label.h_spectrum
            assert rep.Lam == SparseMatrix.identity(rep.dim).scale(label.casimir)


def test_module_label_refuses_invalid_families():
    for n, parity in ((0, 1), (-1, 0), (3, 2)):
        with pytest.raises(ValueError, match="no ladder family"):
            ModuleLabel(n, parity)

def _is_pullback_item(item) -> bool:
    return item.name.startswith(("L_", "pullback"))


def test_pullback_splitting_small():
    items = [i for i in verify_ladder_modules(4) if _is_pullback_item(i)]
    assert len(items) == 1 + 3 * 4
    assert all_pass(items)
    # n = 1: the two one-dimensional blocks carry A-eigenvalues +-1/4
    from hahnsl2.hahn import natural, presentation

    rep = build_L(1)
    a_mat, = evaluate(rep, natural(presentation().A))
    assert a_mat == from_dense([[Q(1, 4), 0], [0, Q(-1, 4)]])


def test_module_family_suite():
    items = [i for i in verify_ladder_modules(6) if not _is_pullback_item(i)]
    assert len(items) == 4 * 7 + 1
    assert all_pass(items)


def test_ladder_modules_classify_each_half_once(monkeypatch):
    # 25 halves for n <= 12: each is classified once, and two UeReps are
    # built per half: its restricted block, and the built half, which the
    # entrywise item compares it with (the classification reads only the
    # top weight and the Casimir, and builds nothing).  The cache of built
    # halves is cleared first, so earlier tests cannot warm it.
    ModuleLabel.build.cache_clear()
    classified = []
    constructed = []
    real_classify = reps.classify_ue_irreducible
    real_new = UeRep.__new__

    def counted_classify(rep):
        classified.append(rep.dim)
        return real_classify(rep)

    def counted_new(cls, *fields, **named):
        rep = real_new(cls, *fields, **named)
        constructed.append(rep.dim)
        return rep

    monkeypatch.setattr(reps, "classify_ue_irreducible", counted_classify)
    monkeypatch.setattr(UeRep, "__new__", counted_new)
    assert all_pass(verify_ladder_modules(12))
    assert len(classified) == 25
    assert len(constructed) == 50


def test_ladder_modules_repeat_no_product_inside_substitute(monkeypatch):
    # on each L_n the even generators and the images of A and B share one
    # word memo, so E*E, F*F, E*F and H*H are formed once each and no
    # operand pair is multiplied twice inside substitute.  No product of the
    # whole pass has an identity factor of size 2 or more: the
    # classification once built an embedding of each built half into its
    # equal restricted half, the identity, and multiplied every operator by
    # it on both sides (200 such products for n <= 12).  The caches of
    # built and checked halves are cleared, so every product is seen.
    ModuleLabel.build.cache_clear()
    reps._check_even_presentation.cache_clear()
    modules: list[list[tuple[SparseMatrix, SparseMatrix]]] = []
    everything = []
    inside = []
    real_build, real_substitute, real_matmul = reps.build_L, reps.substitute, SparseMatrix.matmul

    def build(n):
        modules.append([])
        return real_build(n)

    def substitute(*args):
        inside.append(args)
        try:
            return real_substitute(*args)
        finally:
            inside.pop()

    def matmul(a, b):
        everything.append((a, b))
        if inside:
            modules[-1].append((a, b))
        return real_matmul(a, b)

    monkeypatch.setattr(reps, "build_L", build)
    monkeypatch.setattr(reps, "substitute", substitute)
    monkeypatch.setattr(SparseMatrix, "matmul", matmul)
    assert all_pass(verify_ladder_modules(12))
    assert [len(pairs) for pairs in modules] == [4] * 13
    for pairs in modules:
        assert all(not any(x is a and y is b for x, y in pairs[:k]) for k, (a, b) in enumerate(pairs))
    identities = [m for pair in everything for m in pair
                  if m.rows == m.cols >= 2 and m == SparseMatrix.identity(m.rows)]
    assert not identities


def test_ladder_modules_catch_a_half_that_is_only_conjugate(monkeypatch):
    # The even half of L_6 comes back conjugated by diag(1, 2, 3, 4): still
    # a UeRep, still irreducible and with the same top weight and Casimir,
    # so it classifies to its own label, but it is not the built half entry
    # by entry.  The entrywise item is then the one item that fails.
    real_restrict = reps.restrict_to_subspace

    def restrict(ops, idx):
        blocks = real_restrict(ops, idx)
        if len(ops) == 4 and ops[0].rows == 7 and idx == range(0, 7, 2):
            d = SparseMatrix(4, 4, {(i, i): i + 1 for i in range(4)})
            d_inv = SparseMatrix(4, 4, {(i, i): Q(1, i + 1) for i in range(4)})
            blocks = [d * m * d_inv for m in blocks]
        return blocks

    monkeypatch.setattr(reps, "restrict_to_subspace", restrict)
    failed = [item.name for item in verify_ladder_modules(8) if not all_pass([item])]
    assert failed == ["restriction of L_6 matches the built halves entrywise"]
