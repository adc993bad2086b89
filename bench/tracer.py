"""Span tracer for the traced benchmark run, installed from outside the package.

Modules bind names such as ``from .linalg import span_closure``, so a
function is wrapped in every ``hahnsl2`` namespace that holds it, not only in
the module that defines it; wrapping one object once keeps each call counted
exactly once.  Methods are wrapped on their class.  A span's self time is its
duration minus the time of the spans it encloses.  Time spent in the
counting hooks is charged to no span, so it shows only as tracing overhead.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "usl2", "freealg", "hahn", "reps", "terwilliger", "cli")

HAHN_SUITES = (
    "verify_natural_well_defined",
    "verify_image_gradings",
    "verify_intertwining",
    "verify_hahn_identities",
    "verify_kernel_and_inverse",
)
CLI_SUITES = ("run_verify_usl2", "run_verify_hahn", "run_repr", "run_cube")

# Every figure the tracer yields, in print order, with its unit.  Counts,
# bits and bytes must repeat exactly between two traced runs.
FIGURES = (
    [
        ("linalg.matmul.s", "s"), ("linalg.matmul.calls", "count"),
        ("linalg.matmul.madds", "count"),
        ("linalg.echelon_insert.s", "s"), ("linalg.echelon_insert.calls", "count"),
        ("linalg.echelon_insert.accept_ratio", "ratio"),
        ("linalg.span_closure.s", "s"), ("linalg.span_closure.calls", "count"),
        ("linalg.span_closure.products", "count"),
        ("linalg.max_coeff_bits", "bits"),
        ("linalg.kernel.s", "s"), ("linalg.rational_eigenvalues.s", "s"),
        ("usl2.multiply.s", "s"), ("usl2.multiply.calls", "count"),
        ("usl2.multiply.term_pairs", "count"),
        ("usl2.core_product.hits", "count"), ("usl2.core_product.misses", "count"),
        ("usl2.core_product.hit_ratio", "ratio"),
        ("freealg.ideal_membership.s", "s"), ("freealg.ideal_membership.calls", "count"),
        ("freealg.ideal_membership.certified", "count"),
        ("freealg.ideal_membership.exhausted", "count"),
        ("freealg.row_ops", "count"), ("freealg.row_op_entries", "count"),
        ("freealg.substitute.s", "s"), ("freealg.replay.s", "s"),
        ("hahn.natural.s", "s"),
    ]
    + [(f"hahn.suite.{fn}.s", "s") for fn in HAHN_SUITES]
    + [(f"reps.{fn}.s", "s") for fn in ("evaluate", "is_irreducible", "classify", "signature")]
    + [(f"cli.suite.{fn}.s", "s") for fn in CLI_SUITES]
    + [("cli.emit.s", "s"), ("cli.report_bytes", "bytes")]
    + [(f"terwilliger.{fn}.s", "s") for fn in
       ("te_dimension", "decompose_halved", "decompose_standard", "operators")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.coverage", "ratio")]
)


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.stack: list[list] = []  # [span name, seconds of enclosed spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # time inside some top-level span
        self.max_bits = 0

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recorded as span ``name``; hooks see the arguments (and result)."""
        clock, stack = time.perf_counter, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, *args)
            start = clock()
            stack.append([name, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                _, enclosed = stack.pop()
                self.self_s[name] += duration - enclosed
                self.counts[name + ".calls"] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered_s += duration
            if after is not None:
                self._hook(after, result, *args)
            return result

        return wrapper

    def _hook(self, hook, *args) -> None:
        start = time.perf_counter()
        hook(*args)
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - start

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def note_bits(self, values) -> None:
        for x in values:
            b = _bits(x)
            if b > self.max_bits:
                self.max_bits = b

    def figures(self, wall_s: float, core_cache, report_text: str) -> dict[str, float]:
        """Every entry of FIGURES for a traced region of ``wall_s`` seconds."""
        s, n = self.self_s, self.counts
        out: dict[str, float] = {}
        for name, unit in FIGURES:
            if name.endswith(".s"):
                out[name] = s[name[:-2]]
            elif unit == "count":
                out[name] = n[name]
        inserts = n["linalg.echelon_insert.calls"]
        out["linalg.echelon_insert.accept_ratio"] = (
            n["linalg.echelon_insert.accepted"] / inserts if inserts else 0.0
        )
        out["linalg.max_coeff_bits"] = self.max_bits
        if core_cache is not None:
            info = core_cache.cache_info()
            out["usl2.core_product.hits"], out["usl2.core_product.misses"] = info.hits, info.misses
        lookups = out["usl2.core_product.hits"] + out["usl2.core_product.misses"]
        out["usl2.core_product.hit_ratio"] = out["usl2.core_product.hits"] / lookups if lookups else 0.0
        out["cli.report_bytes"] = len(report_text.encode())
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(v for k, v in s.items() if k.startswith(layer + "."))
        out["trace.wall_s"] = wall_s
        out["trace.coverage"] = self.covered_s / wall_s if wall_s > 0 else 0.0
        return {name: out[name] for name, _ in FIGURES}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an imported ``hahnsl2``.  Names a later
    version no longer has are skipped, and their figures read 0."""
    from hahnsl2 import cli, freealg, hahn, linalg, reps, terwilliger, usl2

    modules = [m for key, m in sys.modules.items() if key == "hahnsl2" or key.startswith("hahnsl2.")]
    counts = tracer.counts

    def everywhere(module, attr: str, name: str, **hooks) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = tracer.wrap(name, original, **hooks)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)

    def method(cls, attr: str, name: str, **hooks) -> None:
        if hasattr(cls, attr):
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **hooks))

    def matmul_work(a, b) -> None:
        per_row = Counter(r for r, _, _ in b.items())
        counts["linalg.matmul.madds"] += sum(per_row[k] for _, k, _ in a.items())
        if tracer.parent() == "linalg.span_closure":
            counts["linalg.span_closure.products"] += 1

    def matmul_bits(result, *_) -> None:
        tracer.note_bits(v for _, _, v in result.items())

    def insert_accepted(accepted, *_) -> None:
        counts["linalg.echelon_insert.accepted"] += bool(accepted)

    def closure_bits(result, *_) -> None:
        basis, _ = result
        for row in basis.rows:
            tracer.note_bits(row.values())

    def term_pairs(a, b) -> None:
        counts["usl2.multiply.term_pairs"] += len(a.terms) * len(b.terms)

    def membership(cert, *_) -> None:
        counts["freealg.ideal_membership." + ("exhausted" if cert is None else "certified")] += 1

    method(linalg.SparseMatrix, "matmul", "linalg.matmul", before=matmul_work, after=matmul_bits)
    method(linalg.EchelonBasis, "insert", "linalg.echelon_insert", after=insert_accepted)
    everywhere(linalg, "span_closure", "linalg.span_closure", after=closure_bits)
    for fn in ("kernel_basis", "eigenspace", "solve", "invert", "restrict_to_subspace"):
        everywhere(linalg, fn, "linalg.kernel")
    everywhere(linalg, "rational_eigenvalues", "linalg.rational_eigenvalues")

    everywhere(usl2, "multiply", "usl2.multiply", before=term_pairs)

    everywhere(freealg, "ideal_membership", "freealg.ideal_membership", after=membership)
    everywhere(freealg, "substitute", "freealg.substitute")
    method(freealg.MembershipCertificate, "replay", "freealg.replay")
    # Only the free algebra's private echelon: linalg binds the same function.
    row_op = getattr(freealg, "vec_sub_scaled", None)
    if row_op is not None:
        def counted_row_op(v, w, c):
            counts["freealg.row_ops"] += 1
            counts["freealg.row_op_entries"] += len(w)
            return row_op(v, w, c)

        freealg.vec_sub_scaled = counted_row_op

    everywhere(hahn, "natural", "hahn.natural")
    for fn in HAHN_SUITES:
        everywhere(hahn, fn, f"hahn.suite.{fn}")

    for fn, name in (("evaluate", "evaluate"), ("is_irreducible", "is_irreducible"),
                     ("classify_ue_irreducible", "classify"), ("signature", "signature")):
        everywhere(reps, fn, f"reps.{name}")

    for fn in ("te_dimension", "decompose_halved", "decompose_standard"):
        everywhere(terwilliger, fn, f"terwilliger.{fn}")
    for fn in ("halved_operators", "cube_rho"):
        everywhere(terwilliger, fn, "terwilliger.operators")

    for fn in CLI_SUITES:
        everywhere(cli, fn, f"cli.suite.{fn}")
    everywhere(cli, "emit", "cli.emit")
