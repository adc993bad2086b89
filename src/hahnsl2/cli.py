"""Command-line verification driver.

Subcommands run the identity suites and emit deterministic reports (text or
JSON).  Exit codes: 0 all checks passed, 1 at least one failure or
unresolved item, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import hahn, reps, terwilliger, usl2
from .reporting import PASS, CheckItem

USAGE_ERROR = 2


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "items": [],
        "certificates": {},
    }


def _finish_report(report: dict) -> dict:
    report["items"].sort(key=lambda d: d["identity"])
    stats = {
        "total": len(report["items"]),
        "passed": sum(1 for i in report["items"] if i["status"] == PASS),
    }
    stats["failed_or_unresolved"] = stats["total"] - stats["passed"]
    report["summary"] = stats
    report["ok"] = stats["failed_or_unresolved"] == 0
    if not report["certificates"]:
        del report["certificates"]
    return report


def _add_items(report: dict, items: list[CheckItem], certificates=None) -> None:
    report["items"].extend(i.as_dict() for i in items)
    if certificates:
        for ref, cert in certificates.items():
            report["certificates"][ref] = cert.as_json_dict()


def run_verify_usl2(n_max: int) -> dict:
    report = _report_skeleton("verify-usl2", {"n_max": n_max})
    _add_items(report, usl2.power_identity_suite(n_max))
    _add_items(report, usl2.verify_ue_presentation())
    _add_items(report, _rho_property_items())
    return _finish_report(report)


def _rho_property_items(samples: int = 100, seed: int = 74) -> list[CheckItem]:
    from random import Random

    rng = Random(seed)
    bad_hom = bad_inv = bad_deg = 0
    for _ in range(samples):
        a = usl2.random_element(rng, max_terms=3)
        b = usl2.random_element(rng, max_terms=3)
        if usl2.rho(usl2.multiply(a, b)) != usl2.multiply(usl2.rho(a), usl2.rho(b)):
            bad_hom += 1
        if usl2.rho(usl2.rho(a)) != a:
            bad_inv += 1
        flipped = usl2.degree_components(usl2.rho(a))
        for d, comp in usl2.degree_components(a).items():
            if usl2.rho(comp) != flipped.get(-d, usl2.zero()):
                bad_deg += 1
                break
    return [
        CheckItem(
            name=f"rho is a homomorphism on {samples} seeded samples",
            status=PASS if bad_hom == 0 else "fail",
        ),
        CheckItem(
            name=f"rho is an involution on {samples} seeded samples",
            status=PASS if bad_inv == 0 else "fail",
        ),
        CheckItem(
            name=f"rho flips the grading on {samples} seeded samples",
            status=PASS if bad_deg == 0 else "fail",
        ),
    ]


def run_verify_hahn(degree_bound: int) -> dict:
    report = _report_skeleton("verify-hahn", {"degree_bound": degree_bound})
    _add_items(report, hahn.verify_natural_well_defined())
    _add_items(report, hahn.verify_image_gradings())
    _add_items(report, hahn.verify_intertwining())
    items, certs = hahn.verify_hahn_identities(degree_bound)
    _add_items(report, items, certs)
    items, certs = hahn.verify_kernel_and_inverse(degree_bound)
    _add_items(report, items, certs)
    return _finish_report(report)


def run_repr(n_max: int) -> dict:
    report = _report_skeleton("repr", {"n_max": n_max})
    _add_items(report, reps.verify_module_family(n_max))
    _add_items(report, reps.verify_pullback_splitting(n_max))
    return _finish_report(report)


def run_cube(d_min: int, d_max: int, base_bits: str | None) -> dict:
    report = _report_skeleton("cube", {"d_min": d_min, "d_max": d_max, "base_vertex": base_bits})
    per_d = []
    for D in range(d_min, d_max + 1):
        base = int(base_bits, 2) if base_bits else 0
        ctx = terwilliger.CubeContext(D=D, base=base)
        hctx = terwilliger.HalvedContext(ctx)
        sd = terwilliger.decompose_standard(ctx)
        hd = terwilliger.decompose_halved(hctx)
        dim = terwilliger.te_dimension(hctx)
        formula = terwilliger.te_dimension_formula(D)
        match = (
            sd.formula_ok
            and sd.dimension_ok
            and hd.labels_ok
            and hd.formula_ok
            and hd.dimension_ok
            and dim == formula
            and dim == hd.wedderburn_dimension
        )
        per_d.append(
            {
                "D": D,
                "base_vertex": ctx.bitstring(ctx.base),
                "standard_decomposition": [[n, m] for n, m in sorted(sd.multiplicities.items())],
                "halved_decomposition": [
                    [f"L_{n}^({p})", m] for (n, p), m in sorted(hd.blocks.items())
                ],
                "te_dimension": dim,
                "formula_value": formula,
                "match": match,
            }
        )
        items = [
            CheckItem(
                name=f"D={D}: standard decomposition matches the closed form",
                status=PASS if sd.formula_ok and sd.dimension_ok else "fail",
            ),
            CheckItem(
                name=f"D={D}: halved decomposition matches the closed form",
                status=PASS if hd.labels_ok and hd.formula_ok and hd.dimension_ok else "fail",
            ),
            CheckItem(
                name=f"D={D}: Terwilliger dimension {dim} equals formula and Wedderburn sum",
                status=PASS if dim == formula == hd.wedderburn_dimension else "fail",
            ),
        ]
        _add_items(report, items)
    report["per_d"] = per_d
    return _finish_report(report)


def run_verify_all(args) -> dict:
    jobs = [
        ("verify-usl2", lambda: run_verify_usl2(args.n_max)),
        ("verify-hahn", lambda: run_verify_hahn(args.degree_bound)),
        ("repr", lambda: run_repr(args.repr_n_max)),
        ("cube", lambda: run_cube(args.d_min, args.d_max, args.base_vertex)),
    ]
    results: dict[str, dict] = {}
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = {name: pool.submit(fn) for name, fn in jobs}
            results = {name: fut.result() for name, fut in futures.items()}
    else:
        results = {name: fn() for name, fn in jobs}
    report = {
        "command": "verify-all",
        "config": {
            "n_max": args.n_max,
            "degree_bound": args.degree_bound,
            "repr_n_max": args.repr_n_max,
            "d_min": args.d_min,
            "d_max": args.d_max,
            "jobs": args.jobs,
        },
        "reports": {name: results[name] for name in sorted(results)},
    }
    report["ok"] = all(r["ok"] for r in results.values())
    report["summary"] = {
        "total": sum(r["summary"]["total"] for r in results.values()),
        "passed": sum(r["summary"]["passed"] for r in results.values()),
    }
    report["summary"]["failed_or_unresolved"] = (
        report["summary"]["total"] - report["summary"]["passed"]
    )
    return report


def render_text(report: dict) -> str:
    lines = [f"# {report['command']}"]
    if "reports" in report:
        for name in sorted(report["reports"]):
            lines.append(render_text(report["reports"][name]))
    else:
        for item in report["items"]:
            mark = "PASS" if item["status"] == PASS else item["status"].upper()
            extra = f" [bound={item['bound']}]" if "bound" in item else ""
            lines.append(f"{mark:22s} {item['identity']}{extra}")
        if "per_d" in report:
            for entry in report["per_d"]:
                lines.append(
                    f"D={entry['D']}: te_dimension={entry['te_dimension']} "
                    f"formula={entry['formula_value']} match={entry['match']}"
                )
    s = report["summary"]
    lines.append(
        f"summary: {s['passed']}/{s['total']} passed, "
        f"{s['failed_or_unresolved']} failed or unresolved"
    )
    return "\n".join(lines)


def emit(report: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
    else:
        text = render_text(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hahnsl2",
        description="Exact verification suites for the Hahn/sl2 correspondence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--jobs", type=int, default=1, help="parallel verification jobs")

    p = sub.add_parser("verify-usl2", help="PBW power identities and the even presentation")
    p.add_argument("--n-max", type=int, default=8)
    common(p)

    p = sub.add_parser("verify-hahn", help="natural-map identities and ideal certificates")
    p.add_argument("--degree-bound", type=int, default=8)
    common(p)

    p = sub.add_parser("repr", help="module family construction and classification")
    p.add_argument("--n-max", type=int, default=12)
    common(p)

    p = sub.add_parser("cube", help="hypercube and halved-cube decompositions")
    p.add_argument("--d-min", type=int, default=2)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--base-vertex", default=None, help="base vertex as a bitstring")
    common(p)

    p = sub.add_parser("verify-all", help="run every suite")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--degree-bound", type=int, default=8)
    p.add_argument("--repr-n-max", type=int, default=12)
    p.add_argument("--d-min", type=int, default=2)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--base-vertex", default=None)
    common(p)

    return parser


def _validate(args, parser) -> None:
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if hasattr(args, "n_max"):
        floor = 1 if args.command in ("verify-usl2", "verify-all") else 0
        if args.n_max < floor:
            parser.error(f"--n-max must be at least {floor}")
    if hasattr(args, "repr_n_max") and args.repr_n_max < 0:
        parser.error("--repr-n-max must be nonnegative")
    if hasattr(args, "degree_bound") and args.degree_bound < 0:
        parser.error("--degree-bound must be nonnegative")
    if hasattr(args, "d_min"):
        if args.d_min < 2 or args.d_max < args.d_min:
            parser.error("need 2 <= d-min <= d-max")
        if args.base_vertex is not None:
            if args.d_min != args.d_max:
                parser.error("--base-vertex needs a single D (set d-min = d-max)")
            if set(args.base_vertex) - {"0", "1"} or len(args.base_vertex) != args.d_max:
                parser.error("--base-vertex must be a bitstring of length D")
            if args.base_vertex.count("1") % 2 != 0:
                parser.error("--base-vertex must have even weight for the halved cube")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    if args.command == "verify-usl2":
        report = run_verify_usl2(args.n_max)
    elif args.command == "verify-hahn":
        report = run_verify_hahn(args.degree_bound)
    elif args.command == "repr":
        report = run_repr(args.n_max)
    elif args.command == "cube":
        report = run_cube(args.d_min, args.d_max, args.base_vertex)
    else:
        report = run_verify_all(args)
    emit(report, args.format, args.out)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
