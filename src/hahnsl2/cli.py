"""Command-line verification driver.

Subcommands run the identity suites and emit deterministic reports (text or
JSON).  Exit codes: 0 all checks passed, 1 at least one failure or
unresolved item, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import hahn, reps, terwilliger, usl2
from .reporting import PASS, CheckItem, check

# Largest D the cube suite accepts: the suite works on functions on the
# C(D+3, 3) orbits of vertex pairs (969 at D = 16), not on 2^D vertices.  At
# one D it takes about 0.02 s at D = 10, 0.08 s at D = 16 and 0.16 s at D = 20
# (2-vCPU machine, Python 3.11, in process), about 1.2 times more with each D;
# at D = 16 a third of it builds and certifies the orbit operators, two fifths
# evaluates the Casimir and its Krylov vectors, and a fifth closes the
# Terwilliger algebra block by block.
D_MAX_CAP = 16


def _summary(total: int, passed: int) -> dict:
    return {"total": total, "passed": passed, "failed_or_unresolved": total - passed}


def _report(command: str, config: dict, items: list[CheckItem], **extra) -> dict:
    """The report of one subcommand: its items sorted by name, the
    certificates they carry, the summary and the overall verdict."""
    items = sorted(items, key=lambda i: i.name)
    report = {"command": command, "config": config, "items": [i.as_dict() for i in items], **extra}
    certificates = {
        i.reference: i.certificate.as_json_dict() for i in items if i.certificate is not None
    }
    if certificates:
        report["certificates"] = certificates
    passed = sum(i.status == PASS for i in items)
    report["summary"] = _summary(len(items), passed)
    report["ok"] = passed == len(items)
    return report


def run_verify_usl2(n_max: int) -> dict:
    items = (usl2.power_identity_suite(n_max) + usl2.verify_ue_presentation()
             + usl2.rho_property_suite())
    return _report("verify-usl2", {"n_max": n_max}, items)


def run_verify_hahn(degree_bound: int) -> dict:
    items = (
        hahn.verify_natural_well_defined()
        + hahn.verify_image_gradings()
        + hahn.verify_intertwining()
        + hahn.verify_hahn_identities(degree_bound)
        + hahn.verify_kernel_and_inverse(degree_bound)
    )
    return _report("verify-hahn", {"degree_bound": degree_bound}, items)


def run_repr(n_max: int) -> dict:
    return _report("repr", {"n_max": n_max}, reps.verify_ladder_modules(n_max))


def run_cube(d_min: int, d_max: int, base_bits: str | None) -> dict:
    items: list[CheckItem] = []
    per_d = []
    # the report names the base vertex b, but x -> x^b is an automorphism of
    # the cube, so the orbit computation does not depend on it
    base = int(base_bits, 2) if base_bits else 0
    for D in range(d_min, d_max + 1):
        cube = terwilliger.CubeAlgebra(D)
        sd = terwilliger.decompose_standard(cube)
        hd = terwilliger.decompose_halved(cube)
        dim = terwilliger.te_dimension(cube)
        formula = terwilliger.te_dimension_formula(D)
        standard_ok = sd.formula_ok and sd.dimension_ok
        halved_ok = hd.labels_ok and hd.formula_ok and hd.dimension_ok
        dim_ok = dim == formula == hd.wedderburn_dimension
        per_d.append(
            {
                "D": D,
                "base_vertex": format(base, f"0{D}b"),
                "standard_decomposition": [[n, m] for n, m in sorted(sd.multiplicities.items())],
                "halved_decomposition": [
                    [str(reps.ModuleLabel(n, p)), m] for (n, p), m in sorted(hd.blocks.items())
                ],
                "te_dimension": dim,
                "formula_value": formula,
                "match": standard_ok and halved_ok and dim_ok,
            }
        )
        items += [
            check(f"D={D}: standard decomposition matches the closed form", standard_ok),
            check(f"D={D}: halved decomposition matches the closed form", halved_ok),
            check(f"D={D}: Terwilliger dimension {dim} equals formula and Wedderburn sum", dim_ok),
        ]
    config = {"d_min": d_min, "d_max": d_max, "base_vertex": base_bits}
    return _report("cube", config, items, per_d=per_d)


def run_verify_all(args) -> dict:
    reports = {
        "verify-usl2": run_verify_usl2(args.n_max),
        "verify-hahn": run_verify_hahn(args.degree_bound),
        "repr": run_repr(args.repr_n_max),
        "cube": run_cube(args.d_min, args.d_max, args.base_vertex),
    }
    summaries = [r["summary"] for r in reports.values()]
    return {
        "command": "verify-all",
        "config": {
            "n_max": args.n_max,
            "degree_bound": args.degree_bound,
            "repr_n_max": args.repr_n_max,
            "d_min": args.d_min,
            "d_max": args.d_max,
            "jobs": 1,
        },
        "reports": reports,
        "ok": all(r["ok"] for r in reports.values()),
        "summary": _summary(
            sum(s["total"] for s in summaries), sum(s["passed"] for s in summaries)
        ),
    }


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


@cache  # one argparse tree per process: main only reads it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hahnsl2",
        description="Exact verification suites for the Hahn/sl2 correspondence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")

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
    p.add_argument(
        "--jobs",
        type=int,
        choices=(1,),
        default=1,
        help="accepted for compatibility; the suites run one after another",
    )
    common(p)

    return parser


def _validate(args, parser) -> None:
    if args.out is not None:
        if os.path.isdir(args.out):
            parser.error(f"--out: {args.out} is a directory, not a file")
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            parser.error(f"--out: directory {os.path.dirname(args.out)} does not exist")
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
        if args.d_max > D_MAX_CAP:
            parser.error(f"--d-max is capped at {D_MAX_CAP}: the cube suite costs "
                         "about 1.2 times more with each D beyond it")
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
